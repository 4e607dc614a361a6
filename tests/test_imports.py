"""Every name a fidsym module imports is used in it, and every private
helper is called, so that folding a helper into its caller cannot leave a
dead import or a dead helper behind."""
import ast
from pathlib import Path

import pytest

import fidsym

MODULES = sorted(Path(fidsym.__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module, package: bool) -> dict[str, int]:
    """The names bound by the module's imports, with their lines; in a
    package's __init__ a relative import re-exports its names, which is
    their use."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if package and node.level > 0:
                continue
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, as itself or as the root of an attribute."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = imported_names(tree, package=path.name == "__init__.py")
    unused = {name: line for name, line in imported.items() if name not in used_names(tree)}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_finds_an_unused_import():
    source = "import math\nfrom .matcore import freeze, hermitize\n\nx = hermitize(math.pi)\n"
    tree = ast.parse(source)
    assert set(imported_names(tree, package=False)) - used_names(tree) == {"freeze"}
    assert set(imported_names(tree, package=True)) - used_names(tree) == set()


def dead_private_helpers(trees: list[ast.Module]) -> set[str]:
    """The module-level _-prefixed functions of the modules that none of
    them reads, by name or as an attribute, outside the function's own def."""
    dead = set()
    for tree in trees:
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                    and not node.name.startswith("__")):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not any(id(n) not in inside and node.name in (getattr(n, "id", None),
                                                             getattr(n, "attr", None))
                       for other in trees for n in ast.walk(other)
                       if isinstance(n, (ast.Name, ast.Attribute))):
                dead.add(node.name)
    return dead


def test_every_private_helper_has_a_caller():
    trees = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in MODULES]
    dead = dead_private_helpers(trees)
    assert not dead, f"private helpers that no fidsym module calls: {sorted(dead)}"


def test_the_check_finds_a_dead_private_helper():
    """_self calls only itself, _dead nothing calls; _local is called in its
    module, _remote as an attribute of another, and a method is no
    module-level helper."""
    helpers = ast.parse(
        "def _dead():\n    return 1\n\n"
        "def _self(n):\n    return _self(n - 1) if n else 0\n\n"
        "def _local():\n    return 2\n\n"
        "def _remote():\n    return 3\n\n"
        "class C:\n    def _method(self):\n        return _local()\n")
    caller = ast.parse("import helpers\n\nx = helpers._remote()\n")
    assert dead_private_helpers([helpers, caller]) == {"_dead", "_self"}
    assert dead_private_helpers([helpers]) == {"_dead", "_self", "_remote"}
