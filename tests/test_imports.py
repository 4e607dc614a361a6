"""Every name a fidsym module imports is used in it, so that folding a helper
into its caller cannot leave a dead import behind."""
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
