"""The names that perfbench/tracer.py patches are still there, and every
DensityMapOracle is built in the one form its traced __init__ accepts, so
that tier-1 fails where the traced benchmark run would.

The tracer is read as source with ast, never imported or changed."""
import ast
import importlib
from pathlib import Path

import fidsym

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
MODULES = sorted(Path(fidsym.__file__).parent.glob("*.py"))


def target_literals(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, attr) of every Target(metric, module, attr, ...) call whose
    first three arguments are string literals, sorted."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Target" and len(node.args) >= 3
                and all(isinstance(a, ast.Constant) and isinstance(a.value, str)
                        for a in node.args[:3])):
            found.append((node.args[1].value, node.args[2].value))
    return sorted(found)


def test_every_traced_name_is_in_src():
    tree = ast.parse(TRACER.read_text(encoding="utf-8")) if TRACER.exists() else ast.Module([], [])
    missing = [f"{module}.{attr}" for module, attr in target_literals(tree)
               if module.partition(".")[0] == "fidsym"
               and not hasattr(importlib.import_module(module), attr)]
    assert not missing, f"perfbench/tracer.py patches names that src no longer has: {missing}"


def test_the_check_reads_every_target_literal():
    tree = ast.parse(
        'TARGETS = (Target("a.f", "fidsym.a", "f", COUNT),\n'
        '           Target("b.g", "numpy.linalg", "g", extra=("x", "y", h)))\n'
        'ORACLE = Target("o.e", "fidsym.wigner", "DensityMapOracle")\n'
        'other = Target(name)\n')
    assert target_literals(tree) == [("fidsym.a", "f"), ("fidsym.wigner", "DensityMapOracle"),
                                     ("numpy.linalg", "g")]


def keyword_oracle_calls(tree: ast.Module) -> list[int]:
    """The lines of the DensityMapOracle(...) calls that pass a keyword
    argument, ``cls(...)`` in the class's own methods included."""
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and "DensityMapOracle" in (getattr(node.func, "id", None),
                                        getattr(node.func, "attr", None))]
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "DensityMapOracle":
            calls += [node for node in ast.walk(cls) if isinstance(node, ast.Call)
                      and getattr(node.func, "id", None) == "cls"]
    return sorted(node.lineno for node in calls if node.keywords)


def test_every_oracle_is_built_from_positional_arguments():
    """The tracer wraps DensityMapOracle.__init__ as (obj, dim, evaluate)."""
    bad = {path.name: lines for path in MODULES
           if (lines := keyword_oracle_calls(ast.parse(path.read_text(encoding="utf-8"))))}
    assert not bad, f"DensityMapOracle calls with keyword arguments: {bad}"


def test_the_check_finds_a_keyword_oracle_call():
    tree = ast.parse(
        "a = DensityMapOracle(2, f)\n"
        "b = wigner.DensityMapOracle(dim=2, evaluate_stack=f)\n"
        "c = DensityMapOracle(2, **kw)\n"
        "class DensityMapOracle:\n"
        "    @classmethod\n"
        "    def make(cls, d):\n"
        "        return cls(d, evaluate_stack=g), cls(d, g)\n")
    assert keyword_oracle_calls(tree) == [2, 3, 7]
