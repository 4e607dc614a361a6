"""The tolerance table: defined in one module, every entry read by the code,
and the headroom it states measured."""
import ast
import re
from pathlib import Path

import numpy as np
import pytest

import fidsym
from fidsym import tolerances
from fidsym.mapzoo import classify_map
from fidsym.sampling import haar_unitary
from fidsym.wigner import ANTIUNITARY, UNITARY, SymmetryOperator, residual_bound, symmetry_oracle

SRC = Path(fidsym.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


def other_modules():
    return [p for p in sorted(SRC.glob("*.py")) if p.name != "tolerances.py"]


def test_table_holds_every_tolerance_once():
    table = tolerances.table()
    assert len(table) == 9
    for name, value in table.items():
        assert getattr(tolerances, name.upper()) == value
        assert 0.0 < value < 1e-5


def test_no_tolerance_defined_outside_the_table():
    definition = re.compile(r"^[A-Z_]+_(TOL|FLOOR) = ", re.MULTILINE)
    for path in other_modules():
        assert not definition.search(path.read_text()), path.name


def test_every_tolerance_is_read_by_the_code():
    read = set()
    for path in other_modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [name.upper() for name in tolerances.table() if name.upper() not in read]
    assert unread == []


def test_every_tolerance_named_in_the_docs_is_in_the_table():
    """A tolerance that is deleted leaves no name behind: every
    [A-Z_]+_(TOL|FLOOR) word in README.md and in the package, docstrings and
    comments included, is a key of the table."""
    name = re.compile(r"\b[A-Z_]+_(?:TOL|FLOOR)\b")
    live = {key.upper() for key in tolerances.table()}
    for path in [README, *sorted(SRC.glob("*.py"))]:
        assert set(name.findall(path.read_text(encoding="utf-8"))) <= live, path.name


@pytest.mark.parametrize("parity", [UNITARY, ANTIUNITARY])
@pytest.mark.parametrize("seed", [100, 101])
def test_the_verdict_rule_keeps_its_measured_headroom_at_d_64(seed, parity):
    """The headroom that fidsym.tolerances states, pinned at half: an exact
    Haar symmetry at d = 64 (U from ``seed``), classified with 200 trials at
    seed - 100, keeps residual_max within residual_bound(64) / 2 (measured:
    0.26 of it over seeds 100-105) and worst_violation within 0.62
    CLASSIFY_TOL (measured: 0.31)."""
    u = haar_unitary(np.random.default_rng(seed), 64)
    report = classify_map(symmetry_oracle(SymmetryOperator(parity=parity, u=u)),
                          trials=200, seed=seed - 100)
    assert report.preserving
    assert report.reconstruction.residual_max <= residual_bound(64) / 2
    assert report.worst_violation <= 0.62 * tolerances.CLASSIFY_TOL
