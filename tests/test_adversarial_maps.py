"""Both tools' verdicts on every row of the adversarial table."""
import dataclasses
import functools

import pytest
from adversarial_maps import ADVERSARIAL_MAPS, PRESERVING, RECONSTRUCTION, WITNESS

from fidsym.mapzoo import ClassificationReport, classify_map
from fidsym.tolerances import CLASSIFY_TOL
from fidsym.wigner import SymmetryOperator, reconstruct, symmetry_distance


@functools.cache
def outcome(name):
    """The row's classify_map report and its reconstruction; for a row run
    through reconstruct alone, None and reconstruct's report."""
    row = ADVERSARIAL_MAPS[name]
    if row.verdict is None:
        return None, reconstruct(row.build())
    report = classify_map(row.build())
    return report, report.reconstruction


@pytest.mark.parametrize("name", ADVERSARIAL_MAPS)
def test_every_row_gets_its_verdict_status_and_parity(name):
    row = ADVERSARIAL_MAPS[name]
    report, rec = outcome(name)
    assert (rec.status, rec.probes_used) == (row.status, row.probes)
    assert (rec.symmetry.parity if rec.certified else None) == row.parity
    if row.u is not None:
        expected = SymmetryOperator(parity=row.parity, u=row.u)
        assert symmetry_distance(rec.symmetry, expected) <= 1e-13
    if report is not None:
        verdict = (PRESERVING if report.preserving else
                   WITNESS if report.witness_pair is not None else RECONSTRUCTION)
        assert verdict == row.verdict


def test_no_row_is_preserving_unless_its_reconstruction_certifies():
    wrong = [name for name, row in ADVERSARIAL_MAPS.items() if row.verdict is not None
             and outcome(name)[0].preserving and not outcome(name)[1].certified]
    assert wrong == []



def test_preserving_is_derived_and_not_stored():
    """The verdict is no field of the report but the one rule on its fields,
    on every row that classify_map runs."""
    assert "preserving" not in {f.name for f in dataclasses.fields(ClassificationReport)}
    for name, row in ADVERSARIAL_MAPS.items():
        if row.verdict is not None:
            report = outcome(name)[0]
            assert report.preserving == (report.reconstruction.certified
                                         and report.worst_violation <= CLASSIFY_TOL), name
