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
    """The row's classify_map report, None for a row run through reconstruct
    alone, and reconstruct's report."""
    row = ADVERSARIAL_MAPS[name]
    return None if row.verdict is None else classify_map(row.build()), reconstruct(row.build())


@pytest.mark.parametrize("name", ADVERSARIAL_MAPS)
def test_every_row_gets_its_verdict_status_and_parity(name):
    """reconstruct's status, probe count and parity are the row's. So is the
    status of classify_map's reconstruction, which keeps the probes'
    candidate and verifies it on the trial inputs it reads instead: at the
    default 200 trials, the 2 trials inputs scored."""
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
        scanned = report.reconstruction
        assert scanned.status == row.status
        if rec.symmetry is None:
            assert scanned == rec
        else:
            assert (scanned.symmetry.parity, scanned.symmetry.u.tobytes(),
                    scanned.parity_margin) == (rec.symmetry.parity, rec.symmetry.u.tobytes(),
                                               rec.parity_margin)
            assert scanned.verification_trials == 2 * report.trials


def test_no_row_is_preserving_unless_its_reconstruction_certifies():
    wrong = [name for name, row in ADVERSARIAL_MAPS.items() if row.verdict is not None
             and outcome(name)[0].preserving and not outcome(name)[1].certified]
    assert wrong == []


@pytest.mark.parametrize("trials", [1, 2, 5, 17])
def test_few_trials_keep_every_rows_verdict(trials):
    """classify_map verifies the probes' candidate on at least
    VERIFICATION_TRIALS trial inputs, however few trials it scores, so a
    row keeps its verdict: a map that acts as a symmetry on the pure trial
    pairs alone, as the rank-one rows do, is still rejected at one trial,
    and preserving only where reconstruct certifies it."""
    verdicts = {name: classify_map(row.build(), trials=trials).preserving
                for name, row in ADVERSARIAL_MAPS.items() if row.verdict is not None}
    assert [name for name, preserving in verdicts.items()
            if preserving != (ADVERSARIAL_MAPS[name].verdict == PRESERVING)
            or preserving and not outcome(name)[1].certified] == []



def test_preserving_is_derived_and_not_stored():
    """The verdict is no field of the report but the one rule on its fields,
    on every row that classify_map runs."""
    assert "preserving" not in {f.name for f in dataclasses.fields(ClassificationReport)}
    for name, row in ADVERSARIAL_MAPS.items():
        if row.verdict is not None:
            report = outcome(name)[0]
            assert report.preserving == (report.reconstruction.certified
                                         and report.worst_violation <= CLASSIFY_TOL), name
