"""Both tools' verdicts on every row of the adversarial table."""
import dataclasses
import functools

import numpy as np
import pytest
from adversarial_maps import (
    ADVERSARIAL_MAPS,
    PRESERVING,
    RECONSTRUCTION,
    WITNESS,
    zoo_rows,
)
from trial_reference import reference_trial_pairs, stack_size

from fidsym.mapzoo import PRESERVING_KINDS, ClassificationReport, classify_map, make_map, zoo_specs
from fidsym.matcore import row_sumsq
from fidsym.tolerances import CLASSIFY_TOL
from fidsym.wigner import (
    VERIFICATION_TRIALS,
    SymmetryOperator,
    apply_symmetry,
    reconstruct,
    residual_bound,
    symmetry_distance,
    violation_bound,
)


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
    if rec.certified:
        u = rec.symmetry.u
        assert np.linalg.norm(u.conj().T @ u - np.eye(len(u))) <= 1e-13
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


def test_both_tools_agree_on_every_row():
    """classify_map calls a row preserving exactly when reconstruct, on its
    own inputs, certifies it: the depolarized symmetries too, whose table
    leaves out the one-decade band around residual_bound(d) where the two
    scans' inputs may disagree."""
    wrong = [name for name, row in ADVERSARIAL_MAPS.items() if row.verdict is not None
             and outcome(name)[0].preserving != outcome(name)[1].certified]
    assert wrong == []


def residual(oracle, symmetry, x):
    """||phi X - S X||_F for one operator X, its image read alone."""
    return np.sqrt(row_sumsq((oracle.evaluate(x).matrix
                              - apply_symmetry(symmetry, x).matrix)[None])[0])


def assert_one_error_model(oracle, report):
    """A classify report is preserving exactly when its reconstruction is
    certified, and then it has no witness and every pair it scanned has a
    violation_bound within CLASSIFY_TOL, as has its worst violation. The
    bounds are recomputed pair by pair, from the reference draws and the
    residuals against the candidate of each image read alone (a map that
    reads its stack whole, as the Bloch rows do, may round a row otherwise
    in the scan's groups). A witness against a candidate holds a row whose
    residual exceeds residual_bound(d), so the scan's tally, which stops at
    the first such row, never reads past the witness's block."""
    rec = report.reconstruction
    assert report.preserving == rec.certified
    d = oracle.dim
    if report.witness_pair is not None and rec.symmetry is not None:
        assert max(residual(oracle, rec.symmetry, x) for x in report.witness_pair) \
            > residual_bound(d)
    if not rec.certified:
        return
    assert report.witness_pair is None
    rng, pairs = np.random.default_rng(report.seed), []
    while len(pairs) < report.trials:
        pairs += reference_trial_pairs(rng, d, stack_size(d))
    pairs = pairs[:report.trials]
    delta = [[residual(oracle, rec.symmetry, x) for x in pair] for pair in pairs]
    beta = violation_bound(d, np.array(delta), np.array([[x.trace for x in p] for p in pairs]))
    assert beta.max() <= CLASSIFY_TOL and report.worst_violation <= CLASSIFY_TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_one_error_model_on_the_zoo(d, seed):
    for spec in zoo_specs(d):
        oracle = make_map(spec, seed=seed)
        assert_one_error_model(oracle, classify_map(oracle, seed=seed))


@pytest.mark.parametrize("name", [name for name, row in ADVERSARIAL_MAPS.items()
                                  if row.verdict is not None])
def test_one_error_model_on_every_row(name):
    assert_one_error_model(ADVERSARIAL_MAPS[name].build(), outcome(name)[0])


@pytest.mark.parametrize("trials", [1, 2, 3, 5, 17, 31, 32, 33])
def test_few_trials_keep_every_rows_verdict(trials):
    """classify_map scores at least VERIFICATION_TRIALS / 2 trials of a map
    whose probes give a candidate, however few are asked for, so a row
    keeps its verdict: a map that acts as a symmetry on the pure trial
    pairs alone, as the rank-one rows do, is still rejected at one trial,
    and preserving only where reconstruct certifies it."""
    verdicts = {name: classify_map(row.build(), trials=trials).preserving
                for name, row in ADVERSARIAL_MAPS.items() if row.verdict is not None}
    assert [name for name, preserving in verdicts.items()
            if preserving != (ADVERSARIAL_MAPS[name].verdict == PRESERVING)
            or preserving and not outcome(name)[1].certified] == []


# Every classified row, and the preserving zoo kinds at d = 2 besides those
# the table holds at d = 3 and 8.
CLASSIFIED = {name: row for name, row in {**zoo_rows(2), **ADVERSARIAL_MAPS}.items()
              if row.verdict is not None}


def report_fields(report):
    """Every field of a classify report, the witness and U as bytes."""
    rec = report.reconstruction
    return (report.trials, report.worst_violation, report.seed,
            None if report.witness_pair is None
            else tuple(x.matrix.tobytes() for x in report.witness_pair),
            rec.status, rec.probes_used, rec.verification_trials, rec.residual_max,
            rec.parity_margin, None if rec.symmetry is None
            else (rec.symmetry.parity, rec.symmetry.u.tobytes()))


@functools.cache
def floor_report(name, seed):
    return classify_map(CLASSIFIED[name].build(), trials=VERIFICATION_TRIALS // 2, seed=seed)


@pytest.mark.parametrize("trials", [1, 2, 7, 16, 31])
def test_fewer_trials_are_the_floor_report(trials):
    """Every pair that classify_map reads is a scored trial: on every
    classified row whose probes give a candidate, a scan asked for fewer
    than VERIFICATION_TRIALS / 2 trials reads, scores and reports exactly
    what that many do, every field and byte alike."""
    seed = 0
    names = [name for name in CLASSIFIED
             if floor_report(name, seed).reconstruction.symmetry is not None]
    assert {f"{kind}-d{d}" for kind in PRESERVING_KINDS for d in (2, 3, 8)} <= set(names)
    assert [name for name in names
            if report_fields(classify_map(CLASSIFIED[name].build(), trials=trials, seed=seed))
            != report_fields(floor_report(name, seed))] == []


def test_preserving_is_derived_and_not_stored():
    """The verdict is no field of the report but the one rule on its fields,
    on every row that classify_map runs."""
    assert "preserving" not in {f.name for f in dataclasses.fields(ClassificationReport)}
    for name, row in ADVERSARIAL_MAPS.items():
        if row.verdict is not None:
            report = outcome(name)[0]
            assert report.preserving == report.reconstruction.certified, name
