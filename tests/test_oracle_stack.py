"""The stacked oracle protocol: every zoo kind's evaluate_stack has the bits
of its evaluate and of the per-matrix map it replaced, image_stack applies
the image rule once per stack and once per row, and classify_map and
reconstruct hand the oracle bounded stacks, stop at the first failing
group of them, and count probes as a one-matrix-at-a-time loop does."""
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from bad_images import BAD_IMAGES, BAD_STACKS
from trial_reference import group_calls, reference_verification_inputs, stack_size

from fidsym.charact import numerical_rank
from fidsym.cli import classification_to_dict, reconstruction_to_dict
from fidsym.mapzoo import ALL_KINDS, _trial_pairs, classify_map, make_map, zoo_specs
from fidsym.matcore import DensityOperator, eig_hermitian
from fidsym.sampling import haar_unitary, random_density
from fidsym.wigner import (
    ANTIUNITARY,
    STATUS_CERTIFIED,
    STATUS_FAILED_PROJECTION_PROBE,
    STATUS_FAILED_VERIFICATION,
    TRIAL_STACK_ENTRIES,
    UNITARY,
    DensityMapOracle,
    SymmetryOperator,
    apply_symmetry_stack,
    reconstruct,
    symmetry_oracle,
)

SEED = 3


def per_matrix(act):
    """A per-matrix map whose image is wrapped as from_psd did."""
    return lambda a: DensityOperator.from_psd(act(a)).matrix


def per_matrix_symmetry(parity, u):
    return per_matrix(lambda a: u @ (a.matrix.conj() if parity == ANTIUNITARY else a.matrix)
                      @ u.conj().T)


def reference_map(kind, d):
    """The per-matrix form each oracle had before it was given by its action
    on stacks, with the params of zoo_specs and seed SEED."""
    if kind == "identity":
        return lambda a: a.matrix
    if kind in (UNITARY, ANTIUNITARY):
        return per_matrix_symmetry(kind, haar_unitary(np.random.default_rng(SEED), d))
    if kind.startswith("symmetry-"):
        return per_matrix_symmetry(kind[9:], haar_unitary(np.random.default_rng(d), d))
    if kind == "transpose":
        return per_matrix(lambda a: a.matrix.T)
    if kind == "depolarizing":
        return per_matrix(lambda a: 0.5 * a.matrix + 0.5 * a.trace * np.eye(d) / d)
    if kind == "mix":
        sigma = random_density(np.random.default_rng(SEED), d, trace=1.0)
        return per_matrix(lambda a: 0.5 * a.matrix + 0.5 * a.trace * sigma.matrix)
    if kind == "dephase":
        return per_matrix(lambda a: np.diag(np.diag(a.matrix)))
    return per_matrix(lambda a: np.diag(
        np.clip(eig_hermitian(a.matrix).eigenvalues, 0.0, None).astype(complex)))


KINDS = [*ALL_KINDS, "symmetry-unitary", "symmetry-antiunitary"]


def oracle_of(kind, d):
    if kind.startswith("symmetry-"):
        u = haar_unitary(np.random.default_rng(d), d)
        return symmetry_oracle(SymmetryOperator(parity=kind[9:], u=u))
    return make_map(zoo_specs(d)[ALL_KINDS.index(kind)], seed=SEED)


@pytest.mark.parametrize("n", ["one", "block"])
@pytest.mark.parametrize("d", [2, 3, 8, 32])
@pytest.mark.parametrize("kind", [*ALL_KINDS, "symmetry-unitary", "symmetry-antiunitary"])
def test_evaluate_stack_has_the_bits_of_evaluate_and_the_per_matrix_map(kind, d, n):
    """On one trial input, and on a whole classify_map block of them, each
    row of evaluate_stack equals evaluate and the old per-matrix map bit for
    bit, and image_stack passes every row unchanged."""
    oracle = oracle_of(kind, d)
    stack = _trial_pairs(np.random.default_rng(d), d, stack_size(d)).reshape(-1, d, d)
    if n == "one":
        stack = stack[:1]
    out = oracle.evaluate_stack(stack)
    assert out.shape == stack.shape
    reference = reference_map(kind, d)
    for x, y in zip(stack, out):
        a = DensityOperator(matrix=x)
        assert y.tobytes() == oracle.evaluate(a).matrix.tobytes() == reference(a).tobytes()
    images, ok = oracle.image_stack(stack)
    assert ok.all() and images.tobytes() == out.tobytes()


# Oracles at d = 3 keyed by test id: every zoo kind, every bad image as an
# evaluate, and every bad stack return as an evaluate_stack.
IMAGE_ORACLES = {
    **{kind: lambda kind=kind: oracle_of(kind, 3) for kind in KINDS},
    **{f"image-{name}": lambda bad=bad: DensityMapOracle.from_evaluate(3, bad)
       for name, bad in BAD_IMAGES.items()},
    **{f"stack-{name}": lambda bad=bad: DensityMapOracle(3, bad)
       for name, bad in BAD_STACKS.items()},
}


@pytest.mark.parametrize("name", IMAGE_ORACLES)
def test_image_stack_reads_one_row_as_it_reads_it_in_its_stack(name):
    """image_stack of a stack of one matrix has the bits and the ok flag of
    that matrix's row in image_stack of the whole stack: an oracle read per
    row is judged row by row, and a bad evaluate_stack return is turned away
    whole at n = 1 as at any n."""
    oracle = IMAGE_ORACLES[name]()
    stack = _trial_pairs(np.random.default_rng(0), 3, 4).reshape(-1, 3, 3)
    images, ok = oracle.image_stack(stack)
    for x, image, row_ok in zip(stack, images, ok):
        out, one = oracle.image_stack(x[None])
        assert out.shape == (1, 3, 3) and one.tolist() == [row_ok]
        assert out[0].tobytes() == image.tobytes()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", KINDS)
def test_a_kind_reports_the_same_bytes_through_evaluate_alone(kind, d):
    """Read a matrix at a time through its evaluate, each zoo kind gives the
    classify_map and reconstruct reports it gives read through evaluate_stack."""
    oracle = oracle_of(kind, d)
    plain = DensityMapOracle.from_evaluate(d, oracle.evaluate)
    for tool, to_dict in ((classify_map, classification_to_dict),
                          (reconstruct, reconstruction_to_dict)):
        assert json.dumps(to_dict(tool(oracle))) == json.dumps(to_dict(tool(plain)))


# The bad images of the table that are (3, 3) arrays of numbers, and so can
# stand as one row of a stack.
ROW_BAD = ("nan", "1e200")


def identity_with_bad_rows(bad, where):
    """A stacked identity at d = 3 whose rows that ``where`` picks go to the
    matrix of the bad image BAD_IMAGES[bad]."""

    def evaluate_stack(m):
        out = np.array(m)
        for k, x in enumerate(m):
            if where(x):
                out[k] = BAD_IMAGES[bad](DensityOperator(matrix=x)).matrix
        return out

    return DensityMapOracle(3, evaluate_stack)


@pytest.mark.parametrize("bad", ROW_BAD)
def test_a_bad_row_turns_away_that_row_alone(bad):
    stack = _trial_pairs(np.random.default_rng(0), 3, 5).reshape(-1, 3, 3)
    oracle = identity_with_bad_rows(bad, lambda x: x.tobytes() == stack[4].tobytes())
    images, ok = oracle.image_stack(stack)
    assert ok.tolist() == [k != 4 for k in range(10)]
    assert not images[4].any()
    assert images[ok].tobytes() == stack[ok].tobytes()


@pytest.mark.parametrize("bad", ROW_BAD)
def test_classify_witness_is_the_pair_with_a_bad_row(bad):
    """Only one trial input, in the sixth pair of the second block of 113
    pairs at d = 3 (drawn whole, of which 87 are scored), has a bad image;
    that pair scores inf and is the witness."""
    rng = np.random.default_rng(0)
    _trial_pairs(rng, 3, stack_size(3))
    pair = _trial_pairs(rng, 3, stack_size(3))[5]
    oracle = identity_with_bad_rows(bad, lambda x: x.tobytes() == pair[1].tobytes())
    report = classify_map(oracle, trials=200)
    assert not report.preserving and report.worst_violation == math.inf
    assert [x.matrix.tobytes() for x in report.witness_pair] == [m.tobytes() for m in pair]


@pytest.mark.parametrize("bad", ROW_BAD)
def test_reconstruct_fails_verification_on_a_bad_row(bad):
    """Every probe passes; the first verification input of rank >= 2 has a
    bad image in its row."""
    oracle = identity_with_bad_rows(
        bad, lambda x: numerical_rank(DensityOperator(matrix=x)) > 1)
    report = reconstruct(oracle)
    assert report.status == STATUS_FAILED_VERIFICATION
    assert report.probes_used == 6
    assert report.residual_max == math.inf


@pytest.mark.parametrize("bad", BAD_STACKS)
def test_a_bad_stack_return_turns_the_whole_stack_away(bad):
    """An oracle whose stack action returns a bad whole: every row is turned
    away, with no traceback, so classify_map's first pair, the first of a
    full block, is its witness and reconstruct rejects its first probe, which
    is read through the same stack action."""
    oracle = DensityMapOracle(3, BAD_STACKS[bad])
    stack = _trial_pairs(np.random.default_rng(0), 3, 4).reshape(-1, 3, 3)
    images, ok = oracle.image_stack(stack)
    assert images.shape == stack.shape and not images.any() and not ok.any()
    report = classify_map(oracle, trials=10)
    assert not report.preserving and report.worst_violation == math.inf
    assert [x.matrix.tobytes() for x in report.witness_pair] == [
        m.tobytes() for m in _trial_pairs(np.random.default_rng(0), 3, stack_size(3))[0]]
    rec = reconstruct(oracle)
    assert rec.status == STATUS_FAILED_PROJECTION_PROBE
    assert rec.probes_used == 1 and rec.residual_max == math.inf


@pytest.mark.parametrize("image", [[[1e-308, 1.0], [1.0, 0.0]], [[1e-308, 0.0], [0.0, -1e10]]],
                         ids=["tiny-trace", "tiny-top-eigenvalue"])
def test_a_non_psd_image_is_rejected_with_a_finite_violation(image):
    """A constant non-PSD image, which image_stack lets through, whose trace
    or largest eigenvalue is tiny beside its other entries: fidelity_stack
    scales by the largest |entry| and |eigenvalue|, so the scores stay finite
    and no overflow warns."""
    m = np.array(image, dtype=complex)
    oracle = DensityMapOracle(2, lambda a: np.broadcast_to(m, a.shape).copy())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = classify_map(oracle, trials=10)
    assert not report.preserving and math.isfinite(report.worst_violation)


def transposing_trial(trial, d, stacked, calls):
    """The identity at d, except that reconstruct's ``trial``-th verification
    input (seed 0) goes to its transpose; ``calls`` records the number of
    matrices in each call to the oracle. Past the 64th trial it is the
    identity."""
    inputs = reference_verification_inputs(0, d, 64)
    target = inputs[trial - 1].tobytes() if trial <= len(inputs) else None

    def one(x):
        return x.T if x.tobytes() == target else x

    if stacked:
        return DensityMapOracle(
            d, lambda m: calls.append(len(m)) or np.stack([one(x) for x in m]))
    return DensityMapOracle.from_evaluate(
        d, lambda a: calls.append(1) or DensityOperator(matrix=one(a.matrix)))


@pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "per_matrix"])
@pytest.mark.parametrize("trial", [1, 16, 17, 20, 64])
def test_probes_used_counts_trials_up_to_the_first_failure(trial, stacked):
    """At d = 8 a draw block holds 16 verification inputs, and the oracle
    reads them in groups of 16, 32 and 16. A map that fails at trial 20, in
    the second group, uses d + 2 + 20 = 30 probes, as a per-matrix loop
    does, and the oracle sees the rest of that group and no group after it."""
    d = 8
    calls = []
    report = reconstruct(transposing_trial(trial, d, stacked, calls))
    assert report.status == STATUS_FAILED_VERIFICATION
    assert report.probes_used == d + 2 + trial
    assert 1e-3 < report.residual_max < math.inf
    groups = group_calls(64, d, through=trial)
    assert calls == [1] * (d + 2) + (groups if stacked else [1] * sum(groups))
    calls.clear()
    other = reconstruct(transposing_trial(trial, d, not stacked, calls))
    assert (other.probes_used, other.residual_max) == (report.probes_used, report.residual_max)


@pytest.mark.parametrize("trial", [1, 17, 20, 64])
def test_residual_max_is_the_largest_row_norm_up_to_the_failure(trial):
    """A map that transposes every verification input from the ``trial``-th
    on fails there; residual_max, scored as a row sum of squares, equals the
    largest np.linalg.norm of a residual up to and including that trial, not
    beyond it in the same stack."""
    d = 8
    inputs = reference_verification_inputs(0, d, 64)
    late = {x.tobytes() for x in inputs[trial - 1:]}
    report = reconstruct(DensityMapOracle(
        d, lambda m: np.stack([x.T if x.tobytes() in late else x for x in m])))
    assert report.status == STATUS_FAILED_VERIFICATION
    assert report.probes_used == d + 2 + trial
    images = inputs[:trial].copy()
    images[-1] = images[-1].T
    expected = apply_symmetry_stack(report.symmetry, inputs[:trial])
    norms = [np.linalg.norm(y - e) for y, e in zip(images, expected)]
    assert report.residual_max == pytest.approx(max(norms), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("trials", [1, 17, 64, 300])
@pytest.mark.parametrize("d", [1, 2, 3, 8, 32])
def test_verification_inputs_match_reference_bit_for_bit(d, trials):
    """A recording identity oracle sees the reference verification inputs,
    drawn in blocks of stack_size(d) and read in the scoring groups of
    group_calls, after the probes' stacks of one."""
    seen = []
    oracle = DensityMapOracle(d, lambda m: seen.append(m.copy()) or m.copy())
    report = reconstruct(oracle, verification_trials=trials)
    probes = 1 if d == 1 else d + 2
    assert report.certified and report.probes_used == probes + trials
    assert [len(m) for m in seen[:probes]] == [1] * probes
    assert [len(m) for m in seen[probes:]] == group_calls(trials, d)
    drawn = np.concatenate(seen[probes:])
    assert drawn.tobytes() == reference_verification_inputs(0, d, trials).tobytes()


def test_a_certified_map_uses_d_plus_2_plus_64_probes_in_four_stacks():
    """The 64 inputs are drawn in four stacks of 16 and read in three calls,
    of 16, 32 and 16."""
    calls = []
    # only 64 inputs are drawn, so this is the identity
    report = reconstruct(transposing_trial(65, 8, True, calls))
    assert report.status == STATUS_CERTIFIED
    assert report.probes_used == 8 + 2 + 64
    assert calls == [1] * 10 + group_calls(64, 8) == [1] * 10 + [16, 32, 16]


@pytest.mark.parametrize("d", [8, 64])
def test_stacks_stay_within_trial_stack_entries(d):
    """reconstruct hands the oracle at most 4 TRIAL_STACK_ENTRIES entries per
    call, a group of at most four draw blocks, and one matrix at d = 64;
    classify_map first makes reconstruct's calls, then one per group of
    blocks of pairs, which holds that many per side."""
    calls = []
    inner = symmetry_oracle(SymmetryOperator(
        parity=UNITARY, u=haar_unitary(np.random.default_rng(d), d)))
    oracle = DensityMapOracle(
        d, lambda m: calls.append(len(m)) or inner.evaluate_stack(m))
    assert reconstruct(oracle).certified
    size = stack_size(d)
    first = [1] * (d + 2) + group_calls(64, d)
    assert calls == first
    calls.clear()
    trials = 2 * size + 1
    report = classify_map(oracle, trials=trials)
    assert report.preserving
    assert calls == first + [2 * n for n in group_calls(trials, d)]
    assert max(calls) * d * d <= 2 * max(4 * TRIAL_STACK_ENTRIES, size * d * d)


def test_an_oracle_without_evaluate_stack_is_read_in_draw_order():
    """classify_map reads the identity, given one operator at a time through
    from_evaluate, first as reconstruct does, d + 2 probes and 64
    verification inputs, then one trial input at a time in draw order."""
    seen = []
    oracle = DensityMapOracle.from_evaluate(3, lambda a: seen.append(a.matrix.tobytes()) or a)
    assert reconstruct(oracle).certified
    first = seen.copy()
    assert len(first) == 3 + 2 + 64
    seen.clear()
    classify_map(oracle, trials=20)
    drawn = _trial_pairs(np.random.default_rng(0), 3, stack_size(3))[:20].reshape(-1, 3, 3)
    assert seen == first + [x.tobytes() for x in drawn]


def test_evaluate_alone_is_read_once_per_row_in_stack_order():
    """An oracle given by evaluate alone sees one call per matrix, in stack
    order, and a return that is no DensityOperator turns its row away alone."""
    seen = []

    def evaluate(a):
        seen.append(a.trace)
        return None if len(seen) == 2 else a

    m = np.array([t * np.eye(2, dtype=complex) for t in (1.0, 2.0, 3.0, 4.0)])
    images, ok = DensityMapOracle.from_evaluate(2, evaluate).image_stack(m)
    assert seen == [2.0, 4.0, 6.0, 8.0]
    assert ok.tolist() == [True, False, True, True]
    assert np.array_equal(images, np.where(ok[:, None, None], m, 0.0))


def test_an_oracle_is_its_dim_and_one_stack_action():
    assert [f.name for f in dataclasses.fields(DensityMapOracle)] == ["dim", "evaluate_stack"]


def test_evaluate_of_a_from_evaluate_oracle_is_its_stack_row():
    """evaluate is the n = 1 case of the stack action, for an adapted map as
    for any: a read-only complex copy of the function's image, or the NaN
    matrix for a return that is no DensityOperator."""
    a = DensityOperator(matrix=np.diag([0.25, 0.75]))
    image = DensityMapOracle.from_evaluate(2, lambda x: a).evaluate(a)
    assert image.matrix is not a.matrix and image.matrix.dtype == complex
    assert image.matrix.tobytes() == a.matrix.astype(complex).tobytes()
    assert not image.matrix.flags.writeable
    assert np.isnan(DensityMapOracle.from_evaluate(2, lambda x: None).evaluate(a).matrix).all()
