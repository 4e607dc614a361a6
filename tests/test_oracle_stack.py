"""The stacked oracle protocol: every zoo kind's evaluate_stack has the bits
of its evaluate and of the per-matrix map it replaced, image_stack applies
the image rule once per stack and once per row, and classify_map and
reconstruct hand the oracle bounded stacks, stop at the first failing one,
and count probes as a one-matrix-at-a-time loop does."""
import json
import math

import numpy as np
import pytest
from bad_images import BAD_IMAGES, BAD_STACKS
from trial_reference import stack_size

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
    UNITARY,
    DensityMapOracle,
    SymmetryOperator,
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
    **{f"image-{name}": lambda bad=bad: DensityMapOracle(dim=3, evaluate=bad)
       for name, bad in BAD_IMAGES.items()},
    **{f"stack-{name}": lambda bad=bad: DensityMapOracle(
        dim=3, evaluate=lambda a: a, evaluate_stack=bad) for name, bad in BAD_STACKS.items()},
}


@pytest.mark.parametrize("name", IMAGE_ORACLES)
def test_image_is_the_n1_case_of_image_stack(name):
    """image(a) has the bits of the row of image_stack(a.matrix[None]), read
    only, and is None exactly when that row is turned away."""
    oracle = IMAGE_ORACLES[name]()
    stack = _trial_pairs(np.random.default_rng(0), 3, 4).reshape(-1, 3, 3)
    for x in stack:
        out, ok = oracle.image_stack(x[None])
        image = oracle.image(DensityOperator(matrix=x))
        assert (image is None) == (not ok[0])
        if image is not None:
            assert image.matrix.tobytes() == out[0].tobytes()
            assert not image.matrix.flags.writeable


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", KINDS)
def test_a_kind_reports_the_same_bytes_through_evaluate_alone(kind, d):
    """Read a matrix at a time through its evaluate, each zoo kind gives the
    classify_map and reconstruct reports it gives read through evaluate_stack."""
    oracle = oracle_of(kind, d)
    plain = DensityMapOracle(d, evaluate=oracle.evaluate)
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

    return DensityMapOracle.from_stack(3, evaluate_stack)


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
    assert report.probes_used == 7
    assert report.residual_max == math.inf


@pytest.mark.parametrize("bad", BAD_STACKS)
def test_a_bad_stack_return_turns_the_whole_stack_away(bad):
    """An oracle whose evaluate is the identity and whose evaluate_stack
    returns a bad whole: every row is turned away, with no traceback, so
    classify_map's first pair, the first of a full block, is its witness and
    reconstruct rejects its first probe, which is read through the same
    evaluate_stack, not through the identity evaluate."""
    oracle = DensityMapOracle(dim=3, evaluate=lambda a: a, evaluate_stack=BAD_STACKS[bad])
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


def transposing_trial(trial, d, stacked, calls):
    """The identity at d, except that reconstruct's ``trial``-th verification
    input (seed 0) goes to its transpose; ``calls`` records the number of
    matrices in each call to the oracle."""
    rng = np.random.default_rng(1)
    for _ in range(trial):
        a = random_density(rng, d, trace=float(rng.uniform(0.0, 2.0)) or 1.0)
    target = a.matrix.tobytes()

    def one(x):
        return x.T if x.tobytes() == target else x

    if stacked:
        return DensityMapOracle.from_stack(
            d, lambda m: calls.append(len(m)) or np.stack([one(x) for x in m]))
    return DensityMapOracle(
        dim=d, evaluate=lambda a: calls.append(1) or DensityOperator(matrix=one(a.matrix)))


@pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "per_matrix"])
@pytest.mark.parametrize("trial", [1, 16, 17, 20, 64])
def test_probes_used_counts_trials_up_to_the_first_failure(trial, stacked):
    """At d = 8 a stack holds 16 verification inputs. A map that fails at
    trial 20, in the second stack, uses 2d + 20 = 36 probes, as a per-matrix
    loop does, and the oracle sees no stack after the failing one."""
    d = 8
    calls = []
    report = reconstruct(transposing_trial(trial, d, stacked, calls))
    assert report.status == STATUS_FAILED_VERIFICATION
    assert report.probes_used == 2 * d + trial
    assert 1e-3 < report.residual_max < math.inf
    stacks = -(-trial // 16)
    assert calls == [1] * 2 * d + ([16] * stacks if stacked else [1] * 16 * stacks)
    calls.clear()
    other = reconstruct(transposing_trial(trial, d, not stacked, calls))
    assert (other.probes_used, other.residual_max) == (report.probes_used, report.residual_max)


def test_a_certified_map_uses_2d_plus_64_probes_in_four_stacks():
    calls = []
    # only 64 inputs are drawn, so this is the identity
    report = reconstruct(transposing_trial(65, 8, True, calls))
    assert report.status == STATUS_CERTIFIED
    assert report.probes_used == 2 * 8 + 64
    assert calls == [1] * 16 + [16] * 4


@pytest.mark.parametrize("d", [8, 64])
def test_stacks_stay_within_trial_stack_entries(d):
    """reconstruct hands the oracle at most TRIAL_STACK_ENTRIES entries per
    call, one matrix at d = 64; classify_map one block of pairs, which holds
    that many per side."""
    calls = []
    inner = symmetry_oracle(SymmetryOperator(
        parity=UNITARY, u=haar_unitary(np.random.default_rng(d), d)))
    oracle = DensityMapOracle.from_stack(
        d, lambda m: calls.append(len(m)) or inner.evaluate_stack(m))
    assert reconstruct(oracle).certified
    size = stack_size(d)
    assert calls == [1] * 2 * d + [size] * (64 // size)
    calls.clear()
    trials = 2 * size + 1
    report = classify_map(oracle, trials=trials)
    assert report.preserving
    assert calls[:3] == [2 * size, 2 * size, 2]
    assert max(calls) <= 2 * size


def test_an_oracle_without_evaluate_stack_is_read_in_draw_order():
    seen = []
    oracle = DensityMapOracle(dim=3, evaluate=lambda a: seen.append(a.matrix.tobytes()) or a)
    classify_map(oracle, trials=20)
    drawn = _trial_pairs(np.random.default_rng(0), 3, stack_size(3))[:20].reshape(-1, 3, 3)
    assert seen[:40] == [x.tobytes() for x in drawn]
