"""Reconstruction round-trips, parity classification, symmetry distance, and
the normalized-map extension."""
import functools
import json
import math
import tempfile

import numpy as np
import pytest
from adversarial_maps import ADVERSARIAL_MAPS, probe_evading, rank_one_identity
from bad_images import BAD_IMAGES
from trial_reference import reference_expected, reference_inputs

from fidsym.charact import numerical_rank
from fidsym.cli import reconstruction_to_dict
from fidsym.fidelity import fidelity
from fidsym.mapzoo import MapSpec, classify_map, make_map, zoo_specs
from fidsym.matcore import (
    DensityOperator,
    DimensionMismatch,
    hermitize_stack,
    pure_state,
    row_sumsq,
    validate_density,
)
from fidsym.sampling import haar_unitary, random_density, random_pure_state
from fidsym.tolerances import CLASSIFY_TOL
from fidsym.wigner import (
    ANTIUNITARY,
    UNITARY,
    DensityMapOracle,
    STATUS_CERTIFIED,
    STATUS_FAILED_PARITY,
    STATUS_FAILED_PHASE,
    STATUS_FAILED_PROJECTION_PROBE,
    STATUS_FAILED_VERIFICATION,
    ReconstructionReport,
    SymmetryOperator,
    _expected_images,
    _probe_stages,
    _trial_pairs,
    apply_symmetry,
    apply_symmetry_stack,
    block_size,
    extend_normalized,
    reconstruct,
    residual_bound,
    scan,
    symmetry_distance,
    symmetry_oracle,
    violation_bound,
)


def identity_oracle(d):
    return DensityMapOracle.from_evaluate(d, lambda a: a)


def transpose_oracle(d):
    return DensityMapOracle.from_evaluate(
        d, lambda a: DensityOperator.from_psd(a.matrix.T)
    )


def test_reconstruct_identity():
    report = reconstruct(identity_oracle(3))
    assert report.certified
    assert report.symmetry.parity == UNITARY
    assert report.residual_max <= 1e-10
    eye = SymmetryOperator(parity=UNITARY, u=np.eye(3, dtype=complex))
    assert symmetry_distance(report.symmetry, eye) <= 1e-10


def test_reconstruct_transpose_is_antiunitary():
    report = reconstruct(transpose_oracle(2))
    assert report.certified
    assert report.symmetry.parity == ANTIUNITARY
    # the two parity hypothesis states are orthogonal: margin is 1 vs 0
    assert report.parity_margin >= 0.5
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = random_density(rng, 2)
        out = apply_symmetry(report.symmetry, a)
        assert np.linalg.norm(out.matrix - a.matrix.T) <= 1e-10


def test_reconstruct_haar_conjugation():
    u0 = haar_unitary(np.random.default_rng(2024), 4)
    truth = SymmetryOperator(parity=UNITARY, u=u0)
    report = reconstruct(symmetry_oracle(truth))
    assert report.certified
    assert report.symmetry.parity == UNITARY
    assert symmetry_distance(report.symmetry, truth) <= 1e-8


@pytest.mark.parametrize("d", [2, 3, 5, 8])
@pytest.mark.parametrize("parity", [UNITARY, ANTIUNITARY])
def test_round_trip_both_parities(d, parity):
    rng = np.random.default_rng(d * 7 + (parity == ANTIUNITARY))
    truth = SymmetryOperator(parity=parity, u=haar_unitary(rng, d))
    report = reconstruct(symmetry_oracle(truth))
    assert report.certified
    assert report.symmetry.parity == parity
    assert symmetry_distance(report.symmetry, truth) <= 1e-8


def test_gauge_invariance():
    rng = np.random.default_rng(17)
    u = haar_unitary(rng, 3)
    s1 = SymmetryOperator(parity=UNITARY, u=u)
    s2 = SymmetryOperator(parity=UNITARY, u=np.exp(1j * 0.923) * u)
    r1 = reconstruct(symmetry_oracle(s1))
    r2 = reconstruct(symmetry_oracle(s2))
    assert r1.certified and r2.certified
    assert symmetry_distance(r1.symmetry, r2.symmetry) <= 1e-10


def test_certified_maps_preserve_fidelity_and_transition_probabilities():
    rng = np.random.default_rng(31)
    truth = SymmetryOperator(parity=ANTIUNITARY, u=haar_unitary(rng, 3))
    oracle = symmetry_oracle(truth)
    assert reconstruct(oracle).certified
    for _ in range(10):
        a = random_density(rng, 3)
        b = random_density(rng, 3)
        assert abs(fidelity(oracle.evaluate(a), oracle.evaluate(b)) - fidelity(a, b)) <= 1e-8
    for _ in range(10):
        p = random_pure_state(rng, 3).projection()
        q = random_pure_state(rng, 3).projection()
        lhs = np.trace(oracle.evaluate(p).matrix @ oracle.evaluate(q).matrix).real
        rhs = np.trace(p.matrix @ q.matrix).real
        assert abs(lhs - rhs) <= 1e-8


def test_reconstruct_dim_one_defaults_to_unitary():
    report = reconstruct(identity_oracle(1))
    assert report.certified
    assert report.symmetry.parity == UNITARY


def test_apply_symmetry_identity_and_conjugation():
    a = validate_density(np.array([[0.5, 0.5j], [-0.5j, 0.5]]))
    s_u = SymmetryOperator(parity=UNITARY, u=np.eye(2, dtype=complex))
    assert np.allclose(apply_symmetry(s_u, a).matrix, a.matrix)
    s_a = SymmetryOperator(parity=ANTIUNITARY, u=np.eye(2, dtype=complex))
    assert np.allclose(apply_symmetry(s_a, a).matrix, a.matrix.conj())


def test_apply_symmetry_preserves_spectrum_and_trace():
    rng = np.random.default_rng(5)
    a = random_density(rng, 4)
    s = SymmetryOperator(parity=ANTIUNITARY, u=haar_unitary(rng, 4))
    out = apply_symmetry(s, a)
    assert out.trace == pytest.approx(a.trace, abs=1e-9)
    assert np.allclose(
        np.linalg.eigvalsh(out.matrix), np.linalg.eigvalsh(a.matrix), atol=1e-9
    )


def test_symmetry_distance_examples():
    u = haar_unitary(np.random.default_rng(8), 3)
    s = SymmetryOperator(parity=UNITARY, u=u)
    assert symmetry_distance(s, s) == pytest.approx(0.0, abs=1e-12)
    s_phase = SymmetryOperator(parity=UNITARY, u=np.exp(1j * np.pi / 7) * u)
    assert symmetry_distance(s, s_phase) <= 1e-12
    s1 = SymmetryOperator(parity=UNITARY, u=np.eye(2, dtype=complex))
    s2 = SymmetryOperator(parity=UNITARY, u=np.diag([1.0 + 0j, -1.0]))
    assert symmetry_distance(s1, s2) == pytest.approx(2.0)
    s3 = SymmetryOperator(parity=ANTIUNITARY, u=np.eye(2, dtype=complex))
    assert symmetry_distance(s1, s3) == math.inf


def test_extend_normalized_homogeneity():
    d = 2

    def norm_only(a):
        assert abs(a.trace - 1.0) <= 1e-9
        return a

    extended = extend_normalized(DensityMapOracle.from_evaluate(d, norm_only))
    zero = validate_density(np.zeros((d, d)))
    assert extended.evaluate(zero).trace == 0.0
    rho = validate_density(np.diag([0.7, 0.3]))
    doubled = validate_density(2.0 * rho.matrix)
    assert np.allclose(extended.evaluate(doubled).matrix, 2.0 * rho.matrix)


def recording_transpose(seen):
    """A map on unit-trace operators (the transpose) that records the trace
    of each input's matrix."""
    def evaluate(a):
        seen.append(np.trace(a.matrix).real)
        return DensityOperator.from_psd(a.matrix.T)

    return DensityMapOracle.from_evaluate(2, evaluate)


def test_extend_normalized_branches_on_the_matrix_trace():
    """0 -> 0 is decided on the trace of the matrix: a projection built
    directly is mapped, and a zero matrix built directly goes to the zero
    matrix without calling the inner map."""
    seen = []
    extended = extend_normalized(recording_transpose(seen))
    p = pure_state([1.0, 1j]).projection().matrix
    image = extended.evaluate(DensityOperator(matrix=p))
    assert np.allclose(image.matrix, p.T) and abs(image.trace - 1.0) <= 1e-12
    zero = DensityOperator(matrix=np.zeros((2, 2), dtype=complex))
    image = extended.evaluate(zero)
    assert image.trace == 0.0 and image.matrix.tobytes() == zero.matrix.tobytes()
    assert len(seen) == 1


def test_extend_normalized_divides_by_the_matrix_trace():
    """2P built directly reaches the inner map as P and comes back as
    2 P^T, with the image's trace that of its matrix."""
    seen = []
    extended = extend_normalized(recording_transpose(seen))
    p = pure_state([1.0, 1j]).projection().matrix
    image = extended.evaluate(DensityOperator(matrix=2.0 * p))
    assert np.allclose(seen, [1.0])
    assert np.allclose(image.matrix, 2.0 * p.T) and abs(image.trace - 2.0) <= 1e-12


@pytest.mark.parametrize("bad", ["nan", "ones3x4"])
def test_extend_normalized_over_a_bad_oracle_is_rejected(bad):
    """The inner map's image is read through DensityMapOracle.image_stack, so
    a NaN or 3 x 4 one is turned away, as a NaN image of the extension is."""
    extended = extend_normalized(DensityMapOracle.from_evaluate(3, BAD_IMAGES[bad]))
    report = reconstruct(extended)
    assert report.status == STATUS_FAILED_PROJECTION_PROBE
    assert report.probes_used == 1
    assert classify_map(extended, trials=10).worst_violation == math.inf


@pytest.mark.parametrize("d", [2, 3, 8, 32])
@pytest.mark.parametrize("parity", [UNITARY, ANTIUNITARY])
def test_reconstruct_exact_symmetry_without_eigendecomposition(d, parity, monkeypatch):
    """Probe images and verification inputs of an exact symmetry are read
    and drawn without eigh or eigvalsh."""
    truth = SymmetryOperator(parity=parity, u=haar_unitary(np.random.default_rng(d), d))

    def refuse(*args, **kwargs):
        raise AssertionError("eigendecomposition while reconstructing an exact symmetry")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    report = reconstruct(symmetry_oracle(truth))
    assert report.certified and report.symmetry.parity == parity
    assert symmetry_distance(report.symmetry, truth) <= 1e-8


def test_extend_normalized_feeds_reconstruct():
    rng = np.random.default_rng(99)
    u = haar_unitary(rng, 3)
    truth = SymmetryOperator(parity=UNITARY, u=u)

    def restricted(a):
        assert abs(a.trace - 1.0) <= 1e-9
        return apply_symmetry(truth, a)

    extended = extend_normalized(DensityMapOracle.from_evaluate(3, restricted))
    report = reconstruct(extended)
    assert report.certified
    assert symmetry_distance(report.symmetry, truth) <= 1e-8


def test_non_preserving_oracles_never_certify():
    for kind, params in [
        ("depolarizing", {"p": 0.5}),
        ("dephase", {}),
        ("spectral_scramble", {}),
    ]:
        oracle = make_map(MapSpec(kind=kind, dim=3, params=params))
        report = reconstruct(oracle)
        assert not report.certified


def parity_breaking_oracle(d):
    """Identity, except that the parity probe (e_1 + i e_2)/sqrt(2) goes to
    the basis projection e_1, which overlaps both parity hypotheses by 1/2."""
    v = np.zeros(d, dtype=complex)
    v[0], v[1] = 1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)
    probe = np.outer(v, v.conj())
    e1 = validate_density(np.diag([1.0] + [0.0] * (d - 1)))
    return DensityMapOracle.from_evaluate(
        d, lambda a: e1 if np.allclose(a.matrix, probe) else a
    )


# (oracle, status, probes_used, parity_margin) at d = 3. Probe budget:
# 3 basis + 1 phase-fixing + 1 parity + 64 verification. spectral_scramble
# sends every basis probe to e_3 e_3*, so the basis images lie far from the
# columns of their polar factor U, and the map fails after the three basis
# probes. The first trial pair of seed 0 is pure, so rank_one_identity fails
# verification at A_2, the third input.
STATUS_CASES = {
    "certified": (identity_oracle, STATUS_CERTIFIED, 69, 1.0),
    "depolarizing": (
        lambda d: make_map(MapSpec(kind="depolarizing", dim=d, params={"p": 0.5})),
        STATUS_FAILED_PROJECTION_PROBE, 1, 0.0,
    ),
    "spectral_scramble": (
        lambda d: make_map(MapSpec(kind="spectral_scramble", dim=d)),
        STATUS_FAILED_PROJECTION_PROBE, 3, 0.0,
    ),
    "dephase": (
        lambda d: make_map(MapSpec(kind="dephase", dim=d)), STATUS_FAILED_PHASE, 4, 0.0,
    ),
    "parity": (parity_breaking_oracle, STATUS_FAILED_PARITY, 5, 0.0),
    "verification": (rank_one_identity, STATUS_FAILED_VERIFICATION, 3 + 2 + 3, 1.0),
}


@pytest.mark.parametrize("tool", ["reconstruct", "classify_map"])
@pytest.mark.parametrize("case", STATUS_CASES)
def test_image_is_the_only_route_to_the_oracle(case, tool, monkeypatch):
    """Whether the map is certified or fails at any stage, every evaluate
    call is made by DensityMapOracle.image_stack, one per row it reads, in
    stack order."""
    inner = STATUS_CASES[case][0](3)
    evaluated, rows = [], []
    oracle = DensityMapOracle.from_evaluate(3, lambda a: evaluated.append(a) or inner.evaluate(a))
    image_stack = DensityMapOracle.image_stack
    monkeypatch.setattr(DensityMapOracle, "image_stack",
                        lambda self, m: rows.extend(m) or image_stack(self, m))
    if tool == "reconstruct":
        report = reconstruct(oracle)
        assert (report.status, report.probes_used) == STATUS_CASES[case][1:3]
    else:
        classify_map(oracle, trials=20)
    assert [a.matrix.tobytes() for a in evaluated] == [x.tobytes() for x in rows]
    assert len(rows) > 0


def test_non_psd_basis_images_fail_the_first_probe():
    """A -> A - 0.1 (tr A I - 2 diag A) at d = 2 sends e_1 e_1* to
    diag(1.1, -0.1): unit trace, one positive eigenvalue, but rank two, so
    the first basis probe rejects it."""
    oracle = DensityMapOracle(2, lambda m: m - 0.1 * (
        np.trace(m, axis1=-2, axis2=-1)[:, None, None] * np.eye(2) - 2.0 * np.eye(2) * m))
    report = reconstruct(oracle)
    assert report.status == STATUS_FAILED_PROJECTION_PROBE
    assert report.probes_used == 1 and report.residual_max == math.inf


@pytest.mark.parametrize("stacked", [False, True], ids=["per_matrix", "stacked"])
@pytest.mark.parametrize("d", [2, 3, 8])
@pytest.mark.parametrize("case", STATUS_CASES)
def test_the_oracle_receives_read_only_hermitian_matrices(case, d, stacked):
    """Every matrix reconstruct hands the oracle, probe or verification
    input, is read-only and has the bits of its own hermitize_stack. The
    probes are raw outer products vv*, exactly Hermitian as computed since
    every component of a probe vector is purely real or purely imaginary."""
    inner = STATUS_CASES[case][0](d)
    seen = []
    if stacked:
        oracle = DensityMapOracle(d, lambda m: seen.extend(m) or np.stack(
            [inner.evaluate(DensityOperator(matrix=x)).matrix for x in m]))
    else:
        oracle = DensityMapOracle.from_evaluate(d, lambda a: seen.append(a.matrix)
                                  or inner.evaluate(a))
    report = reconstruct(oracle)
    assert len(seen) >= report.probes_used > 0
    for x in seen:
        assert not x.flags.writeable
        assert x.tobytes() == hermitize_stack(x[None])[0].tobytes()


@pytest.mark.parametrize("case", STATUS_CASES)
def test_reconstruct_status_probes_and_margin(case):
    make_oracle, status, probes, margin = STATUS_CASES[case]
    report = reconstruct(make_oracle(3))
    assert report.status == status
    assert report.certified == (status == STATUS_CERTIFIED)
    assert report.probes_used == probes
    assert report.parity_margin == margin
    if status in (STATUS_CERTIFIED, STATUS_FAILED_VERIFICATION):
        assert report.symmetry.parity == UNITARY
        assert report.verification_trials == 64
        bound = 1e-10 if status == STATUS_CERTIFIED else 1e-7
        assert (report.residual_max <= bound) == (status == STATUS_CERTIFIED)
    else:
        assert report.symmetry is None
        assert report.verification_trials == 0
        assert report.residual_max == math.inf


def halving_oracle(d):
    """A -> A / 2: no basis image has unit trace, at any d."""
    return DensityMapOracle(d, lambda m: 0.5 * m)


# (oracle, d, status, probes_used) for each stage that can reject a map, at
# the d where it runs, and the certified identity at d = 1: j + 1 for basis
# probe j, d for the basis images against U's columns ("gram"), d + 1 for
# phase fixing, d + 2 for parity.
STAGE_CASES = {
    **{f"{stage}-d{d}": (make_oracle, d, status, probes(d)) for d in (2, 3, 8)
       for stage, (make_oracle, status, probes) in {
           "basis": (STATUS_CASES["depolarizing"][0], STATUS_FAILED_PROJECTION_PROBE,
                     lambda d: 1),
           "gram": (STATUS_CASES["spectral_scramble"][0], STATUS_FAILED_PROJECTION_PROBE,
                    lambda d: d),
           "phase": (STATUS_CASES["dephase"][0], STATUS_FAILED_PHASE, lambda d: d + 1),
           "parity": (parity_breaking_oracle, STATUS_FAILED_PARITY, lambda d: d + 2),
       }.items()},
    "basis-d1": (halving_oracle, 1, STATUS_FAILED_PROJECTION_PROBE, 1),
    "certified-d1": (identity_oracle, 1, STATUS_CERTIFIED, 65),
}


@pytest.mark.parametrize("case", STAGE_CASES)
def test_each_stage_reports_the_probes_it_read(case):
    """A rejecting stage returns its report with its fixed probe count, and
    the oracle was read exactly that many times, one row per read. At d = 1
    the certified identity reads its one basis probe, then its 64
    verification inputs in one stack."""
    make_oracle, d, status, probes = STAGE_CASES[case]
    inner = make_oracle(d)
    reads = []
    oracle = DensityMapOracle(d, lambda m: reads.append(len(m)) or inner.evaluate_stack(m))
    report = reconstruct(oracle)
    assert (report.status, report.probes_used) == (status, probes)
    if status == STATUS_CERTIFIED:
        assert reads == [1, 64]
    else:
        assert reads == [1] * probes
        assert report.symmetry is None and report.residual_max == math.inf


def parity_image(d, sign, t):
    """vv* for v = cos t e_1 + i sign sin t e_2: it overlaps the unitary
    hypothesis (e_1 + i e_2)/sqrt(2) by (1 + sign sin 2t)/2 and the
    antiunitary one by (1 - sign sin 2t)/2."""
    v = np.zeros(d, dtype=complex)
    v[0], v[1] = math.cos(t), 1j * sign * math.sin(t)
    return np.outer(v, v.conj())


def parity_probe_sent_to(d, sign, t=math.pi / 8):
    """The identity, except that the parity probe (e_1 + i e_2)/sqrt(2) goes
    to parity_image(d, sign, t): at t = pi/8, about 0.54 from the image of
    either hypothesis, far above residual_bound(d)."""
    probe = np.zeros((d, d), dtype=complex)
    probe[:2, :2] = [[0.5, -0.5j], [0.5j, 0.5]]
    image = parity_image(d, sign, t)
    return DensityMapOracle(d, lambda m: np.where(
        np.all(np.isclose(m, probe), axis=(-2, -1))[:, None, None], image, m))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_failed_parity_keeps_the_signed_margin(sign):
    report = reconstruct(parity_probe_sent_to(3, sign))
    assert (report.status, report.probes_used) == (STATUS_FAILED_PARITY, 5)
    assert report.parity_margin == pytest.approx(sign * math.sin(math.pi / 4), abs=1e-12)


def test_scan_reads_the_map_against_its_candidate():
    """For S after a NaN on row 1: one image_stack call of the first 5
    inputs of seed 11's trial pairs, read-only, the last pair cut to its
    first input; with no candidate every residual is inf; with S the
    residuals have the bits of ||phi X - S X||_F, S X computed as
    reference_expected does, and the row that image_stack turns away is
    inf. As phi is apply_symmetry_stack, a mixed row's residual is 0 and a
    pure row's, against (Uv)(Uv)*, is rounding. With no candidate the
    report is the probes' own; with S it is verified up to the first row
    whose residual exceeds residual_bound(d), row 1."""
    d = 3
    s = SymmetryOperator(parity=ANTIUNITARY, u=haar_unitary(np.random.default_rng(11), d))
    rejected = ReconstructionReport(None, math.inf, 1, 0, 0.0, STATUS_FAILED_PROJECTION_PROBE)
    candidate = ReconstructionReport(s, 0.0, d + 2, 0, 0.5, STATUS_FAILED_VERIFICATION)

    def act(m):
        out = apply_symmetry_stack(s, m)
        out[1] = np.nan
        return out

    calls = []
    oracle = DensityMapOracle(d, lambda m: calls.append(len(m)) or act(m))
    [(inputs, images, ok, res, report)] = scan(oracle, rejected, 5, 11)
    assert inputs.tobytes() == reference_inputs(11, d, 5).tobytes()
    assert not inputs.flags.writeable
    assert calls == [5]
    assert ok.tolist() == [True, False, True, True, True]
    assert np.isposinf(res).all() and res.shape == (5,)
    assert report is rejected

    [(_, images, ok, res, report)] = scan(oracle, candidate, 5, 11)
    _, vectors = reference_inputs(11, d, 5, vectors=True)
    expected = np.array([reference_expected(s, DensityOperator(matrix=x), v)
                         for x, v in zip(inputs, vectors)])
    assert res[ok].tobytes() == np.sqrt(row_sumsq(images - expected))[ok].tobytes()
    assert not images[1].any()
    assert res[1] == np.inf
    mixed = np.array([v is None for v in vectors])
    assert not res[ok & mixed].any() and (res[ok] < 1e-15).all()
    assert report == ReconstructionReport(s, math.inf, d + 2 + 2, 5, 0.5,
                                          STATUS_FAILED_VERIFICATION)


@pytest.mark.parametrize("parity", [UNITARY, ANTIUNITARY])
@pytest.mark.parametrize("d", [2, 3, 8, 32, 64])
def test_pure_inputs_are_verified_from_their_vectors(d, parity):
    """_trial_pairs' vectors are those of its pure and orthogonal inputs:
    each such input is hermitize(vv*) bit for bit, and every mixed input has
    a zero row. For a Haar U, the expected image of every pure row is
    exactly Hermitian, has the bits of that row computed alone, and lies
    within 1e-14 of apply_symmetry_stack's image of the same input; a mixed
    row has apply_symmetry_stack's bits."""
    s = SymmetryOperator(parity=parity, u=haar_unitary(np.random.default_rng(d), d))
    size = block_size(d)
    pairs, vectors = _trial_pairs(np.random.default_rng(7), d, size, 16 // size + 1)
    inputs, vectors = pairs.reshape(-1, d, d), vectors.reshape(-1, d)
    assert not vectors.flags.writeable
    pure = vectors.any(axis=-1)
    assert 0 < pure.sum() < len(inputs)
    for x, v in zip(inputs[pure], vectors[pure]):
        assert hermitize_stack(np.outer(v, v.conj())[None])[0].tobytes() == x.tobytes()

    expected = _expected_images(s, inputs, vectors)
    full = apply_symmetry_stack(s, inputs)
    assert expected[~pure].tobytes() == full[~pure].tobytes()
    for k in np.flatnonzero(pure):
        e = expected[k]
        assert (e == e.conj().T).all()
        assert _expected_images(s, inputs[k:k + 1], vectors[k:k + 1])[0].tobytes() == e.tobytes()
        assert np.linalg.norm(e - full[k]) <= 1e-14


def embedding_oracle(d):
    """A -> VAV* for an isometry V of shape (d + 1) x d: every probe image is
    a rank-one projection, one dimension too large."""
    v = haar_unitary(np.random.default_rng(d), d + 1)[:, :d]
    return DensityMapOracle.from_evaluate(
        d, lambda a: DensityOperator.from_psd(v @ a.matrix @ v.conj().T)
    )


def constant_oracle_2x2():
    """A d = 1 oracle whose every image is the 2 x 2 projection onto e_1."""
    e1 = validate_density(np.diag([1.0, 0.0]))
    return DensityMapOracle.from_evaluate(1, lambda a: e1)


def tiny_projection_oracle(d):
    """Images 1e-9 vv* for the input vv*, built directly."""
    return DensityMapOracle.from_evaluate(
        d, lambda a: DensityOperator(matrix=1e-9 * a.matrix)
    )


def overflowing_oracle():
    """A -> A + 1e150 (e_1 e_2* + e_2 e_1*) at d = 3: finite images, which
    image_stack keeps, and the first one, of unit trace, has a power-step
    vector P(P e_1) whose norm overflows."""
    kick = np.zeros((3, 3), dtype=complex)
    kick[0, 1] = kick[1, 0] = 1e150
    return DensityMapOracle(3, lambda m: m + kick)


def huge_oracle():
    """A -> 1e150 A at d = 3: finite images, far from any projection."""
    return DensityMapOracle(3, lambda m: 1e150 * m)


HUGE_ORACLES = {"overflow": overflowing_oracle, "1e150A": huge_oracle}


@pytest.mark.parametrize("oracle", [
    embedding_oracle(1), embedding_oracle(2), embedding_oracle(3),
    constant_oracle_2x2(), tiny_projection_oracle(1), tiny_projection_oracle(3),
    *(DensityMapOracle.from_evaluate(3, bad) for bad in BAD_IMAGES.values()),
    *(make() for make in HUGE_ORACLES.values()),
], ids=["embed1", "embed2", "embed3", "const2x2", "tiny1", "tiny3", *BAD_IMAGES, *HUGE_ORACLES])
def test_reconstruct_rejects_images_of_the_wrong_dimension_or_trace(oracle):
    report = reconstruct(oracle)
    assert report.status == STATUS_FAILED_PROJECTION_PROBE
    assert report.probes_used == 1
    assert report.symmetry is None


@pytest.mark.parametrize("make", HUGE_ORACLES.values(), ids=HUGE_ORACLES)
def test_classify_map_rejects_huge_probe_images_without_a_warning(make):
    """The suite turns a RuntimeWarning, such as an overflowing norm, into an
    error: classify_map's probes reject the map after one probe."""
    report = classify_map(make(), trials=10).reconstruction
    assert (report.status, report.probes_used) == (STATUS_FAILED_PROJECTION_PROBE, 1)


def memmap_copy(m):
    out = np.memmap(tempfile.TemporaryFile(), dtype=m.dtype, mode="w+", shape=m.shape)
    out[:] = m
    return out


@pytest.mark.parametrize("wrap", [memmap_copy, np.ma.masked_array], ids=["memmap", "masked"])
def test_memmap_and_masked_images_of_a_symmetry_certify(wrap):
    """Of the ndarray subclasses only np.matrix is turned away: the transpose
    map, with each image a memmap or a masked array, certifies, and
    classifies as preserving with a worst violation within CLASSIFY_TOL / 2."""
    oracle = DensityMapOracle.from_evaluate(3, lambda a: DensityOperator(matrix=wrap(a.matrix.T)))
    report = reconstruct(oracle)
    assert report.certified and report.symmetry.parity == ANTIUNITARY
    c = classify_map(oracle, trials=20)
    assert c.preserving and c.reconstruction.certified
    assert c.worst_violation <= CLASSIFY_TOL / 2


def test_dimension_mismatch_raises():
    s = SymmetryOperator(parity=UNITARY, u=np.eye(2, dtype=complex))
    t = SymmetryOperator(parity=UNITARY, u=np.eye(3, dtype=complex))
    with pytest.raises(DimensionMismatch, match="dimension mismatch: 2 vs 3"):
        apply_symmetry(s, validate_density(np.eye(3)))
    with pytest.raises(DimensionMismatch, match="dimension mismatch: 2 vs 3"):
        symmetry_distance(s, t)


@pytest.mark.parametrize("trials", [0, -1])
def test_reconstruct_rejects_bad_trials_before_probing(trials):
    """Unchecked, a trial count below one certifies with no trial run."""
    calls = []
    inner = rank_one_identity(3)
    oracle = DensityMapOracle.from_evaluate(3, lambda a: calls.append(a) or inner.evaluate(a))
    with pytest.raises(ValueError, match="verification_trials"):
        reconstruct(oracle, verification_trials=trials)
    assert calls == []


@pytest.mark.parametrize("trials", [64.0, 2.5, True, "64", None])
def test_reconstruct_rejects_a_trial_count_that_is_no_integer_before_probing(trials):
    """A float, even an integral one, or a bool is no trial count: a
    ValueError before the oracle is read, not a TypeError from range, nor a
    report certified on verification_trials=True."""
    calls = []
    oracle = DensityMapOracle(3, lambda m: calls.append(m) or m)
    with pytest.raises(ValueError, match="verification_trials must be an integer, got"):
        reconstruct(oracle, verification_trials=trials)
    assert calls == []


def test_reconstruct_reads_a_numpy_integer_trial_count_as_its_int():
    """The report of np.int64(7) trials is that of 7, down to its JSON."""
    oracle = symmetry_oracle(SymmetryOperator(UNITARY, haar_unitary(np.random.default_rng(2), 3)))
    report = reconstruct(oracle, verification_trials=np.int64(7))
    assert type(report.verification_trials) is int
    assert (json.dumps(reconstruction_to_dict(report))
            == json.dumps(reconstruction_to_dict(reconstruct(oracle, verification_trials=7))))


@pytest.mark.parametrize("dim", [0, -1, 2.5, 2.0, True, "2", None])
def test_oracle_needs_positive_dim(dim):
    """A dim below 1 or no integer, a bool or a float included, fails at
    construction, not later in reconstruct."""
    with pytest.raises(ValueError, match=rf"^dim must be (>= 1|an integer), got {dim!r}$"):
        DensityMapOracle.from_evaluate(dim, lambda a: a)


def test_oracle_accepts_a_numpy_integer_dim():
    assert reconstruct(DensityMapOracle(np.int64(3), lambda m: m)).certified


@pytest.mark.parametrize("seed, message", [
    (1.5, "an integer, got 1.5"), (True, "an integer, got True"), ("3", "an integer, got '3'"),
    (None, "an integer, got None"), (-1, ">= 0, got -1")])
def test_reconstruct_rejects_a_bad_seed_before_probing(seed, message):
    """A seed that is no integer or is negative is a ValueError naming it,
    before any oracle read: not numpy's TypeError or ValueError after the
    probes, nor a run on seed 1 for True."""
    calls = []
    oracle = DensityMapOracle(3, lambda m: calls.append(m) or m)
    with pytest.raises(ValueError, match=f"^seed must be {message}$"):
        reconstruct(oracle, seed=seed)
    assert calls == []


@pytest.mark.parametrize("parity", ["Antiunitary", "", None, "u"])
def test_symmetry_operator_rejects_an_unknown_parity(parity):
    """A parity that is neither UNITARY nor ANTIUNITARY is no symmetry, not
    one read as unitary."""
    with pytest.raises(ValueError, match=f"^parity must be 'unitary' or 'antiunitary', got {parity!r}$"):
        SymmetryOperator(parity, np.eye(2, dtype=complex))


@pytest.mark.parametrize("u", [np.eye(2, 3), np.eye(2)[0], np.ones((2, 2, 2)), 1.0])
def test_symmetry_operator_rejects_a_u_that_is_no_square_matrix(u):
    with pytest.raises(ValueError, match=r"^u must be a square 2-D array, got shape \("):
        SymmetryOperator(UNITARY, u)


def nan_oracle(d, where, fill=np.nan):
    """Identity, except that an input ``where`` picks goes to an image whose
    every entry is ``fill`` (NaN by default)."""
    bad = np.full((d, d), fill, dtype=complex)
    return DensityMapOracle.from_evaluate(
        d, lambda a: DensityOperator(matrix=bad) if where(a) else a
    )


@pytest.mark.parametrize("fill", [np.nan, np.inf])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_reconstruct_rejects_an_all_nan_probe_image(d, fill):
    report = reconstruct(nan_oracle(d, lambda a: True, fill))
    assert report.status == STATUS_FAILED_PROJECTION_PROBE
    assert report.probes_used == 1
    assert report.symmetry is None
    assert report.residual_max == math.inf


@pytest.mark.parametrize("d, probes", [(2, 4), (3, 5)])
def test_reconstruct_rejects_a_nan_parity_image(d, probes):
    """Only the i-superposition has a matrix with imaginary entries."""
    report = reconstruct(nan_oracle(d, lambda a: np.any(a.matrix.imag != 0.0)))
    assert report.status == STATUS_FAILED_PARITY
    assert report.probes_used == probes
    assert report.symmetry is None


def test_nan_verification_residual_fails_verification():
    """Every probe passes; the first verification input of rank >= 2, the
    third, has an all-NaN image, whose NaN residual must not certify."""
    report = reconstruct(nan_oracle(3, lambda a: numerical_rank(a) > 1))
    assert report.status == STATUS_FAILED_VERIFICATION
    assert report.probes_used == 3 + 2 + 3
    assert report.symmetry.parity == UNITARY
    assert report.residual_max == math.inf


def ones_image(shape):
    return lambda a: DensityOperator(matrix=np.ones(shape, dtype=complex))


@pytest.mark.parametrize("bad", [
    ones_image((1, 1)), ones_image((3, 1)), ones_image((2, 2)), ones_image((4, 4)),
    *BAD_IMAGES.values(),
], ids=["1x1", "3x1", "2x2", "4x4", *BAD_IMAGES])
def test_verification_image_of_the_wrong_shape_fails_verification(bad):
    """Every probe passes at d = 3; the first verification input of rank >= 2,
    the third, goes to a bad image, which is neither broadcast against the
    expected matrix nor allowed to raise or to leave a finite residual."""
    oracle = DensityMapOracle.from_evaluate(
        3, lambda a: a if numerical_rank(a) == 1 else bad(a)
    )
    report = reconstruct(oracle)
    assert report.status == STATUS_FAILED_VERIFICATION
    assert report.probes_used == 3 + 2 + 3
    assert report.symmetry.parity == UNITARY
    assert report.residual_max == math.inf


def depolarized_oracle(truth, eps):
    """phi_eps(A) = (1 - eps) truth(A) + eps tr(A) I/d."""
    d = truth.dim

    def evaluate(a):
        t = a.matrix.diagonal().real.sum()
        return DensityOperator.from_psd(
            (1.0 - eps) * apply_symmetry(truth, a).matrix + eps * t * np.eye(d) / d
        )

    return DensityMapOracle.from_evaluate(d, evaluate)


@pytest.mark.parametrize("family", ["block_conjugate", "block_transpose"])
@pytest.mark.parametrize("parity", [UNITARY, ANTIUNITARY])
@pytest.mark.parametrize("d", [3, 4, 8])
def test_verification_rejects_maps_that_pass_every_probe(d, parity, family):
    """The basis, phase-fixing and parity probes cannot tell these maps from
    a symmetry; the random verification inputs can, at the first trial."""
    report = reconstruct(probe_evading(family, d, parity))
    assert report.status == STATUS_FAILED_VERIFICATION
    assert report.symmetry is not None
    assert report.probes_used == d + 3
    assert report.residual_max > 1e-3


@pytest.mark.parametrize("parity", [UNITARY, ANTIUNITARY])
@pytest.mark.parametrize("d", [3, 4, 8])
def test_a_schur_phase_fails_the_phase_probe(d, parity):
    """S o A sends the uniform probe ss* = J/d to the image of S/d, which is
    of rank above one since S_jk is not of the form exp(i(t_j - t_k)): the
    map passes the d basis probes and fails the phase probe after them."""
    report = reconstruct(probe_evading("schur_phase", d, parity))
    assert report.status == STATUS_FAILED_PHASE
    assert report.symmetry is None
    assert report.probes_used == d + 1
    assert report.residual_max == math.inf


@pytest.mark.parametrize("eps", [0.0, 1e-14])
@pytest.mark.parametrize("parity", [UNITARY, ANTIUNITARY])
@pytest.mark.parametrize("d", [3, 4, 8])
def test_symmetries_and_near_symmetries_still_certify(d, parity, eps):
    """An exact symmetry, and one depolarized by eps = 1e-14, whose
    residuals of at most 2 eps, with rounding, stay below residual_bound(8)
    = 4.4e-14, certify."""
    truth = SymmetryOperator(parity=parity, u=haar_unitary(np.random.default_rng(d + 40), d))
    report = reconstruct(depolarized_oracle(truth, eps))
    assert report.certified
    assert report.symmetry.parity == parity
    assert symmetry_distance(report.symmetry, truth) <= 1e-8


@pytest.mark.parametrize("trials", [1, 64])
@pytest.mark.parametrize("d", [1, 2, 3, 8, 32])
def test_probe_budget_of_a_certified_symmetry(d, trials):
    """d basis + 1 phase-fixing + 1 parity probe (none at d = 1), then the
    verification trials."""
    truth = SymmetryOperator(parity=UNITARY, u=haar_unitary(np.random.default_rng(d), d))
    report = reconstruct(symmetry_oracle(truth), verification_trials=trials)
    assert report.certified
    assert report.probes_used == (1 if d == 1 else d + 2) + trials


@pytest.mark.parametrize("kind, parity", [("identity", UNITARY), ("transpose", ANTIUNITARY)])
@pytest.mark.parametrize("d", [2, 3, 8, 32, 64])
def test_identity_and_transpose_reconstruct_exactly(d, kind, parity):
    """Each column is an exact basis image times a unit phase, and the uniform
    probe gives every column the phase 1: U is the identity bit for bit, so
    every verification residual is exactly zero."""
    report = reconstruct(make_map(MapSpec(kind=kind, dim=d)))
    assert report.certified and report.symmetry.parity == parity
    assert report.symmetry.u.tobytes() == np.eye(d, dtype=complex).tobytes()
    assert report.residual_max == 0.0


def uniform_probe(d):
    """ss* for s = (e_1 + ... + e_d)/sqrt(d), as reconstruct computes it."""
    s = np.full(d, 1.0 / math.sqrt(d), dtype=complex)
    return np.outer(s, s.conj())


def uniform_image(d, offset):
    """The rank-one projection tt*, t real and unit with t_1 = 1/sqrt(d) +
    offset and the other components equal."""
    t = np.empty(d)
    t[0] = 1.0 / math.sqrt(d) + offset
    t[1:] = math.sqrt((1.0 - t[0] ** 2) / (d - 1))
    return np.outer(t, t).astype(complex)


def off_on_the_uniform_probe(d, offset):
    """The identity, except that the uniform probe goes to
    uniform_image(d, offset)."""
    image = DensityOperator(matrix=uniform_image(d, offset))
    probe = uniform_probe(d).tobytes()
    return DensityMapOracle.from_evaluate(
        d, lambda a: image if a.matrix.tobytes() == probe else a)


@pytest.mark.parametrize("d", [2, 3, 8, 64])
def test_an_overlap_off_one_over_sqrt_d_fails_the_phase_probe(d):
    """An image of the uniform probe that is a rank-one projection tt*, but
    has t_1 1e-6 away from 1/sqrt(d), far more than residual_bound(d) from
    ss*, is rejected right after it, after the d basis probes and itself;
    residual_bound(d) / 4 away, a residual of about residual_bound(d) / 3,
    it passes, and the map, the identity elsewhere, certifies as U = I."""
    report = reconstruct(off_on_the_uniform_probe(d, 1e-6))
    assert report.status == STATUS_FAILED_PHASE
    assert report.probes_used == d + 1
    assert report.symmetry is None and report.residual_max == math.inf
    report = reconstruct(off_on_the_uniform_probe(d, residual_bound(d) / 4))
    assert report.certified and report.probes_used == d + 2 + 64
    assert report.symmetry.u.tobytes() == np.eye(d, dtype=complex).tobytes()


@pytest.mark.parametrize("d", [2, 3, 8])
def test_a_zero_image_of_the_uniform_probe_fails_the_phase_probe(d):
    """The identity, except that the uniform probe goes to 0: its image has
    no top vector, so phase fixing rejects the map after d + 1 probes."""
    probe = uniform_probe(d).tobytes()
    zero = DensityOperator(matrix=np.zeros((d, d), dtype=complex))
    report = reconstruct(DensityMapOracle.from_evaluate(
        d, lambda a: zero if a.matrix.tobytes() == probe else a))
    assert (report.status, report.probes_used) == (STATUS_FAILED_PHASE, d + 1)
    assert report.symmetry is None and report.residual_max == math.inf


@pytest.mark.parametrize("d", [2, 3, 8])
def test_the_probe_schedule(d):
    """A recording oracle sees e_1 e_1*, ..., e_d e_d*, then ss*, then the
    i-superposition (e_1 + i e_2)/sqrt(2), each one read-only and exactly
    Hermitian, then the 64 verification inputs."""
    seen = []
    oracle = DensityMapOracle(d, lambda m: seen.extend(m) or m.copy())
    assert reconstruct(oracle).certified
    w = np.zeros(d, dtype=complex)
    w[:2] = [1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)]
    probes = [np.outer(e, e) for e in np.eye(d, dtype=complex)]
    probes += [uniform_probe(d), np.outer(w, w.conj())]
    assert len(seen) == d + 2 + 64
    for x, want in zip(seen, probes):
        assert x.tobytes() == want.tobytes()
    assert np.array(seen[d + 2:]).tobytes() == reference_inputs(0, d, 64).tobytes()
    for x in seen:
        assert not x.flags.writeable
        assert np.array_equal(x, x.conj().T)


def test_probe_stages_certify_nothing():
    """The probes return a rejecting report, or the candidate's report
    before verification, with its probe count and parity margin: only the
    verification that follows certifies."""
    assert _probe_stages(halving_oracle(3)).symmetry is None
    report = _probe_stages(identity_oracle(3))
    assert report.symmetry.u.tobytes() == np.eye(3, dtype=complex).tobytes()
    assert (report.symmetry.parity, report.probes_used, report.parity_margin) == (UNITARY, 5, 1.0)
    assert (report.residual_max, report.verification_trials, report.status) == (
        0.0, 0, STATUS_FAILED_VERIFICATION)


# every zoo kind at d = 1, 2, 3 and 8 and every adversarial row, by name
ONLY_THE_SCAN_CERTIFIES = {
    **{f"zoo-{spec.kind}-d{d}": (functools.partial(make_map, spec), True)
       for d in (1, 2, 3, 8) for spec in zoo_specs(d)},
    **{f"adversarial-{name}": (row.build, row.verdict is not None)
       for name, row in ADVERSARIAL_MAPS.items()},
}


@pytest.mark.parametrize("name", ONLY_THE_SCAN_CERTIFIES)
def test_only_the_scan_certifies(name):
    """No map is certified by its probes alone. A certified reconstruction
    counts the inputs it was verified on, after its d + 2 probes (1 at
    d = 1), and a certified classification's reconstruction the 2 trials
    inputs it scored. The rows of reconstruct alone are not classified, nor
    is d = 1, where classification is undefined."""
    build, classified = ONLY_THE_SCAN_CERTIFIES[name]
    oracle = build()
    d = oracle.dim
    assert not _probe_stages(oracle).certified
    for n, seed in ((1, 0), (7, 3), (64, 1)):
        rec = reconstruct(oracle, n, seed)
        if rec.certified:
            assert (rec.verification_trials, rec.probes_used) == (n, (d + 2 if d >= 2 else 1) + n)
    if classified and d >= 2:
        report = classify_map(oracle, trials=40, seed=2)
        if report.preserving:
            assert report.reconstruction.verification_trials == 2 * report.trials


def rank_two_basis_image(d, a):
    """The identity, except that e_1 e_1* goes to (1 - a) e_1 e_1* + a e_2 e_2*,
    of rank two, and its expected image, e_1 e_1*."""
    expected = np.zeros((d, d), dtype=complex)
    expected[0, 0] = 1.0
    image = (1.0 - a) * expected
    image[1, 1] = a
    return DensityMapOracle(d, lambda m: np.where(
        np.all(m == expected, axis=(-2, -1))[:, None, None], image, m)), image, expected


# (builder of the oracle whose image of one probe is moved by a parameter,
# with that image and its expected image under U = I; the stage's status
# and probe count) at d = 3
BOUNDARY_CASES = {
    "basis": (rank_two_basis_image, STATUS_FAILED_PROJECTION_PROBE, 1),
    "phase": (lambda d, a: (off_on_the_uniform_probe(d, a), uniform_image(d, a),
                            uniform_probe(d)), STATUS_FAILED_PHASE, 4),
    "parity": (lambda d, a: (parity_probe_sent_to(d, 1.0, math.pi / 4 - a),
                             parity_image(d, 1.0, math.pi / 4 - a),
                             parity_image(d, 1.0, math.pi / 4)), STATUS_FAILED_PARITY, 5),
}


@pytest.mark.parametrize("case", BOUNDARY_CASES)
def test_each_probe_passes_by_the_verification_rule(case):
    """The identity, except on one probe, whose image is moved to a residual
    ||P - S(vv*)||_F against the image S(vv*) that the identity gives it: just
    below residual_bound(d), verification's rule, the map certifies as
    U = I; just above, that probe's stage rejects it with its fixed probe
    count. Just is 3% here: the rounding of a residual near 7e-14 moves it
    by up to 0.5% of the bound."""
    build, status, probes = BOUNDARY_CASES[case]
    d = 3
    bound = residual_bound(d)
    _, image, expected = build(d, 1e-9)
    slope = np.linalg.norm(image - expected) / 1e-9  # of the residual, nearly linear here
    for side in (0.97, 1.03):
        oracle, image, expected = build(d, side * bound / slope)
        residual = np.linalg.norm(image - expected)
        assert (residual <= bound) == (side < 1.0)
        assert abs(residual / bound - 1.0) <= 0.04
        report = reconstruct(oracle)
        if side < 1.0:
            assert report.certified and report.probes_used == d + 2 + 64
            assert report.symmetry.u.tobytes() == np.eye(d, dtype=complex).tobytes()
        else:
            assert (report.status, report.probes_used) == (status, probes)


def test_the_rule_is_the_largest_residual_that_classify_tol_bounds():
    """At every d in 1..64, residual_bound(d) is the largest residual whose
    violation_bound at traces (2, 2), the largest trace a random input
    has, is within CLASSIFY_TOL; about CLASSIFY_TOL^2 / (8 sqrt(d))."""
    traces = np.array([[2.0, 2.0]])
    for d in range(1, 65):
        delta = residual_bound(d)
        assert violation_bound(d, np.array([[delta, delta]]), traces)[0] <= CLASSIFY_TOL
        above = np.nextafter(delta, 1.0)
        assert violation_bound(d, np.array([[above, above]]), traces)[0] > CLASSIFY_TOL
        assert delta == pytest.approx(CLASSIFY_TOL ** 2 / (8.0 * math.sqrt(d)), rel=1e-6)
