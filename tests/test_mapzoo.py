"""Map zoo generators, the fidelity-preservation classifier, and the theorem
harness."""
import dataclasses
import json
import math

import numpy as np
import pytest
from adversarial_maps import depolarized_off_the_probes
from bad_images import BAD_IMAGES
from trial_reference import group_calls, reference_trial_pairs, stack_size

from fidsym import mapzoo
from fidsym.cli import classification_to_dict, reconstruction_to_dict
from fidsym.fidelity import fidelity, fidelity_stack
from fidsym.mapzoo import (
    ALL_KINDS,
    PRESERVING_KINDS,
    AssertionFailure,
    BadSpec,
    MapSpec,
    classify_map,
    json_grid,
    json_number,
    make_map,
    verify_theorem,
    zoo_specs,
)
from fidsym.matcore import DensityOperator, pure_state, validate_density
from fidsym.sampling import haar_unitary, random_density
from fidsym.tolerances import TRACE_TOL
from fidsym.wigner import (
    VERIFICATION_TRIALS,
    DensityMapOracle,
    SymmetryOperator,
    _trial_pairs,
    reconstruct,
    symmetry_distance,
    symmetry_oracle,
)


def test_identity_map():
    oracle = make_map(MapSpec(kind="identity", dim=3))
    a = random_density(np.random.default_rng(0), 3)
    assert np.allclose(oracle.evaluate(a).matrix, a.matrix)


def test_depolarizing_on_basis_projection():
    oracle = make_map(MapSpec(kind="depolarizing", dim=2, params={"p": 0.5}))
    out = oracle.evaluate(pure_state(np.eye(2)[0]).projection())
    assert np.allclose(out.matrix, np.diag([0.75, 0.25]))


@pytest.mark.parametrize("d", [2, 3])
def test_full_replacement_sends_a_direct_projection_to_the_target(d):
    """At p = 1 depolarizing and mix send a unit projection, built directly,
    to I/d and sigma: the trace they scale by is the matrix's."""
    p = DensityOperator(matrix=pure_state(np.arange(1.0, d + 1)).projection().matrix)
    depolarize = make_map(MapSpec(kind="depolarizing", dim=d, params={"p": 1.0}))
    assert np.allclose(depolarize.evaluate(p).matrix, np.eye(d) / d, atol=1e-15)
    sigma = np.diag(np.arange(1.0, d + 1)) / (d * (d + 1) / 2)
    mix = make_map(MapSpec(kind="mix", dim=d, params={"p": 1.0, "sigma_re": sigma.tolist()}))
    assert np.allclose(mix.evaluate(p).matrix, sigma, atol=1e-15)


def test_transpose_map():
    oracle = make_map(MapSpec(kind="transpose", dim=2))
    a = validate_density(np.array([[0.5, 0.5j], [-0.5j, 0.5]]))
    assert np.allclose(oracle.evaluate(a).matrix, a.matrix.conj())


def test_dephase_map():
    oracle = make_map(MapSpec(kind="dephase", dim=2))
    p = pure_state([1.0, 1.0]).projection()
    assert np.allclose(oracle.evaluate(p).matrix, np.diag([0.5, 0.5]))


def test_spectral_scramble_map():
    oracle = make_map(MapSpec(kind="spectral_scramble", dim=2))
    p = pure_state([1.0, 1.0]).projection()
    assert np.allclose(oracle.evaluate(p).matrix, np.diag([1.0, 0.0]), atol=1e-12)


def test_bad_specs():
    with pytest.raises(BadSpec):
        make_map(MapSpec(kind="depolarizing", dim=2, params={"p": 1.5}))
    with pytest.raises(BadSpec):
        make_map(MapSpec(kind="nope", dim=2))
    with pytest.raises(BadSpec):
        make_map(MapSpec(kind="unitary", dim=2, params={"re": [[1, 0], [0, 2]]}))
    with pytest.raises(BadSpec, match="^dim must be >= 1, got 0$"):
        make_map(MapSpec(kind="identity", dim=0))
    with pytest.raises(BadSpec, match=r"mix p = -0.1 out of \[0, 1\]"):
        make_map(MapSpec(kind="mix", dim=2, params={"p": -0.1}))


@pytest.mark.parametrize("trials", [0, -3])
def test_classify_needs_a_trial(trials):
    with pytest.raises(BadSpec, match=f"trials must be >= 1, got {trials}"):
        classify_map(make_map(MapSpec("identity", 2)), trials=trials)


@pytest.mark.parametrize("trials", [2.5, 64.0, True, "3", None])
@pytest.mark.parametrize("kind", ["unitary", "depolarizing"])
def test_classify_rejects_a_trial_count_that_is_no_integer_before_probing(kind, trials):
    """A float, even an integral one, or a bool is no trial count: BadSpec
    before the oracle is read, for a preserving map (which would otherwise
    be scanned on its least count) and a rejected one (which would reach
    range) alike."""
    calls = []
    inner = make_map(MapSpec(kind, 3))
    oracle = DensityMapOracle(3, lambda m: calls.append(m) or inner.evaluate_stack(m))
    with pytest.raises(BadSpec, match="trials must be an integer, got"):
        classify_map(oracle, trials=trials)
    assert calls == []


def test_verify_theorem_rejects_a_trial_count_that_is_no_integer():
    with pytest.raises(BadSpec, match="trials must be an integer, got 2.5"):
        verify_theorem(2, trials=2.5)


@pytest.mark.parametrize("kind", ["unitary", "depolarizing"])
def test_classify_rejects_a_bad_seed_before_probing(kind):
    """A seed that is no integer or is negative is BadSpec naming it, before
    any oracle read, as verify_theorem's is."""
    calls = []
    inner = make_map(MapSpec(kind, 3))
    oracle = DensityMapOracle(3, lambda m: calls.append(m) or inner.evaluate_stack(m))
    for seed, message in [(1.5, "an integer, got 1.5"), (True, "an integer, got True"),
                          ("3", "an integer, got '3'"), (-1, ">= 0, got -1")]:
        with pytest.raises(BadSpec, match=f"^seed must be {message}$"):
            classify_map(oracle, 10, seed=seed)
        with pytest.raises(BadSpec, match=f"^seed must be {message}$"):
            verify_theorem(2, 10, seed=seed)
    assert calls == []


@pytest.mark.parametrize("kind", ["unitary", "depolarizing"])
def test_classify_reads_a_numpy_integer_trial_count_as_its_int(kind):
    oracle = make_map(MapSpec(kind, 2))
    got = classification_to_dict(classify_map(oracle, trials=np.int64(40)))
    assert json.dumps(got) == json.dumps(classification_to_dict(classify_map(oracle, trials=40)))


def test_depolarizing_witness_value():
    # the canonical discriminating pair: orthogonal basis projections
    oracle = make_map(MapSpec(kind="depolarizing", dim=2, params={"p": 0.5}))
    p = pure_state(np.eye(2)[0]).projection()
    q = pure_state(np.eye(2)[1]).projection()
    assert fidelity(p, q) == pytest.approx(0.0, abs=1e-12)
    image_f = fidelity(oracle.evaluate(p), oracle.evaluate(q))
    assert image_f == pytest.approx(2 * np.sqrt(0.75 * 0.25), abs=1e-10)


def test_dephase_plus_minus_pair():
    oracle = make_map(MapSpec(kind="dephase", dim=2))
    p = pure_state([1.0, 1.0]).projection()
    q = pure_state([1.0, -1.0]).projection()
    assert fidelity(p, q) == pytest.approx(0.0, abs=1e-10)
    assert fidelity(oracle.evaluate(p), oracle.evaluate(q)) == pytest.approx(1.0, abs=1e-10)


def test_classify_depolarizing_rejected():
    oracle = make_map(MapSpec(kind="depolarizing", dim=2, params={"p": 0.5}))
    report = classify_map(oracle, trials=100, seed=1)
    assert not report.preserving
    assert report.worst_violation >= 0.86
    assert report.witness_pair is not None
    a, b = report.witness_pair
    replay = abs(fidelity(oracle.evaluate(a), oracle.evaluate(b)) - fidelity(a, b))
    assert replay == pytest.approx(report.worst_violation, abs=1e-12)


def test_classify_unitary_certified():
    oracle = make_map(MapSpec(kind="unitary", dim=4, params={"seed": 5}))
    report = classify_map(oracle, trials=200, seed=3)
    assert report.preserving
    assert report.reconstruction is not None
    assert report.reconstruction.certified


def test_classify_depolarizing_p0_is_identity():
    oracle = make_map(MapSpec(kind="depolarizing", dim=2, params={"p": 0.0}))
    report = classify_map(oracle, trials=100, seed=0)
    assert report.preserving


def test_trace_scaling_consistency():
    rng = np.random.default_rng(6)
    for kind, params in [
        ("identity", {}),
        ("unitary", {"seed": 1}),
        ("antiunitary", {"seed": 2}),
        ("transpose", {}),
        ("depolarizing", {"p": 0.3}),
        ("mix", {"p": 0.3, "seed": 4}),
        ("dephase", {}),
        ("spectral_scramble", {}),
    ]:
        oracle = make_map(MapSpec(kind=kind, dim=3, params=params))
        a = random_density(rng, 3)
        scaled = validate_density(1.7 * a.matrix)
        lhs = oracle.evaluate(scaled).matrix
        rhs = 1.7 * oracle.evaluate(a).matrix
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * (1 + np.linalg.norm(rhs)), kind


def test_verify_theorem_d2():
    summary = verify_theorem(2, trials=200, seed=42)
    by_kind = {r["kind"]: r for r in summary["results"]}
    for kind in ("identity", "unitary", "antiunitary", "transpose"):
        assert by_kind[kind]["preserving"]
    for kind in ("depolarizing", "mix", "dephase", "spectral_scramble"):
        assert not by_kind[kind]["preserving"]


def test_verify_theorem_rejects_d1():
    with pytest.raises(BadSpec):
        verify_theorem(1)


def test_verify_theorem_needs_the_witness_of_a_rejection(monkeypatch):
    """A non-preserving kind must be rejected with a witness pair: the
    rejection of depolarizing, stripped of its witness, fails the harness."""
    classify = mapzoo.classify_map

    def witnessless(oracle, trials, seed):
        report = classify(oracle, trials=trials, seed=seed)
        if report.preserving:
            return report
        assert report.witness_pair is not None
        return dataclasses.replace(report, witness_pair=None)

    monkeypatch.setattr(mapzoo, "classify_map", witnessless)
    with pytest.raises(AssertionFailure, match="'depolarizing'.*no witness"):
        verify_theorem(2, trials=20)


@pytest.mark.parametrize("kind, match", [
    ("identity", "'identity'.*should certify but did not"),
    ("depolarizing", "'depolarizing'.*should be rejected but was not"),
])
def test_verify_theorem_fails_on_a_kind_on_the_wrong_side(monkeypatch, kind, match):
    """The harness handed the map of the other side of the dichotomy in
    place of ``kind``'s fails on that kind."""
    build = mapzoo.make_map
    other = {"identity": "depolarizing", "depolarizing": "identity"}[kind]

    def swapped(spec, seed):
        if spec.kind == kind:
            spec = {s.kind: s for s in zoo_specs(spec.dim)}[other]
        return build(spec, seed=seed)

    monkeypatch.setattr(mapzoo, "make_map", swapped)
    with pytest.raises(AssertionFailure, match=match):
        verify_theorem(2, trials=20)


def nan_image_oracle(d, bad):
    """Identity, except that an input ``bad`` picks goes to an all-NaN image."""
    nan = np.full((d, d), np.nan, dtype=complex)
    return DensityMapOracle.from_evaluate(d, lambda a: DensityOperator(matrix=nan) if bad(a) else a)


@pytest.mark.parametrize("d, bad", [
    pytest.param(2, lambda a: DensityOperator(matrix=np.full((2, 2), np.nan)), id="2"),
    pytest.param(3, BAD_IMAGES["nan"], id="3"),
    *(pytest.param(3, bad, id=name) for name, bad in BAD_IMAGES.items() if name != "nan"),
])
def test_classify_all_nan_images_is_an_infinite_violation(d, bad):
    """Every image is bad: all-NaN, or any other row of the bad-image table.
    The witness is the first pair of the first full block, and the report
    keeps the reconstruction, which the first basis probe rejected."""
    report = classify_map(DensityMapOracle.from_evaluate(d, bad), trials=10)
    assert not report.preserving and report.worst_violation == math.inf
    assert (report.reconstruction.status, report.reconstruction.probes_used) == (
        "failed_projection_probe", 1)
    first = _trial_pairs(np.random.default_rng(0), d, stack_size(d))[0][0]
    assert [x.matrix.tobytes() for x in report.witness_pair] == [
        m.tobytes() for m in first]


def test_classify_witness_is_the_pair_with_the_nan_image():
    """Only one trial input, in the sixth pair of the second stack of 16
    pairs at d = 8, has a NaN image; that pair is the witness."""
    d = 8
    rng = np.random.default_rng(0)
    _trial_pairs(rng, d, 16)
    pair = _trial_pairs(rng, d, 16)[0][5]
    target = pair[1].tobytes()
    report = classify_map(nan_image_oracle(d, lambda a: a.matrix.tobytes() == target),
                          trials=40)
    assert not report.preserving and report.worst_violation == math.inf
    assert [x.matrix.tobytes() for x in report.witness_pair] == [
        m.tobytes() for m in pair]


@pytest.mark.parametrize("kind", ["identity", "depolarizing"])
def test_a_pair_with_a_turned_away_image_is_settled_by_its_bound(monkeypatch, kind):
    """One trial input, A of the second pair, has a NaN image, which
    image_stack turns away. Its pair's residual, and so its violation_bound,
    is infinite, so that pair is the witness at an infinite violation and
    never reaches fidelity_stack: for the identity, whose bound settles
    every other pair, no pair does; for depolarizing, which has no
    candidate, every other pair of the scan does."""
    d = 3
    pair = _trial_pairs(np.random.default_rng(0), d, stack_size(d))[0][1]
    target = pair[0]
    base = make_map(MapSpec(kind, d, {"p": 0.5} if kind == "depolarizing" else {}))

    def evaluate_stack(m):
        out = base.evaluate_stack(m).copy()
        out[np.all(m == target, axis=(-2, -1))] = np.nan
        return out

    scored = []
    stacked = mapzoo.fidelity_stack
    monkeypatch.setattr(mapzoo, "fidelity_stack",
                        lambda a, b: scored.append((a.copy(), b.copy())) or stacked(a, b))
    report = classify_map(DensityMapOracle(d, evaluate_stack), trials=40)
    assert not report.preserving and report.worst_violation == math.inf
    assert [x.matrix.tobytes() for x in report.witness_pair] == [m.tobytes() for m in pair]
    rows = [m.tobytes() for a, b in scored for m in (*a, *b)]
    assert target.tobytes() not in rows
    assert len(rows) == (0 if kind == "identity" else 4 * (report.trials - 1))


def test_classify_images_of_mixed_shapes_are_an_infinite_violation():
    """The identity on mixed inputs and an isometric embedding into d + 1 on
    rank-one ones: images of two shapes in one stack. With seed 8 the first
    pair has no rank-one input, and the first pair with one is the witness."""
    d = 3
    v = np.linalg.qr(np.random.default_rng(1).normal(size=(d + 1, d)))[0]

    def rank_one(m):
        return np.linalg.matrix_rank(m) == 1

    oracle = DensityMapOracle.from_evaluate(d, lambda a: (
        DensityOperator.from_psd(v @ a.matrix @ v.T) if rank_one(a.matrix) else a))
    report = classify_map(oracle, trials=20, seed=8)
    assert not report.preserving and report.worst_violation == math.inf
    pairs = _trial_pairs(np.random.default_rng(8), d, stack_size(d))[0][:20]
    first = next(p for p in pairs if rank_one(p[0]) or rank_one(p[1]))
    assert not (rank_one(pairs[0][0]) or rank_one(pairs[0][1]))
    assert [x.matrix.tobytes() for x in report.witness_pair] == [
        m.tobytes() for m in first]


def test_classify_needs_dim_two():
    # no orthogonal pure pair exists at dim 1
    with pytest.raises(BadSpec, match="dim >= 2"):
        classify_map(make_map(MapSpec(kind="identity", dim=1)))


@pytest.mark.parametrize("kind, params", [
    ("mix", {"sigma_re": [[1.0]], "sigma_im": [[0.0]]}),
    ("mix", {"sigma_re": (np.eye(3) / 3).tolist(), "sigma_im": np.zeros((3, 3)).tolist()}),
    ("mix", {"sigma_re": (np.eye(2) / 2).tolist(), "sigma_im": [[0.0]]}),
    ("unitary", {"re": [[1.0]]}),
    ("antiunitary", {"re": np.eye(2).tolist(), "im": [[0.0]]}),
])
def test_matrix_params_must_be_dim_by_dim(kind, params):
    with pytest.raises(BadSpec, match="grids do not match dim 2"):
        make_map(MapSpec(kind=kind, dim=2, params=params))


def test_matrix_params_of_the_right_shape():
    sigma = np.diag([0.75, 0.25])
    oracle = make_map(MapSpec(kind="mix", dim=2, params={"p": 1.0, "sigma_re": sigma.tolist()}))
    assert np.array_equal(oracle.evaluate(validate_density(np.eye(2) / 2)).matrix, sigma)
    u = make_map(MapSpec(kind="unitary", dim=2, params={"re": [[0, 1], [1, 0]]}))
    assert np.array_equal(u.evaluate(validate_density(np.diag([1.0, 0.0]))).matrix,
                          np.diag([0.0, 1.0]))


@pytest.mark.parametrize("kind, dim, params", [
    ("depolarizing", 2, {"p": None}),
    ("depolarizing", 2, {"p": [0.5]}),
    ("depolarizing", 2, {"p": True}),
    ("depolarizing", 2, {"p": "0.5"}),
    ("mix", 2, {"p": None}),
    ("unitary", 2, {"seed": None}),
    ("mix", 2, {"seed": 1.7}),
    ("antiunitary", 2, {"seed": True}),
    ("depolarizing", 2.9, {"p": 0.5}),
    ("identity", "2", {}),
    ("identity", True, {}),
    ("identity", 2, {"p": 0.5}),
    ("transpose", 2, {"seed": 1}),
    ("dephase", 2, {"p": 0.5}),
    ("spectral_scramble", 2, {"seed": 1}),
    ("unitary", 2, {"p": 0.5}),
    ("antiunitary", 2, {"sigma_re": [[1, 0], [0, 1]]}),
    ("depolarizing", 2, {"P": 0.5}),
    ("depolarizing", 2, {"p": 0.5, "seed": 1}),
    ("mix", 2, {"re": [[1, 0], [0, 1]]}),
    ("mix", 2, [("p", 0.5)]),
    ("unitary", 2, {"im": [[0, 0], [0, 0]]}),
    ("unitary", 2, {"re": [[1, 0], [0, None]]}),
    ("unitary", 2, {"re": [[1, 0], [0, "1"]]}),
    ("unitary", 2, {"re": [[True, False], [False, True]]}),
    ("unitary", 2, {"re": [[1, 0], [0, float("nan")]]}),
    ("unitary", 2, {"re": [[1, 0], [0]]}),
    ("mix", 2, {"sigma_re": [[0.5, 0], [0, 0.5]], "sigma_im": [[0, 0], [0, float("inf")]]}),
    ("mix", 2, {"sigma_re": [[1.2, 0], [0, -0.2]]}),
    ("mix", 2, {"sigma_re": [[0.5, 0], [0, 0.4]]}),
    ("unitary", 2, {"seed": -1}),
])
def test_bad_param_values_and_keys(kind, dim, params):
    """Each spec is read as a different map or crashes at the parent; every
    one must be a BadSpec naming the problem."""
    with pytest.raises(BadSpec):
        make_map(MapSpec(kind=kind, dim=dim, params=params))


def test_mix_sigma_must_have_unit_trace():
    """make_map checks a given sigma's trace after validation's clip: 1 within
    TRACE_TOL, else a BadSpec that states the trace and the tolerance."""
    with pytest.raises(BadSpec, match=f"^trace 0.9[0-9]* is not 1 within {TRACE_TOL}$"):
        make_map(MapSpec(kind="mix", dim=2, params={"sigma_re": [[0.5, 0], [0, 0.4]]}))
    for sigma in ([[0.5, 0], [0, 0.5]], [[1.0 + 1e-15, 0], [0, -1e-15]]):
        oracle = make_map(MapSpec(kind="mix", dim=2, params={"p": 1.0, "sigma_re": sigma}))
        image = oracle.evaluate(validate_density(np.eye(2) / 2))
        assert abs(image.trace - 1.0) <= TRACE_TOL


def test_mix_sigma_must_be_hermitian():
    """A sigma grid with Hermitian part I/2 but ||sigma - sigma*||_F = 0.85 is
    a BadSpec, not I/2."""
    with pytest.raises(BadSpec, match="not Hermitian"):
        make_map(MapSpec(kind="mix", dim=2, params={"sigma_re": [[0.5, 0.3], [-0.3, 0.5]]}))


@pytest.mark.parametrize("kind", ["unitary", "antiunitary"])
@pytest.mark.parametrize("re", [[[1.7e308, 0.0], [0.0, 1.0]], [[1e300, 1e300], [0.0, 1.0]]])
def test_a_grid_near_the_float_maximum_is_no_unitary(kind, re):
    """A grid whose U*U would overflow, to inf or to NaN, is no unitary: a
    BadSpec with no RuntimeWarning (an error in this suite), as U*U is never
    formed from a part above 2 in modulus."""
    with pytest.raises(BadSpec, match="^matrix is not unitary$"):
        make_map(MapSpec(kind=kind, dim=2, params={"re": re}))


def test_a_sigma_grid_near_the_float_maximum_is_a_bad_spec():
    with pytest.raises(BadSpec, match="finite and at most"):
        make_map(MapSpec(kind="mix", dim=2, params={"sigma_re": [[1.7e308, 0.0], [0.0, 1.0]]}))


@pytest.mark.parametrize("kind", ["unitary", "antiunitary"])
@pytest.mark.parametrize("d, digits", [(2, 12), (3, 12), (8, 12), (3, 10)])
def test_a_rounded_unitary_grid_is_read_as_its_polar_factor(kind, d, digits):
    """A Haar unitary rounded to 12 decimals has ||G*G - I||_F near 1e-12,
    within UNITARY_TOL but far above what the residual rule lets a certified
    map stray. It is the map of its polar factor W V* (G = W S V*): it
    reconstructs and classifies as a certified symmetry of its kind, at the
    factor, where the map of G itself failed its probes."""
    g = haar_unitary(np.random.default_rng(d), d).round(digits)
    oracle = make_map(MapSpec(kind, d, {"re": g.real.tolist(), "im": g.imag.tolist()}))
    w, _, vh = np.linalg.svd(g)
    polar = SymmetryOperator(parity=kind, u=w @ vh)
    report = reconstruct(oracle, VERIFICATION_TRIALS, 0)
    assert report.certified and report.symmetry.parity == kind
    assert symmetry_distance(report.symmetry, polar) <= 1e-12
    classified = classify_map(oracle, trials=50, seed=1)
    assert classified.preserving and classified.reconstruction.symmetry.parity == kind


@pytest.mark.parametrize("kind", ["unitary", "antiunitary"])
@pytest.mark.parametrize("g", [np.eye(2), np.array([[0, 1], [1, 0]]),
                               np.array([[0, 1j], [1j, 0]])], ids=["I", "X", "iX"])
def test_an_exactly_unitary_grid_keeps_the_bits_of_its_map(kind, g):
    """The polar factor of I, X and iX is the grid to the bit, so its
    images are those of the symmetry of the grid itself."""
    oracle = make_map(MapSpec(kind, 2, {"re": g.real.tolist(), "im": g.imag.tolist()}))
    inputs = np.stack([random_density(np.random.default_rng(k), 2).matrix for k in range(4)])
    want = symmetry_oracle(SymmetryOperator(parity=kind, u=g.astype(complex)))
    assert np.array_equal(oracle.evaluate_stack(inputs), want.evaluate_stack(inputs))


@pytest.mark.parametrize("kind, params", [
    ("unitary", {"re": [[1, 0], [0, 1]], "seed": 3}),
    ("antiunitary", {"seed": 3, "im": [[0, 0], [0, 0]], "re": [[0, 1], [1, 0]]}),
    ("mix", {"p": 0.5, "sigma_re": [[0.5, 0], [0, 0.5]], "seed": 3}),
    ("mix", {"sigma_im": [[0, 0], [0, 0]], "seed": 3, "sigma_re": [[1, 0], [0, 0]]}),
])
def test_a_grid_beside_a_seed_is_a_bad_spec(kind, params):
    """A seed that a grid would leave unread is refused, naming both keys;
    the default seed of make_map is not a param and stays allowed."""
    grid = next(key for key in params if key != "seed" and key != "p")
    with pytest.raises(BadSpec, match=f"^{kind} params give {grid} and seed: "):
        make_map(MapSpec(kind=kind, dim=2, params=params))
    del params["seed"]
    make_map(MapSpec(kind=kind, dim=2, params=params), seed=3)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_every_report_number_is_a_float(d):
    """residual_max, parity_margin and worst_violation are Python floats, not
    numpy scalars, for every zoo kind, and every report is JSON, also for a
    numpy-integer dim, trial count and seed; d = 1 has no classification."""
    for spec in zoo_specs(d):
        made = make_map(spec)
        for oracle, trials, seed in [(made, 40, 0), (DensityMapOracle(
                np.int64(d), made.evaluate_stack), np.int64(40), np.int64(0))]:
            recs = [reconstruct(oracle, seed=seed)]
            if d >= 2:
                report = classify_map(oracle, trials=trials, seed=seed)
                assert type(report.worst_violation) is float, spec.kind
                json.dumps(classification_to_dict(report))
                recs.append(report.reconstruction)
            for rec in recs:
                assert (type(rec.residual_max), type(rec.parity_margin)) == (float, float), spec.kind
                json.dumps(reconstruction_to_dict(rec))
    if d >= 2:
        json.dumps(verify_theorem(np.int64(d), np.int64(40), np.int64(0)))


def test_a_negative_default_seed_is_a_bad_spec():
    """As a negative seed param is: both kinds that draw from a seed."""
    for kind in ("unitary", "mix"):
        with pytest.raises(BadSpec, match="seed must be >= 0"):
            make_map(MapSpec(kind=kind, dim=2), seed=-1)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("seed, message", [
    (-1, ">= 0, got -1"), (1.5, "an integer, got 1.5"), (2.0, "an integer, got 2.0"),
    (True, "an integer, got True"), ("x", "an integer, got 'x'"), (None, "an integer, got None")])
def test_every_kind_refuses_a_bad_seed(kind, seed, message):
    """The seed is checked once, before the kind is read: a kind that draws
    nothing, such as identity or transpose, refuses it as unitary does."""
    with pytest.raises(BadSpec, match=f"^seed must be {message}$"):
        make_map(MapSpec(kind=kind, dim=2), seed=seed)


@pytest.mark.parametrize("data, key, kwargs, expected", [
    ({"p": 0.25}, "p", {}, 0.25),
    ({"p": 1}, "p", {}, 1.0),
    ({}, "p", {"default": 0.5}, 0.5),
    ({"dim": 3}, "dim", {"integer": True}, 3),
    ({"dim": 3.0}, "dim", {"integer": True}, 3),
    ({"seed": np.int64(7)}, "seed", {"integer": True}, 7),
])
def test_json_number_reads(data, key, kwargs, expected):
    value = json_number(data, key, **kwargs)
    assert value == expected and type(value) is type(expected)


@pytest.mark.parametrize("data", [{"dim": None}, {"dim": 2.9}, {"dim": "2"}, {"dim": False},
                                  {"dim": [2]}, {"dim": float("inf")}, {"dim": float("nan")}])
def test_json_number_rejects(data):
    with pytest.raises(BadSpec):
        json_number(data, "dim", integer=True)


def test_json_number_rejects_an_integer_beyond_the_float_range():
    """float(10**400) raises OverflowError; json_number raises a BadSpec that
    names the key and does not echo the 401 digits. As an int it is read."""
    for value in (10**400, -(10**400)):
        with pytest.raises(BadSpec, match="^p is beyond the float range$"):
            json_number({"p": value}, "p")
    with pytest.raises(BadSpec, match="^p is beyond the float range$"):
        make_map(MapSpec(kind="depolarizing", dim=2, params={"p": 10**400}))
    assert json_number({"seed": 10**400}, "seed", integer=True) == 10**400


def test_json_grid_reads_bits():
    re = [[0.1, 2], [-3, 0.7]]
    im = [[0.0, 0.3], [-0.3, 0.0]]
    m = json_grid({"re": re, "im": im}, 2, "re", "im")
    assert np.array_equal(m, np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float))
    assert np.array_equal(json_grid({"re": re}, 2, "re", "im"), np.asarray(re, dtype=complex))


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 32])
@pytest.mark.parametrize("count", [1, 2, 7, 64])
def test_trial_pairs_match_reference_pair_by_pair(d, count):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        pairs, vectors = _trial_pairs(rng, d, count)
        one = np.random.default_rng(seed)
        expected, units = reference_trial_pairs(one, d, count, vectors=True)
        assert rng.bit_generator.state == one.bit_generator.state, seed
        assert pairs.shape == (count, 2, d, d)
        for pair, want, vector_pair, unit_pair in zip(pairs, expected, vectors, units):
            for row, b, v, unit in zip(pair, want, vector_pair, unit_pair):
                assert row.tobytes() == b.matrix.tobytes(), seed
                assert float(np.trace(row).real) == b.trace, seed
                assert v.tobytes() == (np.zeros(d, complex) if unit is None else unit).tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_trial_pairs_rows_of_each_kind(d):
    """Every row is exactly Hermitian and read-only; mixed rows are PSD with
    their drawn trace and rank, every rank 1..d present; pure rows are
    unit-trace rank-one projections; orthogonal pairs have F <= 1e-7."""
    count = 256
    pairs = _trial_pairs(np.random.default_rng(d), d, count)[0]
    assert not pairs.flags.writeable
    assert np.array_equal(pairs, pairs.conj().swapaxes(-1, -2))
    # the block's first draws: the kinds, then the mixed pairs' traces and ranks
    again = np.random.default_rng(d)
    kinds = again.uniform(size=count)
    mixed, pure, orthogonal = kinds < 0.4, (kinds >= 0.4) & (kinds < 0.8), kinds >= 0.8
    traces = again.uniform(0.0, 2.0, size=(mixed.sum(), 2))
    ranks = again.integers(1, d + 1, size=(mixed.sum(), 2))

    w = np.linalg.eigvalsh(pairs[mixed])
    assert w.min() >= -1e-12 * w.max()
    assert np.allclose(np.trace(pairs[mixed], axis1=-2, axis2=-1).real, traces,
                       rtol=1e-12, atol=0.0)
    assert np.array_equal((w > 1e-10 * w[..., -1:]).sum(axis=-1), ranks)
    assert set(ranks.ravel()) == set(range(1, d + 1))

    rank_one = pairs[pure | orthogonal]
    w = np.linalg.eigvalsh(rank_one)
    assert np.allclose(np.trace(rank_one, axis1=-2, axis2=-1), 1.0, rtol=0.0, atol=1e-12)
    assert np.allclose(w[..., -1], 1.0, rtol=0.0, atol=1e-12)
    assert np.abs(w[..., :-1]).max() <= 1e-12
    assert fidelity_stack(pairs[orthogonal, 0], pairs[orthogonal, 1]).max() <= 1e-7


def test_trial_pairs_kind_shares():
    """Over 4,000 pairs, told apart by their rows alone, the shares of mixed,
    pure and orthogonal pairs are within 3 sigma of 0.4, 0.4 and 0.2."""
    n = 4000
    pairs = _trial_pairs(np.random.default_rng(17), 2, n)[0]
    w = np.linalg.eigvalsh(pairs)
    unit_rank_one = (np.abs(w[..., 0]) <= 1e-12) & (np.abs(w[..., 1] - 1.0) <= 1e-12)
    both = unit_rank_one.all(axis=1)
    orthogonal = both & (fidelity_stack(pairs[:, 0], pairs[:, 1]) <= 1e-7)
    shares = np.array([(~both).sum(), (both & ~orthogonal).sum(), orthogonal.sum()]) / n
    p = np.array([0.4, 0.4, 0.2])
    assert np.all(np.abs(shares - p) <= 3 * np.sqrt(p * (1 - p) / n)), shares


def counting_oracle(base):
    """``base`` read through a stack-action wrapper that keeps a copy of every
    stack it is handed, in the list it returns alongside."""
    calls = []
    oracle = DensityMapOracle(
        base.dim, lambda m: calls.append(m.copy()) or base.evaluate_stack(m))
    return calls, oracle


def probe_calls(base):
    """The stacks of one probe each that reconstruct(base)'s probe stages
    hand the oracle: the prefix of classify_map's calls."""
    calls, oracle = counting_oracle(base)
    report = reconstruct(oracle)
    return calls[:base.dim + 2 if report.symmetry else report.probes_used]


def test_classify_trials_are_a_prefix_of_more_trials():
    """At d = 8 a block holds 16 pairs. The map preserves fidelity, so both
    runs make reconstruct's d + 2 probes first, and then score and verify
    on every trial, in the scoring groups of group_calls. 20 trials are
    scored as 32, the VERIFICATION_TRIALS inputs, whose pairs, two whole
    blocks, are the first 32 of 200 trials, so their worst violation is no
    larger; their calls are 16 and 16 pairs, and those of 200 are 16, 32,
    64, 64 and 24."""
    d = 8
    base = make_map(MapSpec("unitary", d, {"seed": 4}))
    first = probe_calls(base)
    assert [len(m) for m in first] == [1] * (d + 2)

    def run(trials):
        calls, oracle = counting_oracle(base)
        report = classify_map(oracle, trials=trials, seed=3)
        assert [m.tobytes() for m in calls[:len(first)]] == [m.tobytes() for m in first]
        return calls[len(first):], report

    short, few = run(20)
    long, many = run(200)
    assert few.preserving and many.preserving
    assert (few.trials, many.trials) == (VERIFICATION_TRIALS // 2, 200)
    assert [len(m) for m in short] == [2 * n for n in group_calls(VERIFICATION_TRIALS // 2, d)]
    assert [len(m) for m in long] == [2 * n for n in group_calls(200, d)]
    short, long = np.concatenate(short), np.concatenate(long)
    assert (len(short), len(long)) == (VERIFICATION_TRIALS, 400)
    assert short.tobytes() == long[:VERIFICATION_TRIALS].tobytes()
    assert few.worst_violation <= many.worst_violation
    assert (few.reconstruction.verification_trials, many.reconstruction.probes_used) == (
        VERIFICATION_TRIALS, d + 2 + 400)
    assert few.reconstruction.residual_max <= many.reconstruction.residual_max


# The probes that a rejected map spends at dimension d before its trials: a
# depolarized or mixed basis state is no projection; the scrambled basis
# states all go to e_1 e_1*; dephasing keeps the basis states and fails the
# first phase probe; depolarized_off_the_probes passes all d + 2 and so
# holds a candidate.
REJECTED_PROBES = {
    "depolarizing": lambda d: 1,
    "mix": lambda d: 1,
    "spectral_scramble": lambda d: d,
    "dephase": lambda d: d + 1,
    "depolarized_off_the_probes": lambda d: d + 2,
}


@pytest.mark.parametrize("d", [4, 8])
@pytest.mark.parametrize("name", REJECTED_PROBES)
def test_a_rejection_stops_at_the_first_block_with_a_witness(name, d):
    """A rejected map hands the oracle reconstruct's one-row probes, then one
    block of 200 trials, reports the trials of that block, and by the prefix
    property reports what classify_map asked for exactly those trials does,
    reconstruction and witness bytes included."""
    base = (depolarized_off_the_probes(d) if name not in ALL_KINDS else
            make_map(zoo_specs(d)[ALL_KINDS.index(name)]))
    calls, oracle = counting_oracle(base)
    report = classify_map(oracle, trials=200, seed=2)
    probes = REJECTED_PROBES[name](d)
    first = probe_calls(base)
    assert [m.tobytes() for m in calls[:probes]] == [m.tobytes() for m in first]
    assert [len(m) for m in calls] == [1] * probes + [2 * stack_size(d)]
    assert not report.preserving and report.trials == stack_size(d)
    exact = classify_map(base, trials=report.trials, seed=2)
    assert json.dumps(classification_to_dict(exact)) == json.dumps(classification_to_dict(report))
    assert [x.matrix.tobytes() for x in exact.witness_pair] == [
        x.matrix.tobytes() for x in report.witness_pair]


@pytest.mark.parametrize("kind", PRESERVING_KINDS)
def test_a_preserving_kind_scores_every_trial(kind):
    report = classify_map(make_map(zoo_specs(8)[ALL_KINDS.index(kind)]), trials=200, seed=2)
    assert report.preserving and report.trials == 200
