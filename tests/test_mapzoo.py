"""Map zoo generators, the fidelity-preservation classifier, and the theorem
harness."""
import math

import numpy as np
import pytest

from fidsym.fidelity import fidelity
from fidsym.mapzoo import (
    BadSpec,
    MapSpec,
    _trial_pairs,
    classify_map,
    json_grid,
    json_number,
    make_map,
    verify_theorem,
)
from fidsym.matcore import DensityOperator, pure_state, validate_density
from fidsym.sampling import orthogonal_pure_pair, random_density, random_pure_state
from fidsym.wigner import DensityMapOracle


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


def nan_image_oracle(d, bad):
    """Identity, except that an input ``bad`` picks goes to an all-NaN image."""
    nan = np.full((d, d), np.nan, dtype=complex)
    return DensityMapOracle(dim=d, evaluate=lambda a: DensityOperator(matrix=nan) if bad(a) else a)


@pytest.mark.parametrize("d", [2, 3])
def test_classify_all_nan_images_is_an_infinite_violation(d):
    report = classify_map(nan_image_oracle(d, lambda a: True), trials=10)
    assert not report.preserving and report.worst_violation == math.inf
    assert report.reconstruction is None
    first = _trial_pairs(np.random.default_rng(0), d, 1)[0]
    assert [x.matrix.tobytes() for x in report.witness_pair] == [
        x.matrix.tobytes() for x in first]


def test_classify_witness_is_the_pair_with_the_nan_image():
    """Only one trial input, in the sixth pair of the second stack of 16
    pairs at d = 8, has a NaN image; that pair is the witness."""
    d = 8
    rng = np.random.default_rng(0)
    _trial_pairs(rng, d, 16)
    pair = _trial_pairs(rng, d, 16)[5]
    target = pair[1].matrix.tobytes()
    report = classify_map(nan_image_oracle(d, lambda a: a.matrix.tobytes() == target),
                          trials=40)
    assert not report.preserving and report.worst_violation == math.inf
    assert [x.matrix.tobytes() for x in report.witness_pair] == [
        x.matrix.tobytes() for x in pair]


def test_classify_images_of_mixed_shapes_are_an_infinite_violation():
    """The identity on mixed inputs and an isometric embedding into d + 1 on
    rank-one ones: images of two shapes in one stack. With seed 2 the first
    pair is mixed, and the first pair of rank-one inputs is the witness."""
    d = 3
    v = np.linalg.qr(np.random.default_rng(1).normal(size=(d + 1, d)))[0]

    def rank_one(a):
        return np.linalg.matrix_rank(a.matrix) == 1

    oracle = DensityMapOracle(dim=d, evaluate=lambda a: (
        DensityOperator.from_psd(v @ a.matrix @ v.T) if rank_one(a) else a))
    report = classify_map(oracle, trials=20, seed=2)
    assert not report.preserving and report.worst_violation == math.inf
    pairs = _trial_pairs(np.random.default_rng(2), d, 20)
    first = next(p for p in pairs if rank_one(p[0]))
    assert not rank_one(pairs[0][0])
    assert [x.matrix.tobytes() for x in report.witness_pair] == [
        x.matrix.tobytes() for x in first]


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
])
def test_bad_param_values_and_keys(kind, dim, params):
    """Each spec is read as a different map or crashes at the parent; every
    one must be a BadSpec naming the problem."""
    with pytest.raises(BadSpec):
        make_map(MapSpec(kind=kind, dim=dim, params=params))


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


def test_json_grid_reads_bits():
    re = [[0.1, 2], [-3, 0.7]]
    im = [[0.0, 0.3], [-0.3, 0.0]]
    m = json_grid({"re": re, "im": im}, 2, "re", "im")
    assert np.array_equal(m, np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float))
    assert np.array_equal(json_grid({"re": re}, 2, "re", "im"), np.asarray(re, dtype=complex))


def reference_trial_pairs(rng, d, count):
    """Reference for _trial_pairs: draw and wrap one pair at a time."""
    pairs = []
    for _ in range(count):
        r = rng.uniform()
        if r < 0.4:
            pairs.append(tuple(random_density(rng, d, trace=float(rng.uniform(0.0, 2.0)) or 1.0)
                               for _ in range(2)))
        elif r < 0.8:
            pairs.append((random_pure_state(rng, d).projection(),
                          random_pure_state(rng, d).projection()))
        else:
            p, q = orthogonal_pure_pair(rng, d)
            pairs.append((p.projection(), q.projection()))
    return pairs


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 32])
@pytest.mark.parametrize("count", [1, 2, 7, 64])
def test_trial_pairs_match_reference_pair_by_pair(d, count):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        pairs = _trial_pairs(rng, d, count)
        one = np.random.default_rng(seed)
        expected = reference_trial_pairs(one, d, count)
        assert rng.bit_generator.state == one.bit_generator.state, seed
        assert len(pairs) == count
        for pair, want in zip(pairs, expected):
            for a, b in zip(pair, want):
                assert a.matrix.tobytes() == b.matrix.tobytes(), seed
                assert a.trace == b.trace, seed
