"""Map zoo generators, the fidelity-preservation classifier, and the theorem
harness."""
import numpy as np
import pytest

from fidsym.fidelity import fidelity
from fidsym.mapzoo import (
    BadSpec,
    MapSpec,
    classify_map,
    json_grid,
    json_number,
    make_map,
    verify_theorem,
)
from fidsym.matcore import pure_state, validate_density
from fidsym.sampling import random_density


def test_identity_map():
    oracle = make_map(MapSpec(kind="identity", dim=3))
    a = random_density(np.random.default_rng(0), 3)
    assert np.allclose(oracle.evaluate(a).matrix, a.matrix)


def test_depolarizing_on_basis_projection():
    oracle = make_map(MapSpec(kind="depolarizing", dim=2, params={"p": 0.5}))
    out = oracle.evaluate(pure_state(np.eye(2)[0]).projection())
    assert np.allclose(out.matrix, np.diag([0.75, 0.25]))


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
