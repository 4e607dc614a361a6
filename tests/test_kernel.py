"""The stacked kernel: every stacked result equals the n = 1 wrapper bit for
bit, classify_map's stacked scoring picks the same worst violation and
witness as a per-trial loop, and stacks fail like single matrices do."""
import numpy as np
import pytest

from fidsym import mapzoo
from fidsym.fidelity import BadM, fidelity, fidelity_stack, is_leq, leq_stack, partial_fidelity
from fidsym.mapzoo import classify_map, make_map, zoo_specs
from fidsym.matcore import (
    DensityOperator,
    DimensionMismatch,
    NotPositive,
    eig_hermitian,
    eigh_stack,
    from_psd_stack,
    hermitize,
    hermitize_stack,
    sqrtm_psd,
    sqrtm_stack,
    validate_density,
    validate_stack,
)
from fidsym.sampling import orthogonal_pure_pair, random_density, random_pure_state

DIMS = (2, 3, 4, 8, 32)


def psd_inputs(d):
    """Raw PSD matrices of dimension d: Wishart draws of several ranks, an
    orthogonal pure pair, the zero operator, and rank-deficient operators at
    two scales whose small eigenvalues sit on either side of the EIG_FLOOR
    cut of their own row."""
    rng = np.random.default_rng(d)
    out = []
    for rank in sorted({1, 2, d // 2 or 1, d}):
        g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        out.append(g @ g.conj().T * rng.uniform(0.1, 2.0))
    p, q = orthogonal_pure_pair(rng, d)
    out += [p.projection().matrix, q.projection().matrix]
    out.append(np.zeros((d, d), dtype=complex))
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    for top, small in ((1.0, 1e-15), (1e-3, 5e-17)):
        w = np.zeros(d)
        w[0], w[-1] = top, small
        out.append((u * w) @ u.conj().T)
    return np.stack(out)


def assert_same_density(x, y):
    assert x.matrix.tobytes() == y.matrix.tobytes()
    assert x.trace == y.trace


@pytest.mark.parametrize("d", DIMS)
def test_hermitize_and_eigensystem_stack_equal_n1(d):
    m = psd_inputs(d)
    m = m + 1j * np.triu(np.ones((d, d)))  # not Hermitian yet
    h = hermitize_stack(m)
    w, v = eigh_stack(h)
    for k in range(len(m)):
        assert h[k].tobytes() == hermitize(m[k]).tobytes()
        spec = eig_hermitian(m[k])
        assert w[k].tobytes() == spec.eigenvalues.tobytes()
        assert v[k].tobytes() == spec.eigenvectors.tobytes()
    assert hermitize_stack(h).tobytes() == h.tobytes()


@pytest.mark.parametrize("d", DIMS)
def test_validate_stack_equals_n1(d):
    m = psd_inputs(d)
    for k, a in enumerate(validate_stack(m)):
        assert_same_density(a, validate_density(m[k]))


@pytest.mark.parametrize("d", DIMS)
def test_from_psd_stack_equals_n1(d):
    m = psd_inputs(d)
    for k, a in enumerate(from_psd_stack(m)):
        assert_same_density(a, DensityOperator.from_psd(m[k]))


@pytest.mark.parametrize("d", DIMS)
def test_sqrtm_stack_equals_n1(d):
    ops = validate_stack(psd_inputs(d))
    m = np.stack([a.matrix for a in ops])
    roots = sqrtm_stack(m)
    for k in range(len(ops)):
        assert roots[k].tobytes() == sqrtm_psd(m[k]).tobytes()


@pytest.mark.parametrize("d", DIMS)
def test_fidelity_stack_equals_n1(d):
    ops = validate_stack(psd_inputs(d))
    # each operator with itself and with its neighbours on either side, so
    # the orthogonal pure pair appears in both orders
    pairs = [(x, y) for k in (0, 1, -1) for x, y in zip(ops, ops[k:] + ops[:k])]
    a = np.stack([x.matrix for x, _ in pairs])
    b = np.stack([y.matrix for _, y in pairs])
    full = fidelity_stack(a, b)
    for k, (x, y) in enumerate(pairs):
        assert full[k] == fidelity(x, y)
    for m in range(1, d + 1):
        part = fidelity_stack(a, b, m)
        for k, (x, y) in enumerate(pairs):
            assert part[k] == partial_fidelity(x, y, m)


def test_fidelity_stack_rejects_bad_m_and_mismatch():
    a = psd_inputs(2)
    with pytest.raises(BadM):
        fidelity_stack(a, a, 0)
    with pytest.raises(BadM):
        fidelity_stack(a, a, 3)
    with pytest.raises(DimensionMismatch):
        fidelity_stack(a, a[:-1])


def reference_classify(oracle, trials, seed, score=fidelity):
    """Reference for classify_map: draw, validate and score one pair at a
    time; the first pair reaching the largest violation is the witness."""
    rng = np.random.default_rng(seed)
    d = oracle.dim
    worst, witness = 0.0, None
    for _ in range(trials):
        r = rng.uniform()
        if r < 0.4:
            a = random_density(rng, d, trace=float(rng.uniform(0.0, 2.0)) or 1.0)
            b = random_density(rng, d, trace=float(rng.uniform(0.0, 2.0)) or 1.0)
        elif r < 0.8:
            a = random_pure_state(rng, d).projection()
            b = random_pure_state(rng, d).projection()
        else:
            p, q = orthogonal_pure_pair(rng, d)
            a, b = p.projection(), q.projection()
        violation = abs(score(oracle.evaluate(a), oracle.evaluate(b)) - score(a, b))
        if violation > worst:
            worst = violation
            witness = (a, b)
    return worst, witness


def witness_bytes(pair):
    return None if pair is None else tuple(x.matrix.tobytes() for x in pair)


@pytest.mark.parametrize("d", [2, 4, 8])
@pytest.mark.parametrize("seed", [0, 5])
def test_classify_map_matches_reference_loop(d, seed):
    for spec in zoo_specs(d):
        oracle = make_map(spec, seed=seed)
        for trials in (1, 33, 200):
            report = classify_map(oracle, trials=trials, seed=seed)
            worst, witness = reference_classify(oracle, trials, seed)
            assert report.worst_violation == worst, (spec.kind, trials)
            if not report.preserving:
                assert witness_bytes(report.witness_pair) == witness_bytes(witness)


def test_classify_map_first_maximum_across_stacks(monkeypatch):
    """Rounded scores tie often; the witness must still be the first pair
    at the maximum, across stack boundaries (7 pairs per stack here)."""
    monkeypatch.setattr(mapzoo, "TRIAL_STACK_ENTRIES", 7 * 8 * 8)
    stacked = mapzoo.fidelity_stack
    monkeypatch.setattr(mapzoo, "fidelity_stack", lambda a, b: np.round(stacked(a, b), 1))

    def rounded(x, y):
        return float(np.round(fidelity(x, y), 1))

    for spec in zoo_specs(8):
        oracle = make_map(spec, seed=3)
        report = classify_map(oracle, trials=100, seed=3)
        worst, witness = reference_classify(oracle, 100, 3, score=rounded)
        assert report.worst_violation == worst, spec.kind
        if not report.preserving:
            assert witness_bytes(report.witness_pair) == witness_bytes(witness), spec.kind


def test_non_finite_member_raises_value_error():
    m = psd_inputs(3)
    m[2, 0, 1] = np.nan
    for fn in (hermitize_stack, validate_stack, sqrtm_stack):
        with pytest.raises(ValueError):
            fn(m)
    good = psd_inputs(3)
    with pytest.raises(ValueError):
        fidelity_stack(good, m)
    m[2, 0, 1] = np.inf
    with pytest.raises(ValueError):
        validate_stack(m)


def test_non_psd_member_raises_not_positive():
    m = psd_inputs(4)
    m[1] = np.diag([1.0, 0.5, 0.0, -0.2])
    with pytest.raises(NotPositive):
        validate_stack(m)


@pytest.mark.parametrize("d", DIMS)
def test_leq_stack_rows_equal_is_leq(d):
    """Random pairs, nested pairs A <= A + B, and pairs a factor 1 + 1e-9 or
    1 + 1e-6 apart, in both orders."""
    rng = np.random.default_rng(d)
    ops = [random_density(rng, d) for _ in range(6)]
    pairs = []
    for x, y in zip(ops, ops[1:]):
        for big in (validate_density(x.matrix + y.matrix),
                    validate_density(x.matrix * (1 + 1e-9)),
                    validate_density(x.matrix * (1 + 1e-6)), y):
            pairs += [(x, big), (big, x)]
    got = leq_stack(np.stack([a.matrix for a, _ in pairs]), np.stack([b.matrix for _, b in pairs]))
    expected = [is_leq(a, b) for a, b in pairs]
    assert got.tolist() == expected
    assert any(expected) and not all(expected)
