"""The stacked kernel: every stacked result equals the n = 1 wrapper bit for
bit, classify_map's stacked scoring picks the same worst violation and
witness as a per-trial loop, and stacks fail like single matrices do."""
import warnings

import numpy as np
import pytest
from trial_reference import reference_trial_pairs, stack_size

from fidsym import mapzoo
from fidsym.charact import numerical_rank, spectral_rank
from fidsym.fidelity import BadM, fidelity, fidelity_stack, is_leq, leq_stack, partial_fidelity
from fidsym.mapzoo import classify_map, make_map, verify_theorem, zoo_specs
from fidsym.matcore import (
    DensityOperator,
    DimensionMismatch,
    NotPositive,
    SolverFailure,
    eig_hermitian,
    eigh_stack,
    eigvalsh_stack,
    from_psd_stack,
    hermitize,
    hermitize_stack,
    sqrtm_psd,
    sqrtm_stack,
    validate_density,
    validate_stack,
)
from fidsym.sampling import orthogonal_pure_pair, random_density
from fidsym.tolerances import CLASSIFY_TOL, EIG_FLOOR

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
    raw = eigh_stack(m)  # hermitized inside
    assert raw[0].tobytes() == w.tobytes() and raw[1].tobytes() == v.tobytes()
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


@pytest.mark.parametrize("d", DIMS)
def test_eigvalsh_stack_matches_eigh_stack(d):
    m = psd_inputs(d)
    m = m + 1j * np.triu(np.ones((d, d)))  # not Hermitian yet
    w = eigvalsh_stack(m)
    ref, _ = eigh_stack(hermitize_stack(m))
    assert w.shape == ref.shape and w.flags.c_contiguous
    assert np.all(np.diff(w, axis=-1) <= 0.0)
    for k in range(len(m)):
        assert np.max(np.abs(w[k] - ref[k])) <= 1e-13 * np.linalg.norm(m[k])


def test_eigvalsh_stack_raises_solver_failure(monkeypatch):
    def no_convergence(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(SolverFailure):
        eigvalsh_stack(psd_inputs(2))


def trace_norm_reference(a, b):
    """Singular values of A^{1/2} B^{1/2}, non-increasing, from numpy's own
    eigh and svd: F(A, B) = ||A^{1/2} B^{1/2}||_1 is their sum and the
    partial fidelity of order m the sum of the first m. The cuts are the
    documented ones: eigenvalues of A below EIG_FLOOR times its largest, and
    squared singular values below EIG_FLOOR times the largest, count as zero."""
    def root(m, floor):
        w, v = np.linalg.eigh(m)
        w = np.clip(w, 0.0, None)
        w[w < floor * w.max()] = 0.0
        return (v * np.sqrt(w)) @ v.conj().T

    s = np.linalg.svd(root(a, EIG_FLOOR) @ root(b, 0.0), compute_uv=False)
    s[s * s < EIG_FLOOR * s[0] ** 2] = 0.0
    return s


@pytest.mark.parametrize("d", DIMS)
def test_fidelity_stack_matches_trace_norm_reference(d):
    """Every ordered pair of psd_inputs(d), every m. The values agree within
    1e-12 (1 + ||A|| ||B||). F is Hoelder-1/2 where a singular value s_i is
    near 0 (orthogonal pairs): rounding delta of order d eps ||A|| ||B|| in
    the core moves sqrt(s_i^2) by up to min(sqrt(delta), delta / s_i), on
    either side, so that much is added for each of the m terms."""
    m = psd_inputs(d)
    n = len(m)
    i, j = np.divmod(np.arange(n * n), n)
    a, b = m[i], m[j]
    ops = [DensityOperator(matrix=x) for x in m]
    norms = np.linalg.norm(m, ord=2, axis=(-2, -1))
    got = {order: fidelity_stack(a, b, order) for order in [None, *range(1, d + 1)]}
    for k in range(n * n):
        s = trace_norm_reference(a[k], b[k])
        ab = norms[i[k]] * norms[j[k]]
        delta = 4 * d * np.finfo(float).eps * ab
        holder = np.minimum(np.sqrt(delta), delta / np.maximum(s, np.finfo(float).tiny))
        x, y = ops[i[k]], ops[j[k]]
        assert got[None][k] == fidelity(x, y)
        for order in range(1, d + 1):
            tol = 1e-12 * (1.0 + ab) + holder[:order].sum()
            assert got[order][k] == partial_fidelity(x, y, order)
            assert abs(got[order][k] - s[:order].sum()) <= tol, (i[k], j[k], order)
        assert got[None][k] == got[d][k]


@pytest.mark.parametrize("d", DIMS)
def test_numerical_rank_decides_as_the_eigensystem(d):
    for x in psd_inputs(d):
        expected = spectral_rank(eig_hermitian(x).eigenvalues)
        assert numerical_rank(DensityOperator(matrix=x)) == expected


@pytest.mark.parametrize("d", DIMS)
def test_verify_theorem_floors(d):
    """Exact symmetries stay on their floors: identity and transpose map
    every pair to bits whose fidelity is the input's, the conjugations stay
    within the sqrt(eps) rounding of orthogonal pairs."""
    worst = {e["kind"]: e["worst_violation"]
             for e in verify_theorem(d, trials=200, seed=1)["results"]}
    assert worst["identity"] == 0.0 and worst["transpose"] == 0.0
    assert worst["unitary"] <= 1e-8 and worst["antiunitary"] <= 1e-8


def test_fidelity_stack_rejects_bad_m_and_mismatch():
    a = psd_inputs(2)
    with pytest.raises(BadM):
        fidelity_stack(a, a, 0)
    with pytest.raises(BadM):
        fidelity_stack(a, a, 3)
    with pytest.raises(DimensionMismatch):
        fidelity_stack(a, a[:-1])


def reference_classify(oracle, trials, seed, score=fidelity):
    """Reference for classify_map: draw whole blocks of the stack size, build
    them one pair at a time, cut the last to the trials left, and evaluate
    and score each pair one at a time; the first pair reaching the largest
    violation is the witness. The scan stops after the first block whose
    largest violation exceeds CLASSIFY_TOL. Returns the worst violation, its
    witness and the number of trials scored."""
    rng = np.random.default_rng(seed)
    d = oracle.dim
    worst, witness, scored = 0.0, None, 0
    while scored < trials and worst <= CLASSIFY_TOL:
        block = reference_trial_pairs(rng, d, stack_size(d))[:trials - scored]
        for a, b in block:
            violation = abs(score(oracle.evaluate(a), oracle.evaluate(b)) - score(a, b))
            if violation > worst:
                worst = violation
                witness = (a, b)
        scored += len(block)
    return worst, witness, scored


def witness_bytes(pair):
    return None if pair is None else tuple(x.matrix.tobytes() for x in pair)


@pytest.mark.parametrize("d", [2, 4, 8])
@pytest.mark.parametrize("seed", [0, 5])
def test_classify_map_matches_reference_loop(d, seed):
    for spec in zoo_specs(d):
        oracle = make_map(spec, seed=seed)
        for trials in (1, 33, 200):
            report = classify_map(oracle, trials=trials, seed=seed)
            worst, witness, scored = reference_classify(oracle, trials, seed)
            assert report.worst_violation == worst, (spec.kind, trials)
            assert report.trials == scored, (spec.kind, trials)
            if not report.preserving:
                assert witness_bytes(report.witness_pair) == witness_bytes(witness)


def test_classify_map_first_maximum_across_stacks(monkeypatch):
    """Rounded scores tie often; the witness must still be the first pair
    at the maximum of the blocks scored (7 pairs per stack here)."""
    monkeypatch.setattr(mapzoo, "TRIAL_STACK_ENTRIES", 7 * 8 * 8)
    stacked = mapzoo.fidelity_stack
    monkeypatch.setattr(mapzoo, "fidelity_stack", lambda a, b: np.round(stacked(a, b), 1))

    def rounded(x, y):
        return float(np.round(fidelity(x, y), 1))

    for spec in zoo_specs(8):
        oracle = make_map(spec, seed=3)
        report = classify_map(oracle, trials=100, seed=3)
        worst, witness, scored = reference_classify(oracle, 100, 3, score=rounded)
        assert report.worst_violation == worst, spec.kind
        assert report.trials == scored, spec.kind
        if not report.preserving:
            assert witness_bytes(report.witness_pair) == witness_bytes(witness), spec.kind


def test_non_finite_member_raises_value_error():
    m = psd_inputs(3)
    m[2, 0, 1] = np.nan
    for fn in (hermitize_stack, eigh_stack, eigvalsh_stack, validate_stack, sqrtm_stack):
        with pytest.raises(ValueError):
            fn(m)
    good = psd_inputs(3)
    with pytest.raises(ValueError):
        fidelity_stack(good, m)
    m[2, 0, 1] = np.inf
    with pytest.raises(ValueError):
        validate_stack(m)
    # an infinite B is turned away before the core product, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            fidelity_stack(good, m)


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
