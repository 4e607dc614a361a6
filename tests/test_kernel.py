"""The stacked kernel: every stacked result equals the n = 1 wrapper bit for
bit, classify_map's stacked scoring picks the same worst violation and
witness as a per-trial loop, and stacks fail like single matrices do."""
import math
import warnings

import numpy as np
import pytest
from adversarial_maps import depolarized_off_the_probes
from trial_reference import group_calls, reference_trial_pairs, stack_size

from fidsym import mapzoo, wigner
from fidsym.charact import numerical_rank, spectral_rank
from fidsym.fidelity import (
    BadM,
    all_leq,
    fidelity,
    fidelity_stack,
    is_leq,
    is_orthogonal,
)
from fidsym.mapzoo import (
    PRESERVING_KINDS,
    MapSpec,
    classify_map,
    make_map,
    verify_theorem,
    zoo_specs,
)
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
    real_divide,
    row_sumsq,
    sqrtm_psd,
    sqrtm_stack,
    validate_density,
    validate_stack,
)
from fidsym.sampling import ginibre, haar_stack, orthogonal_pure_pair, random_density
from fidsym.tolerances import CLASSIFY_TOL, EIG_FLOOR, ORDER_TOL, ORTH_TOL
from fidsym.wigner import (
    STATUS_FAILED_VERIFICATION,
    UNITARY,
    VERIFICATION_TRIALS,
    DensityMapOracle,
    SymmetryOperator,
    _probe_stages,
    apply_symmetry,
    apply_symmetry_stack,
    extend_normalized,
    reconstruct,
)

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
        w1, v1 = eig_hermitian(m[k])
        assert w[k].tobytes() == w1.tobytes()
        assert v[k].tobytes() == v1.tobytes()
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
            assert part[k] == fidelity(x, y, m)


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


def test_eigh_stack_raises_solver_failure(monkeypatch):
    def no_convergence(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(SolverFailure, match="did not converge"):
        eigh_stack(psd_inputs(2))


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
            assert got[order][k] == fidelity(x, y, order)
            assert abs(got[order][k] - s[:order].sum()) <= tol, (i[k], j[k], order)
        assert got[None][k] == got[d][k]


@pytest.mark.parametrize("d", DIMS)
def test_numerical_rank_decides_as_the_eigensystem(d):
    for x in psd_inputs(d):
        expected = spectral_rank(eig_hermitian(x)[0])
        assert numerical_rank(DensityOperator(matrix=x)) == expected


@pytest.mark.parametrize("d", DIMS)
def test_verify_theorem_floors(d):
    """Every preserving kind certifies, and its worst violation is the
    reference's largest bound, bit for bit, and at most half of
    CLASSIFY_TOL: the bound of an exact symmetry sits far inside the band."""
    worst = {e["kind"]: e["worst_violation"]
             for e in verify_theorem(d, trials=200, seed=1)["results"]}
    for spec in zoo_specs(d):
        if spec.kind in PRESERVING_KINDS:
            reference = reference_classify(make_map(spec, seed=1), 200, 1)[0]
            assert worst[spec.kind] == reference <= CLASSIFY_TOL / 2, spec.kind


def test_fidelity_stack_rejects_bad_m_and_mismatch():
    a = psd_inputs(2)
    with pytest.raises(BadM):
        fidelity_stack(a, a, 0)
    with pytest.raises(BadM):
        fidelity_stack(a, a, 3)
    with pytest.raises(DimensionMismatch):
        fidelity_stack(a, a[:-1])


def reference_classify(oracle, trials, seed, score=fidelity, candidate=True):
    """Reference for classify_map: reconstruct first, then draw whole blocks
    of the stack size, build them one pair at a time, cut the last to the
    trials left, and evaluate and score each pair one at a time; the first
    pair reaching the largest violation is the witness. With ``candidate``
    and a symmetry from reconstruct's probes, certified or not, a pair
    scores its violation_bound, from the residuals against apply_symmetry,
    unless that exceeds CLASSIFY_TOL; every other pair scores its measured
    violation. Whenever the probes give a symmetry, at least
    VERIFICATION_TRIALS / 2 trials are scored, however few are asked for.
    The scan stops after the first block whose largest violation exceeds
    CLASSIFY_TOL. Returns the worst violation, its witness and the number
    of trials scored."""
    rec = reconstruct(oracle, seed=seed)
    if rec.symmetry is not None:
        trials = max(trials, VERIFICATION_TRIALS // 2)
    rng = np.random.default_rng(seed)
    d = oracle.dim
    worst, witness, scored = 0.0, None, 0
    while scored < trials and worst <= CLASSIFY_TOL:
        block = reference_trial_pairs(rng, d, stack_size(d))[:trials - scored]
        for a, b in block:
            images = oracle.evaluate(a), oracle.evaluate(b)
            violation = math.inf
            if candidate and rec.symmetry is not None:
                delta = [np.sqrt(row_sumsq(
                    (y.matrix - apply_symmetry(rec.symmetry, x).matrix)[None]))
                    for x, y in zip((a, b), images)]
                violation = float(mapzoo.violation_bound(
                    d, np.array([np.concatenate(delta)]), np.array([[a.trace, b.trace]]))[0])
            if violation > CLASSIFY_TOL:
                violation = abs(score(*images) - score(a, b))
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
    monkeypatch.setattr(wigner, "TRIAL_STACK_ENTRIES", 7 * 8 * 8)
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


def trial_blocks(seed, d, trials):
    """classify_map's first ``trials`` trial pairs with ``seed``, as one
    (trials, 2, d, d) array."""
    rng = np.random.default_rng(seed)
    size = stack_size(d)
    return np.concatenate([wigner._trial_pairs(rng, d, size)
                           for _ in range(-(-trials // size))])[:trials]


def bound_and_measured(oracle, symmetry, pairs):
    """violation_bound and the violation fidelity_stack measures, per pair."""
    d = oracle.dim
    inputs = pairs.reshape(-1, d, d)
    images = oracle.evaluate_stack(inputs)
    delta = np.sqrt(row_sumsq(images - apply_symmetry_stack(symmetry, inputs)))
    traces = np.trace(pairs, axis1=-2, axis2=-1).real
    beta = mapzoo.violation_bound(d, delta.reshape(-1, 2), traces)
    images = images.reshape(pairs.shape)
    measured = np.abs(fidelity_stack(images[:, 0], images[:, 1])
                      - fidelity_stack(pairs[:, 0], pairs[:, 1]))
    return beta, measured


@pytest.mark.parametrize("d", [2, 4, 8, 32])
@pytest.mark.parametrize("seed", [0, 1])
def test_the_bound_bounds_the_scan(d, seed):
    """On every trial pair of every preserving kind, the bound against the
    certified candidate is at least the violation fidelity_stack measures,
    and the largest bound, the report's worst violation, is within half of
    CLASSIFY_TOL."""
    pairs = trial_blocks(seed, d, 200)
    for spec in zoo_specs(d):
        if spec.kind not in PRESERVING_KINDS:
            continue
        oracle = make_map(spec, seed=seed)
        report = classify_map(oracle, trials=200, seed=seed)
        assert report.preserving and report.reconstruction.certified, spec.kind
        beta, measured = bound_and_measured(oracle, report.reconstruction.symmetry, pairs)
        assert np.all(measured <= beta), (spec.kind, np.max(measured - beta))
        assert report.worst_violation == beta.max() <= CLASSIFY_TOL / 2, spec.kind


@pytest.mark.parametrize("d", [2, 4, 8])
@pytest.mark.parametrize("p", [1e-1, 1e-3, 1e-6])
def test_the_bound_bounds_a_depolarized_identity(d, p):
    """Far above rounding, where a bound that is too small would show: the
    depolarizing map of small p against the identity symmetry."""
    oracle = make_map(MapSpec("depolarizing", d, {"p": p}))
    identity = SymmetryOperator(parity=UNITARY, u=np.eye(d, dtype=complex))
    beta, measured = bound_and_measured(oracle, identity, trial_blocks(0, d, 256))
    assert np.all(measured <= beta) and measured.max() > 0.1 * beta.max()


def test_violation_bound_formula():
    """(sqrt(d) d_A (tr B + sqrt(d) d_B))^(1/2) + (sqrt(d) d_B tr A)^(1/2)
    at d = 4, where sqrt(d) = 2."""
    beta = mapzoo.violation_bound(4, np.array([[0.01, 0.04], [0.0, 0.0]]),
                                  np.array([[1.0, 2.0], [1.0, 1.0]]))
    assert beta.tolist() == [math.sqrt(0.02 * 2.08) + math.sqrt(0.08), 0.0]


@pytest.mark.parametrize("d, worst, trials", [(3, 5 / 6, 113), (4, (1 + 5 ** 0.5) / 4, 64),
                                              (8, 0.75, 16)])
def test_a_certified_map_that_breaks_the_trials_is_rejected_as_the_scan_rejects_it(d, worst,
                                                                                    trials):
    """A candidate that passes every probe does not shield a map that
    departs from it on the trials: the bound exceeds CLASSIFY_TOL there,
    fidelity_stack scores the pair, and the report is the one a scan that
    scores every pair by fidelity gives, witness bytes included; the witness
    replays. The same scan fails the candidate's verification at the first
    trial input that the map moves, A -> 0.5 A + 0.5 I/d for a pure A, with
    the residual 0.5 ||A - I/d||_F, and so does reconstruct, which reads
    the same inputs."""
    oracle = depolarized_off_the_probes(d)
    assert _probe_stages(oracle).symmetry is not None
    report = classify_map(oracle, trials=200, seed=0)
    scan, witness, scored = reference_classify(oracle, 200, 0, candidate=False)
    inputs = trial_blocks(0, d, scored).reshape(-1, d, d)
    first = np.flatnonzero(np.any(oracle.evaluate_stack(inputs) != inputs, axis=(-2, -1)))[0]
    rec = report.reconstruction
    assert not report.preserving and rec.status == STATUS_FAILED_VERIFICATION
    assert (rec.probes_used, rec.verification_trials) == (d + 2 + first + 1, 2 * scored)
    assert rec.residual_max == pytest.approx(0.5 * math.sqrt(1.0 - 1.0 / d), abs=1e-12)
    assert (report.worst_violation, report.trials) == (scan, scored)
    assert report.worst_violation == pytest.approx(worst, abs=1e-12) and scored == trials
    assert witness_bytes(report.witness_pair) == witness_bytes(witness)
    a, b = report.witness_pair
    replay = abs(fidelity(oracle.evaluate(a), oracle.evaluate(b)) - fidelity(a, b))
    assert replay == pytest.approx(report.worst_violation, abs=1e-12)
    alone = reconstruct(oracle, 2 * scored, seed=0)
    assert (alone.status, alone.probes_used, alone.residual_max) == (
        rec.status, rec.probes_used, rec.residual_max)


def broken_on(target):
    """The identity, except that the one input ``target`` goes to
    tr(target) I/d; ``calls`` records the matrices of each call."""
    d = len(target)
    calls = []

    def evaluate_stack(m):
        calls.append(len(m))
        out = m.copy()
        out[np.all(m == target, axis=(-2, -1))] = np.trace(target).real * np.eye(d) / d
        return out

    return DensityMapOracle(d, evaluate_stack), calls


@pytest.mark.parametrize("d", [2, 3, 8])
@pytest.mark.parametrize("trials", [1, 17, 200])
def test_a_certified_classify_reads_the_map_once(d, trials):
    """Every preserving kind: classify_map reads the oracle's d + 2 probe
    rows and the inputs of the trials it scores, at least
    VERIFICATION_TRIALS / 2 of them, and no verification input besides. Its
    reconstruction holds reconstruct's candidate, parity and margin,
    verified on those inputs, and its worst violation and trials are
    reference_classify's."""
    seed = 6
    read = max(2 * trials, VERIFICATION_TRIALS)
    for spec in zoo_specs(d):
        if spec.kind not in PRESERVING_KINDS:
            continue
        inner = make_map(spec, seed=seed)
        rows = []
        oracle = DensityMapOracle(d, lambda m: rows.append(len(m)) or inner.evaluate_stack(m))
        report = classify_map(oracle, trials=trials, seed=seed)
        rec, alone = report.reconstruction, reconstruct(inner, seed=seed)
        assert report.preserving and sum(rows) == d + 2 + read, spec.kind
        assert (rec.probes_used, rec.verification_trials) == (d + 2 + read, read)
        assert (rec.symmetry.u.tobytes(), rec.symmetry.parity, rec.parity_margin) == (
            alone.symmetry.u.tobytes(), alone.symmetry.parity, alone.parity_margin)
        worst, _, scored = reference_classify(inner, trials, seed)
        assert (report.worst_violation, report.trials) == (worst, scored), spec.kind
        assert report.trials == read // 2 and report.witness_pair is None


@pytest.mark.parametrize("d, block, k", [(8, 2, 5), (8, 5, 9), (16, 4, 2), (32, 5, 0)])
def test_a_late_witness_in_a_group_is_that_of_the_block_scan(d, block, k):
    """The map breaks fidelity on one trial pair alone, pair k of draw block
    ``block``, the second or third block of a scoring group of two or four
    blocks. The report is reference_classify's, a scan one pair at a time
    that stops after the failing block: trials, worst violation and witness.
    The same scan fails the candidate's verification at the pair's second
    input. After the probes, the oracle reads the trials alone, that whole
    group in one call, any block after the failing one included, and no
    group after it."""
    size = stack_size(d)
    target = trial_blocks(0, d, (block + 1) * size)[block * size + k]
    oracle, calls = broken_on(target[1])
    report = classify_map(oracle, trials=200, seed=0)
    calls = calls.copy()
    worst, witness, scored = reference_classify(oracle, 200, 0)
    rec = report.reconstruction
    assert not report.preserving and rec.status == STATUS_FAILED_VERIFICATION
    assert rec.probes_used == d + 2 + 2 * (block * size + k) + 2
    assert (report.trials, report.worst_violation) == (scored, worst)
    assert scored == (block + 1) * size and worst > CLASSIFY_TOL
    assert witness_bytes(report.witness_pair) == witness_bytes(witness) == (
        target[0].tobytes(), target[1].tobytes())
    groups = group_calls(200, d, through=scored)
    assert calls == [1] * (d + 2) + [2 * n for n in groups]


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


ORDER_DIMS = (2, 3, 4, 8, 32, 64)


def reference_leq(a, b):
    """Reference: the order rule by an eigensolve, row by row. The smallest
    eigenvalue of H = (B - A), hermitized, against the band
    ORDER_TOL * (1 + ||w||), w the spectrum of H."""
    w = np.linalg.eigvalsh(hermitize_stack(b - a))
    return w[:, 0] >= -ORDER_TOL * (1.0 + np.hypot.reduce(w, axis=-1))


def order_pairs(d):
    """Random pairs, nested pairs A <= A + B, pairs a factor 1 + 1e-9 or
    1 + 1e-6 apart, and rank-deficient ones, in both orders, as two
    (n, d, d) stacks."""
    rng = np.random.default_rng(d)
    ops = [random_density(rng, d, rank=r) for r in (d, 1, d, 2 if d > 2 else 1, d - 1, d)]
    pairs = []
    for x, y in zip(ops, ops[1:]):
        for big in (validate_density(x.matrix + y.matrix),
                    validate_density(x.matrix * (1 + 1e-9)),
                    validate_density(x.matrix * (1 + 1e-6)), y):
            pairs += [(x, big), (big, x)]
    return np.stack([a.matrix for a, _ in pairs]), np.stack([b.matrix for _, b in pairs])


def band_edge_pairs(d, rel, n=30):
    """n pairs A, B = A + H, A random of random rank, whose H has smallest
    eigenvalue -band * (1 + rel) for the band ORDER_TOL * (1 + ||w||) of its
    spectrum w: ordered by the rule exactly when rel < 0."""
    rng = np.random.default_rng([d, round(-np.log10(abs(rel))), rel > 0])
    a = np.stack([random_density(rng, d, rank=r).matrix for r in rng.integers(1, d + 1, n)])
    w = rng.uniform(0.0, rng.uniform(0.1, 10.0, (n, 1)), (n, d))
    for _ in range(3):  # the band depends on w[:, 0] too, damped by a factor ORDER_TOL
        w[:, 0] = -(1.0 + rel) * ORDER_TOL * (1.0 + np.hypot.reduce(w, axis=-1))
    u = haar_stack(ginibre(rng, (n, d, d)))
    return a, a + (u * w[:, None, :]) @ u.conj().swapaxes(-1, -2)


def rows_of(a, b):
    """all_leq of every row alone."""
    return [all_leq(a[k:k + 1], b[k:k + 1]) for k in range(len(a))]


@pytest.mark.parametrize("d", ORDER_DIMS)
def test_all_leq_decides_each_row_as_the_eigenvalue_rule(d):
    a, b = order_pairs(d)
    want = reference_leq(a, b).tolist()
    assert rows_of(a, b) == want
    assert any(want) and not all(want)


@pytest.mark.parametrize("d", ORDER_DIMS)
@pytest.mark.parametrize("rel", [-1e-3, 1e-3, -1e-6, 1e-6])
def test_all_leq_decides_the_band_edge_as_the_eigenvalue_rule(d, rel):
    a, b = band_edge_pairs(d, rel)
    want = reference_leq(a, b).tolist()
    assert want == [rel < 0] * len(a)
    assert rows_of(a, b) == want


@pytest.mark.parametrize("d", ORDER_DIMS)
def test_all_leq_is_all_of_is_leq(d):
    """A stack is ordered exactly when every row is, wherever its one
    incomparable row stands, and an empty stack is ordered."""
    a, b = order_pairs(d)
    rows = [is_leq(DensityOperator(matrix=x), DensityOperator(matrix=y)) for x, y in zip(a, b)]
    ok = np.flatnonzero(rows)
    assert all_leq(a, b) == all(rows) and all_leq(a[ok], b[ok])
    for k in np.flatnonzero(np.logical_not(rows)):
        for at in (0, len(ok) // 2, len(ok)):
            idx = np.insert(ok, at, k)
            assert not all_leq(a[idx], b[idx])
    assert all_leq(a[:0], b[:0])


def test_is_leq_decides_diagonal_pairs_at_every_scale():
    """diag(s, 0) against diag(0, s), both ways, and against s I, as the
    reference decides them, at s = 5e-324 and every decade from 1e-300 to
    1e300. At the subnormal end the band exceeds every entry."""
    for s in [5e-324] + [10.0 ** k for k in range(-300, 301)]:
        x, y, full = (DensityOperator(matrix=np.diag(v).astype(complex))
                      for v in ([s, 0.0], [0.0, s], [s, s]))
        for p, q in ((x, y), (y, x), (x, full)):
            assert is_leq(p, q) == reference_leq(p.matrix[None], q.matrix[None])[0], s
        want = (s < 1e-6, s < 1e-6, True)  # the band's kept absolute floor admits small pairs
        if s == 5e-324 or s >= 1e-6:
            assert (is_leq(x, y), is_leq(y, x), is_leq(x, full)) == want, s


def test_all_leq_rejects_stacks_of_different_shapes():
    a = psd_inputs(3)
    with pytest.raises(DimensionMismatch):
        all_leq(a, a[:-1])


# Entries whose halving or scaling is easy to get wrong: signed zeros, the
# smallest subnormal (halved to zero) and values near the float range.
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300])


def contract_inputs(d):
    """Stacks of d x d matrices: Gaussian entries, and entries drawn from
    SPECIAL for both parts."""
    rng = np.random.default_rng(100 + d)
    gauss = rng.normal(size=(4, d, d)) + 1j * rng.normal(size=(4, d, d))
    special = rng.choice(SPECIAL, size=(4, d, d)) + 1j * rng.choice(SPECIAL, size=(4, d, d))
    return [gauss, special]


def assert_same_value_and_nonzero_bits(new, old):
    """``new == old`` everywhere, and the same bits wherever old's real or
    imaginary part is nonzero: only the sign of a zero may differ."""
    old = np.ascontiguousarray(old, dtype=complex)
    assert np.array_equal(new, old)
    nv, ov = new.view(float), old.view(float)
    nonzero = ov != 0.0
    assert nv[nonzero].view(np.uint64).tolist() == ov[nonzero].view(np.uint64).tolist()


@pytest.mark.parametrize("d", (1, 2, 3, 8, 32, 64))
def test_hermitize_stack_contract(d):
    """hermitize_stack equals the division formula (M + M*)/2 in value, and
    bit for bit where that formula's part is nonzero; its imaginary diagonal
    is +0.0 exactly; a second application returns the same bits."""
    for m in contract_inputs(d):
        h = hermitize_stack(m)
        assert_same_value_and_nonzero_bits(h, (m + m.conj().swapaxes(-1, -2)) / 2)
        diag_im = np.diagonal(h, axis1=1, axis2=2).imag
        assert (diag_im == 0.0).all() and not np.signbit(diag_im).any()
        assert hermitize_stack(h).tobytes() == h.tobytes()


def test_hermitize_stack_accepts_any_layout_and_returns_a_fresh_array():
    """Read-only, non-contiguous, real and int inputs are accepted; the result
    is a fresh, writable, C-contiguous array that shares nothing with them."""
    m = contract_inputs(3)[0]
    frozen = m.copy()
    frozen.flags.writeable = False
    real = np.arange(18.0).reshape(2, 3, 3)
    for x in (m, frozen, m.swapaxes(-1, -2), real, real.astype(int)):
        h = hermitize_stack(x)
        assert h is not x and not np.shares_memory(h, x)
        assert h.flags.writeable and h.flags.c_contiguous and h.dtype == complex
        assert_same_value_and_nonzero_bits(h, (x + x.conj().swapaxes(-1, -2)) / 2)


@pytest.mark.parametrize("d", (1, 2, 3, 8, 32, 64))
def test_real_divide_equals_complex_division(d):
    """real_divide(m, s) is m / s in value, and bit for bit where the
    division's part is nonzero."""
    for m in contract_inputs(d):
        for s in (1.0, 3.0, 0.7, 1e-3, 1e3, np.abs(m).max() or 1.0):
            assert_same_value_and_nonzero_bits(real_divide(m, s), m / s)


@pytest.mark.parametrize("d", (1, 2, 3, 8, 32, 64))
def test_real_divide_is_the_float_view_times_the_reciprocal(d):
    """For every s in the normal range, the smallest included, real_divide
    has the bits of one multiply of m's float view by 1/s."""
    tiny = np.finfo(float).tiny
    for m in contract_inputs(d):
        for s in (1.0, 3.0, 0.7, 1e-3, 1e3, 1e-300, tiny, 1.5 * tiny):
            x = m * s
            want = (x.view(float) * (1.0 / s)).view(complex)
            assert real_divide(x, s).tobytes() == want.tobytes()


def test_real_divide_by_a_subnormal_does_not_overflow():
    """1/s overflows for s below about 5.6e-309; real_divide by such an s is
    m / s all the same, exact when s is a power of two."""
    for s in (1e-309, 1e-310, 7e-320, 5e-324):
        got = real_divide(np.diag([s, 0.0]), s)
        assert got == pytest.approx(np.diag([1.0, 0.0]), rel=1e-15, abs=0.0)
    m = np.array([[1.0, -0.5j], [0.5j, 0.25]])
    assert np.array_equal(real_divide(m * 2.0 ** -1070, 2.0 ** -1070), m)


def test_is_orthogonal_at_subnormal_scale():
    """An orthogonal pair stays orthogonal, and a parallel one does not
    become so, when one operator is scaled to a subnormal trace."""
    e1 = np.diag([1.0, 0.0]).astype(complex)
    e2 = np.diag([0.0, 1.0]).astype(complex)
    for s in (1e-300, 1e-310, 5e-324):
        a = DensityOperator(matrix=s * e1)
        assert is_orthogonal(a, DensityOperator(matrix=e2))
        assert is_orthogonal(DensityOperator(matrix=e2), a)
        assert not is_orthogonal(a, DensityOperator(matrix=e1))


def test_extend_normalized_at_subnormal_trace():
    """The identity map, extended by homogeneity, maps an operator of
    subnormal trace to itself: its inner map sees a unit-trace operator."""
    seen = []

    def identity(m):
        seen.append(m.copy())
        return m

    extended = extend_normalized(DensityMapOracle(2, identity))
    for s in (1e-310, 5e-324):
        a = DensityOperator.from_psd(np.diag([s, 0.0]))
        image = extended.evaluate(a)
        assert image is not None
        assert seen[-1][0] == pytest.approx(np.diag([1.0, 0.0]), rel=1e-15, abs=0.0)
        assert image.matrix == pytest.approx(a.matrix, rel=1e-12, abs=0.0)


def test_is_orthogonal_decides_as_the_division_formula():
    """is_orthogonal gives the decision of its old expression, with each
    operator divided by its largest |entry| through complex division."""
    def old(a, b):
        sa, sb = np.abs(a.matrix).max(), np.abs(b.matrix).max()
        x, y = a.matrix / sa, b.matrix / sb
        return bool(np.linalg.norm(x @ y) <= ORTH_TOL * np.linalg.norm(x) * np.linalg.norm(y))

    decisions = []
    for d in (2, 3, 8):
        rng = np.random.default_rng(d)
        p, q = orthogonal_pure_pair(rng, d)
        a, b = p.projection(), q.projection()
        ops = [a, b, random_density(rng, d), random_density(rng, d, rank=1)]
        ops += [from_psd_stack(a.matrix[None] * 1e-200 + b.matrix[None] * t)[0]
                for t in (0.0, 1e-300, 1e-250)]
        for x in ops:
            for y in ops:
                decisions.append(is_orthogonal(x, y))
                assert decisions[-1] == old(x, y)
    assert any(decisions) and not all(decisions)


def test_extend_normalized_divides_as_the_division_formula():
    """The inner map of extend_normalized sees a.matrix / tr a, the old
    complex division, in value and in every nonzero bit."""
    seen = []

    def identity(m):
        seen.append(m.copy())
        return m

    extended = extend_normalized(DensityMapOracle(3, identity))
    rng = np.random.default_rng(5)
    for scale in (1.0, 2.0, 0.3, 1e-12, 1e12):
        a = from_psd_stack(random_density(rng, 3).matrix[None] * scale)[0]
        extended.evaluate(a)
        assert_same_value_and_nonzero_bits(seen[-1], a.matrix[None] / a.trace)
