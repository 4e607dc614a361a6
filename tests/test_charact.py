"""Rank-one characterizations: spectral count, orthogonal certificate, and
the randomized order-totality probe must all agree."""
import numpy as np
import pytest

from fidsym import charact
from fidsym.charact import (
    CertificateFailure,
    OrthogonalCertificate,
    ZeroOperator,
    _minorants,
    _sample_minorants,
    is_rank_one,
    is_rank_one_projection,
    numerical_rank,
    order_totality_probe,
    rank_one_certificate,
    spectral_rank,
)
from fidsym.fidelity import all_leq, fidelity, is_orthogonal
from fidsym.matcore import (
    DensityOperator,
    NotPositive,
    eig_hermitian,
    hermitize_stack,
    pure_state,
    sqrtm_psd,
    validate_density,
)
from fidsym.sampling import haar_unitary, random_density
from fidsym.tolerances import ORDER_TOL, TRACE_TOL


def test_certificate_for_basis_projection():
    p = pure_state(np.eye(2)[0]).projection()
    cert = rank_one_certificate(p)
    assert isinstance(cert, OrthogonalCertificate)
    assert len(cert.witnesses) == 1
    assert np.allclose(cert.witnesses[0].matrix, pure_state(np.eye(2)[1]).projection().matrix)


def test_certificate_fails_on_full_rank():
    cert = rank_one_certificate(validate_density(np.diag([0.5, 0.5])))
    assert isinstance(cert, CertificateFailure)
    assert cert.rank == 2


def test_certificate_for_superposition_d3():
    x = pure_state(np.ones(3))
    cert = rank_one_certificate(x.projection())
    assert isinstance(cert, OrthogonalCertificate)
    assert len(cert.witnesses) == 2
    ops = [x.projection()] + cert.witnesses
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            assert np.linalg.norm(ops[i].matrix @ ops[j].matrix) <= 1e-10
            assert is_orthogonal(ops[i], ops[j])


def test_certificate_rejects_zero():
    with pytest.raises(ZeroOperator):
        rank_one_certificate(validate_density(np.zeros((2, 2))))


def test_is_rank_one_examples():
    assert is_rank_one(pure_state([1.0, 1j]).projection())
    tiny = DensityOperator.from_psd(1e-13 * np.diag([1.0, 0.0]))
    assert numerical_rank(tiny) == 1 and is_rank_one(tiny)
    assert isinstance(rank_one_certificate(tiny), OrthogonalCertificate)
    assert not is_rank_one(validate_density(np.diag([1.0, 1e-6])))
    assert not is_rank_one(validate_density(np.zeros((2, 2))))
    assert numerical_rank(validate_density(np.zeros((2, 2)))) == 0


def test_is_rank_one_projection_examples():
    p = pure_state(np.eye(2)[0]).projection()
    assert is_rank_one_projection(p)
    assert not is_rank_one_projection(validate_density(0.5 * p.matrix))
    assert not is_rank_one_projection(validate_density(np.diag([0.5, 0.5])))


def test_a_large_negative_eigenvalue_counts_toward_the_rank():
    """diag(1.1, -0.1), built directly as a non-PSD oracle image might be,
    has unit trace and one positive eigenvalue, but rank two: it is no
    rank-one projection. -vv*, hermitized and built directly, has a largest
    eigenvalue of rounding, of either sign, but rank one against its
    largest modulus, 1 (not 0 or d): with trace -1, no projection either.
    The certificate reads the same spectrum and certifies it with witnesses
    orthogonal to it; the probe, as -vv* has no minorant but 0, raises
    NotPositive."""
    w = np.array([1.1, -0.1])
    assert spectral_rank(w) == 2
    a = DensityOperator(matrix=np.diag(w).astype(complex))
    assert numerical_rank(a) == 2
    assert not is_rank_one(a)
    assert not is_rank_one_projection(a)
    for d in (2, 3, 8):
        rng = np.random.default_rng(0)
        m = -pure_state(rng.normal(size=d) + 1j * rng.normal(size=d)).projection().matrix
        a = DensityOperator(matrix=hermitize_stack(m[None])[0])
        assert numerical_rank(a) == 1, d
        assert spectral_rank(eig_hermitian(a.matrix)[0]) == 1, d
        assert is_rank_one(a) and not is_rank_one_projection(a)
        cert = rank_one_certificate(a)
        assert isinstance(cert, OrthogonalCertificate) and len(cert.witnesses) == d - 1, d
        assert max(np.linalg.norm(w.matrix @ a.matrix) for w in cert.witnesses) <= 1e-15, d
        with pytest.raises(NotPositive, match="trace"):
            order_totality_probe(a)


def test_projection_test_matches_fidelity_form():
    rng = np.random.default_rng(1)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        a = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
        expected = is_rank_one(a) and abs(fidelity(a, a) - 1.0) <= 1e-9
        assert is_rank_one_projection(a) == expected


@pytest.mark.parametrize("d", [2, 4, 8])
def test_characterization_agreement(d):
    """At trace 1 and at every scale s = 10^k, k = -300 .. 300 in steps of
    20: the spectral count is the rank, and the certificate agrees."""
    rng = np.random.default_rng(d)
    for rank in range(1, d + 1):
        for _ in range(10):
            a = random_density(rng, d, rank=rank)
            for scaled in [a] + [DensityOperator.from_psd(a.matrix * 10.0 ** k)
                                 for k in range(-300, 301, 20)]:
                cert = rank_one_certificate(scaled)
                assert is_rank_one(scaled) == isinstance(cert, OrthogonalCertificate)
                assert numerical_rank(scaled) == rank


def test_certificate_soundness_random():
    rng = np.random.default_rng(9)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        a = random_density(rng, d, rank=1)
        cert = rank_one_certificate(a)
        assert isinstance(cert, OrthogonalCertificate)
        ops = [a] + cert.witnesses
        for i in range(len(ops)):
            assert ops[i].trace > 1e-12
            for j in range(i + 1, len(ops)):
                assert is_orthogonal(ops[i], ops[j])


def test_probe_rank_one_true():
    assert order_totality_probe(pure_state(np.eye(2)[0]).projection(), samples=100, seed=0)


def test_probe_full_rank_false():
    assert not order_totality_probe(
        validate_density(np.diag([0.5, 0.5])), samples=100, seed=0
    )
    for t in (1e-8, 1e-9, 1e-300):
        assert not order_totality_probe(DensityOperator.from_psd(t * np.diag([0.6, 0.4]))), t


def test_probe_scaling_irrelevant():
    p = pure_state(np.eye(2)[0]).projection()
    scaled = validate_density(3.0 * p.matrix)
    assert order_totality_probe(scaled, samples=100, seed=1)


def test_probe_rejects_zero():
    with pytest.raises(ZeroOperator):
        order_totality_probe(validate_density(np.zeros((2, 2))))


def test_probe_consistency_with_rank():
    rng = np.random.default_rng(123)
    agree = 0
    trials = 60
    for t in range(trials):
        d = int(rng.integers(2, 5))
        rank = int(rng.integers(1, d + 1))
        a = random_density(rng, d, rank=rank)
        if order_totality_probe(a, samples=200, seed=t) == is_rank_one(a):
            agree += 1
    assert agree / trials >= 0.99


@pytest.mark.parametrize("samples", [0, 1])
def test_probe_needs_two_samples(samples):
    with pytest.raises(ValueError, match="samples >= 2"):
        order_totality_probe(validate_density(np.diag([0.5, 0.5])), samples=samples)


@pytest.mark.parametrize("samples", [2.5, 200.0, True])
def test_probe_needs_an_integer_sample_count(samples):
    """A float, even an integral one, or a bool is no sample count: a
    ValueError for a rank-one operator and a rank-two one alike, not a
    TypeError from the draw or an answer from the first three samples."""
    for diag in ([1.0, 0.0], [0.5, 0.5]):
        with pytest.raises(ValueError, match="samples must be an integer, got"):
            order_totality_probe(validate_density(np.diag(diag)), samples=samples)


def test_probe_reads_a_numpy_integer_sample_count_as_its_int():
    for rank in (1, 2, 3):
        a = random_density(np.random.default_rng(rank), 3, rank=rank)
        assert order_totality_probe(a, samples=np.int64(50)) is order_totality_probe(a, 50)


def loop_minorants(a, samples, rng):
    """Reference: the draws in the sampler's order (every real part of the
    Ginibre block, every imaginary part, then every u), each minorant built
    alone as u A^{1/2} rho A^{1/2}, rho = W*W / tr(W*W)."""
    d = a.dim
    root = sqrtm_psd(a.matrix)
    re = rng.normal(size=(samples, d, d))
    im = rng.normal(size=(samples, d, d))
    u = rng.uniform(0.0, 1.0, size=samples)
    out = np.empty((samples, d, d), dtype=complex)
    for i in range(samples):
        w = re[i] + 1j * im[i]
        m = w.conj().T @ w
        m /= np.trace(m).real
        m *= u[i]
        out[i] = root @ m @ root
    return out


def staged_factors(a, samples, rng):
    """The probe's factors and row scales in draw order: min(samples, 3)
    from one _sample_minorants call, then the other samples - 3 from a
    second call on the same stream."""
    root = sqrtm_psd(a.matrix)
    first = min(samples, 3)
    x, s = _sample_minorants(root, first, rng)
    if samples == first:
        return x, s
    rest, rest_s = _sample_minorants(root, samples - first, rng)
    return np.concatenate((x, rest)), np.concatenate((s, rest_s))


def formed_minorants(a, samples, rng):
    """Every minorant of the probe's two draws, formed in draw order."""
    x, s = staged_factors(a, samples, rng)
    return _minorants(x, s, np.arange(samples))


@pytest.mark.parametrize("d", range(1, 9))
def test_sample_minorants_matches_reference_loop(d):
    """Same minorants to rounding once formed from the factors, and the same
    RNG stream afterwards."""
    rng = np.random.default_rng(40 + d)
    for rank in range(1, d + 1):
        a = random_density(rng, d, rank=rank)
        for samples in (2, 3, 200):
            for seed in range(5):
                got_rng = np.random.default_rng(seed)
                ref_rng = np.random.default_rng(seed)
                x, scale = _sample_minorants(sqrtm_psd(a.matrix), samples, got_rng)
                got = _minorants(x, scale, np.arange(samples))
                ref = loop_minorants(a, samples, ref_rng)
                assert x.shape == got.shape == (samples, d, d) and scale.shape == (samples,)
                assert np.max(np.abs(got - ref)) <= 1e-13, (rank, samples, seed)
                assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def count_solves(monkeypatch):
    """Wrap np.linalg.eigh, eigvalsh and cholesky; the returned dict counts
    their calls."""
    calls = {"eigh": 0, "eigvalsh": 0, "cholesky": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("d", [2, 3, 8])
def test_sample_minorants_runs_no_eigensolve(monkeypatch, d):
    """The sampler is given A^{1/2} and runs no eigensolve; the probe's one
    eigendecomposition is sqrtm_psd's, of A itself, shared by its two draws,
    and each of its two all_leq calls is one Cholesky factorization."""
    a = random_density(np.random.default_rng(d), d, rank=2)
    root = sqrtm_psd(a.matrix)
    calls = count_solves(monkeypatch)
    _sample_minorants(root, 200, np.random.default_rng(0))
    assert calls == {"eigh": 0, "eigvalsh": 0, "cholesky": 0}
    assert order_totality_probe(pure_state(np.eye(d)[0]).projection())
    assert calls == {"eigh": 1, "eigvalsh": 0, "cholesky": 2}


def test_probe_runs_one_cholesky_and_no_eigenvalue_solve_on_an_incomparable_first_pair(monkeypatch):
    """On the rank-two operator of test_probe_rows_read: sqrtm_psd's eigh,
    then the first three minorants' two-row all_leq, one Cholesky
    factorization."""
    rank_two = validate_density(np.diag([0.5, 0.5, 0.0]))
    calls = count_solves(monkeypatch)
    assert not order_totality_probe(rank_two, seed=2)
    assert calls == {"eigh": 1, "eigvalsh": 0, "cholesky": 1}


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_sample_minorants_lie_between_zero_and_u_a(d):
    """0 <= D_k <= u_k A for every row, within a rounding band, where u_k
    is the row's uniform draw, read from the same stream."""
    rng = np.random.default_rng(90 + d)
    samples = 50
    for rank in range(1, d + 1):
        a = random_density(rng, d, rank=rank, trace=float(rng.uniform(0.5, 2.0)))
        mins = formed_minorants(a, samples, np.random.default_rng(rank))
        ref_rng = np.random.default_rng(rank)
        u = []
        for n in (3, samples - 3):
            ref_rng.normal(size=(n, d, d))
            ref_rng.normal(size=(n, d, d))
            u.append(ref_rng.uniform(0.0, 1.0, size=n))
        u = np.concatenate(u)
        band = 1e-13 * a.trace
        assert np.linalg.eigvalsh(mins)[:, 0].min() >= -band, rank
        gap = np.linalg.eigvalsh(u[:, None, None] * a.matrix - mins)
        assert gap[:, 0].min() >= -band, rank


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_probe_is_scale_free_from_1e_minus_300_to_1e300(d):
    """rank == 1 at every trace 10^k, k = -300 .. 300 in steps of 10, every
    rank and seeds 0-2: the probe scores the minorants of A brought to a
    trace in [1/2, 2), where ORDER_TOL's absolute floor is not reached."""
    rng = np.random.default_rng(110 + d)
    for rank in range(1, d + 1):
        shape = random_density(rng, d, rank=rank, trace=1.0).matrix
        for k in range(-300, 301, 10):
            a = DensityOperator.from_psd(shape * 10.0 ** k)
            for seed in range(3):
                assert order_totality_probe(a, seed=seed) == (rank == 1), (rank, k, seed)


@pytest.mark.parametrize("d", [16, 32, 64])
def test_probe_is_rank_one_at_large_d(d):
    """rank == 1 for random operators of ranks 1, 2, 3 and d, seeds 0-2:
    at d = 32 and 64 more than half of rank-two operators pass the first
    three minorants and are decided by the chain of all 200."""
    rng = np.random.default_rng(d)
    for rank in (1, 2, 3, d):
        a = random_density(rng, d, rank=rank)
        for seed in range(3):
            assert order_totality_probe(a, seed=seed) == (rank == 1), (rank, seed)


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_probe_is_rank_one_at_every_rank(d):
    """rank == 1 for six random operators of every rank, traces drawn in
    [0.5, 2), each probed at seeds 0-9."""
    rng = np.random.default_rng(230 + d)
    for rank in range(1, d + 1):
        for _ in range(6):
            a = random_density(rng, d, rank=rank, trace=float(rng.uniform(0.5, 2.0)))
            for seed in range(10):
                assert order_totality_probe(a, seed=seed) == (rank == 1), (rank, a.trace, seed)


def test_probe_runs_no_svd(monkeypatch):
    real_norm = np.linalg.norm

    def norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            raise AssertionError("spectral norm (an SVD) taken in the probe")
        return real_norm(x, ord, *args, **kwargs)

    def svd(*args, **kwargs):
        raise AssertionError("SVD taken in the probe")

    monkeypatch.setattr(np.linalg, "norm", norm)
    monkeypatch.setattr(np.linalg, "svd", svd)
    rng = np.random.default_rng(8)
    for rank in (1, 2, 3):
        a = random_density(rng, 3, rank=rank)
        assert order_totality_probe(a, samples=50, seed=rank) == (rank == 1)


def all_pairs_probe(a, samples=200, seed=0):
    """Reference: the same minorants, every pair of them comparable in one
    direction or the other."""
    mins = formed_minorants(a, samples, np.random.default_rng(seed))
    ii, jj = np.triu_indices(samples, k=1)
    diff = mins[ii] - mins[jj]
    tol = ORDER_TOL * (1.0 + np.linalg.norm(diff, axis=(1, 2)))
    w = np.linalg.eigvalsh(diff)
    return bool(np.all((w[:, 0] >= -tol) | (w[:, -1] <= tol)))


def test_probe_matches_all_pairs_scan():
    rng = np.random.default_rng(123)
    for t in range(60):
        d = int(rng.integers(2, 5))
        a = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
        assert order_totality_probe(a, samples=200, seed=t) == all_pairs_probe(a, 200, t)


@pytest.mark.parametrize("eps", [1e-14, 1e-12, 1e-11, 1e-10, 1e-8, 1e-6, 1e-4])
def test_probe_matches_all_pairs_scan_near_rank_one(eps):
    """Spectrum (1, eps, ...): the probe, the neighbour chains and the
    all-pairs scan must flip from totally ordered to not at the same eps,
    which lies between 1e-12 and 1e-11."""
    rng = np.random.default_rng(int(-np.log10(eps)))
    for d in (2, 3, 4):
        u = haar_unitary(rng, d)
        a = validate_density((u * np.array([1.0] + [eps] * (d - 1))) @ u.conj().T)
        got = order_totality_probe(a, seed=d)
        assert got == all_pairs_probe(a, seed=d)
        assert got == neighbour_scan_probe(a, seed=d)
        assert got == (eps <= 1e-12), d


def chain_ordered(mins):
    """Reference: every neighbour pair of the stack in its stable trace
    order scored in one all_leq call."""
    s = mins[np.argsort(np.trace(mins, axis1=1, axis2=2).real, kind="stable")]
    return all_leq(s[:-1], s[1:])


def first_chain_ordered(a, samples, seed):
    """Reference: whether the probe's first draw, min(samples, 3)
    minorants, is totally ordered; if not, the probe stops there."""
    return chain_ordered(formed_minorants(a, min(samples, 3), np.random.default_rng(seed)))


def neighbour_scan_probe(a, samples=200, seed=0):
    """Reference: the probe's two stages, the chain of the first three
    minorants drawn and then the chain of all of them."""
    mins = formed_minorants(a, samples, np.random.default_rng(seed))
    return chain_ordered(mins[:3]) and chain_ordered(mins)


@pytest.mark.parametrize("d", [2, 3, 4, 8])
@pytest.mark.parametrize("samples", [2, 3, 200])
def test_probe_matches_single_neighbour_scan(d, samples):
    """Scoring the first three drawn, then the chain of all, decides as the
    two reference scans, at every rank."""
    rng = np.random.default_rng(70 + d)
    for rank in range(1, d + 1):
        a = random_density(rng, d, rank=rank)
        for seed in range(3):
            want = neighbour_scan_probe(a, samples, seed)
            assert order_totality_probe(a, samples=samples, seed=seed) == want, (rank, seed)


@pytest.mark.parametrize("samples", [2, 3, 4, 200])
def test_probe_rows_read(monkeypatch, samples):
    """The first draw's pairs are scored first, in one call: a rank-two
    operator with an incomparable pair among them reads [1] at samples = 2
    and [2] above, a rank-one operator those rows and then the chain of all
    samples - 1 pairs in one more call."""
    rank_two = validate_density(np.diag([0.5, 0.5, 0.0]))
    assert not first_chain_ordered(rank_two, samples, seed=2)
    pairs = min(samples - 1, 2)
    rows = []
    real_all_leq = charact.all_leq

    def counting_all_leq(a, b):
        rows.append(len(a))
        return real_all_leq(a, b)

    monkeypatch.setattr(charact, "all_leq", counting_all_leq)
    assert not order_totality_probe(rank_two, samples=samples, seed=2)
    assert rows == [pairs]
    rows.clear()
    assert order_totality_probe(pure_state([1.0, 1j, 0.5]).projection(), samples=samples, seed=0)
    assert rows == {2: [1], 3: [2]}.get(samples, [2, samples - 1])


@pytest.mark.parametrize("d", [2, 3, 8])
def test_first_three_minorants_do_not_depend_on_samples(monkeypatch, d):
    """The first draw is the same whatever the sample count: the three
    minorants the probe forms first have the same bytes at samples = 3, 4
    and 200."""
    firsts = []
    real = charact._minorants

    def recorded(x, s, rows):
        m = real(x, s, rows)
        firsts.append(m.tobytes())
        return m

    monkeypatch.setattr(charact, "_minorants", recorded)
    rng = np.random.default_rng(200 + d)
    for rank in range(1, d + 1):
        a = random_density(rng, d, rank=rank)
        for seed in range(3):
            got = []
            for samples in (3, 4, 200):
                firsts.clear()
                order_totality_probe(a, samples=samples, seed=seed)
                got.append(firsts[0])
            assert len(got[0]) == 3 * d * d * 16 and got == [got[0]] * 3, (rank, seed)


def recording_minorants(monkeypatch):
    """Wrap charact._minorants; the returned list holds the rows asked of
    each call, in call order."""
    calls = []
    real = charact._minorants

    def recorded(x, s, rows):
        calls.append(rows)
        return real(x, s, rows)

    monkeypatch.setattr(charact, "_minorants", recorded)
    return calls


@pytest.mark.parametrize("d", [2, 3, 4, 8])
@pytest.mark.parametrize("samples", [2, 3, 4, 200])
def test_probe_forms_only_the_minorants_it_scores(monkeypatch, d, samples):
    """One Ginibre block of min(samples, 3) factors, whose minorants are
    formed and scored; when the first draw is not all and its minorants are
    ordered, a second block of the other samples - 3, and then all samples
    minorants formed. From samples = 4 up the early exit is met, and skips
    the second draw."""
    calls = recording_minorants(monkeypatch)
    shapes = []
    real = charact.ginibre

    def logged(rng, shape):
        shapes.append(shape)
        return real(rng, shape)

    monkeypatch.setattr(charact, "ginibre", logged)
    rng = np.random.default_rng(150 + d)
    first = min(samples, 3)
    early = 0
    for rank in range(1, d + 1):
        a = random_density(rng, d, rank=rank)
        for seed in range(3):
            decided = not first_chain_ordered(a, samples, seed)
            calls.clear()
            shapes.clear()
            order_totality_probe(a, samples=samples, seed=seed)
            stop = decided or samples <= 3
            assert shapes == [(first, d, d)] + ([] if stop else [(samples - 3, d, d)]), (rank, seed)
            assert [len(rows) for rows in calls] == [first] + ([] if stop else [samples]), (rank, seed)
            early += decided and samples > 3
    assert early > 0 or samples <= 3


@pytest.mark.parametrize("d", [2, 3, 4, 8])
@pytest.mark.parametrize("samples", [3, 200])
def test_factor_trace_order_is_the_trace_order_of_the_formed_minorants(monkeypatch, d, samples):
    """With every pair scored as ordered the probe forms all its minorants,
    and the rows of each call, in order, are a stable argsort of np.trace of
    the formed minorants of its draw (the first three, then all), at every
    rank; formed in the probe's calls they have the bits they have when all
    are formed at once."""
    calls = recording_minorants(monkeypatch)
    monkeypatch.setattr(charact, "all_leq", lambda a, b: True)
    rng = np.random.default_rng(170 + d)
    for rank in range(1, d + 1):
        a = random_density(rng, d, rank=rank)
        for seed in range(3):
            calls.clear()
            assert order_totality_probe(a, samples=samples, seed=seed)
            x, scale = staged_factors(a, samples, np.random.default_rng(seed))
            mins = _minorants(x, scale, np.arange(samples))
            traces = np.trace(mins, axis1=1, axis2=2).real
            want = [np.argsort(traces[:n], kind="stable") for n in sorted({3, samples})]
            assert len(calls) == len(want), (rank, seed)
            for rows, order in zip(calls, want):
                np.testing.assert_array_equal(rows, order, err_msg=f"{rank} {seed}")
                assert _minorants(x, scale, rows).tobytes() == mins[order].tobytes(), (rank, seed)


def spectral_rule(a):
    """Reference: the spectral rule itself, from one full eigendecomposition,
    with the trace read from the matrix."""
    rank = spectral_rank(eig_hermitian(a.matrix)[0])
    return rank == 1 and abs(a.matrix.diagonal().real.sum() - 1.0) <= TRACE_TOL


def near_projections(rng, d, eps):
    """Images with spectrum (1 - eps, eps, 0, ...), (1 - eps, eps U(0,1), ...)
    and its unit-trace version (1 - eps sum U, eps U(0,1), ...)."""
    u = haar_unitary(rng, d)
    tail = eps * rng.uniform(size=d - 1)
    spectra = [np.r_[1.0 - eps, eps, np.zeros(d - 2)],
               np.r_[1.0 - eps, tail],
               np.r_[1.0 - tail.sum(), tail]]
    return [DensityOperator.from_psd((u * w) @ u.conj().T) for w in spectra]


EPS_SWEEP = [10.0 ** (k / 2) for k in range(-28, -9)]  # 1e-14 .. 1e-5, half decades


@pytest.mark.parametrize("d", [2, 3, 4, 8, 32, 64])
def test_projection_vector_decides_as_the_spectral_rule(d):
    rng = np.random.default_rng(700 + d)
    accepted = []  # of the spectrum (1 - eps, eps, 0, ...), by eps
    for eps in EPS_SWEEP:
        for family, a in enumerate(near_projections(rng, d, eps)):
            yes = is_rank_one_projection(a)
            assert yes == spectral_rule(a), (d, eps, family)
            if family == 0:
                accepted.append(yes)
    # the sweep crosses RANK_TOL: accepted at small eps, rejected at large eps
    assert accepted[0] and not accepted[-1]


def odd_images(d):
    """Images that are not rank-one projections, or are only near the edges
    of the rule; matrices built directly, as a misbehaving oracle might."""
    rng = np.random.default_rng(d)
    p = pure_state(rng.normal(size=d) + 1j * rng.normal(size=d)).projection().matrix
    q = pure_state(rng.normal(size=d) + 1j * rng.normal(size=d)).projection().matrix
    yield DensityOperator(matrix=-p)
    yield DensityOperator.from_psd(2.0 * p)
    yield DensityOperator.from_psd(0.5 * p)
    yield DensityOperator.from_psd(np.zeros((d, d)))
    yield DensityOperator(matrix=np.zeros((d, d), dtype=complex))
    yield DensityOperator.from_psd(p * (1.0 + 2e-9))
    yield DensityOperator.from_psd(p * (1.0 + 5e-10))
    # matrix tiny: rank two at 1e-9, rank one at 1e-13 and 1e-9, as at scale 1
    yield DensityOperator(matrix=1e-9 * (p + 0.5 * q))
    yield DensityOperator(matrix=1e-13 * p)
    yield DensityOperator(matrix=1e-9 * p)
    # unit trace, not PSD
    yield DensityOperator.from_psd(p + 0.1 * q - 0.1 * pure_state(np.eye(d)[0]).projection().matrix)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_projection_vector_on_odd_images(d):
    for a in odd_images(d):
        assert is_rank_one_projection(a) == spectral_rule(a)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
def test_projection_vector_reads_the_trace_from_the_matrix(d):
    """A unit projection scaled by 1e-9, built directly, is not a
    projection; the unit projection itself, built directly, is."""
    rng = np.random.default_rng(60 + d)
    p = pure_state(rng.normal(size=d) + 1j * rng.normal(size=d)).projection().matrix
    assert not is_rank_one_projection(DensityOperator(matrix=1e-9 * p))
    assert is_rank_one_projection(DensityOperator(matrix=p))


def test_projection_vector_raises_on_nan_like_the_spectral_rule():
    """A NaN entry, of a unit-trace projection or everywhere, reaches the
    eigensolver, which raises ValueError, so is_rank_one_projection raises
    as the spectral rule and is_rank_one do."""
    m = pure_state([1.0, 1.0]).projection().matrix.copy()
    m[0, 1] = np.nan
    for a in (DensityOperator(matrix=m), DensityOperator(matrix=np.full((2, 2), np.nan + 0j))):
        for test in (spectral_rule, is_rank_one_projection, is_rank_one):
            with pytest.raises(ValueError, match="finite"):
                test(a)



def test_directly_built_zero_matrix_is_zero():
    """The zero checks of the probe and the certificate read the matrix,
    also for an operator built without from_psd."""
    for d in (2, 3, 8):
        zero = DensityOperator(matrix=np.zeros((d, d), dtype=complex))
        with pytest.raises(ZeroOperator):
            order_totality_probe(zero)
        with pytest.raises(ZeroOperator):
            rank_one_certificate(zero)


def test_directly_built_projection_is_not_zero():
    p = pure_state([1.0, 1j]).projection()
    direct = DensityOperator(matrix=p.matrix)
    assert order_totality_probe(direct, samples=100, seed=0)
    cert = rank_one_certificate(direct)
    assert isinstance(cert, OrthogonalCertificate) and len(cert.witnesses) == 1
