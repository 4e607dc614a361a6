"""Rank-one characterizations: spectral count, orthogonal certificate, and
the randomized order-totality probe must all agree."""
import numpy as np
import pytest

from fidsym.charact import (
    CertificateFailure,
    OrthogonalCertificate,
    ZeroOperator,
    _sample_minorants,
    is_rank_one,
    is_rank_one_projection,
    numerical_rank,
    order_totality_probe,
    rank_one_certificate,
)
from fidsym.fidelity import fidelity, is_orthogonal
from fidsym.matcore import pure_state, validate_density
from fidsym.sampling import haar_unitary, random_density
from fidsym.tolerances import ORDER_TOL


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
    assert not is_rank_one(validate_density(np.diag([1.0, 1e-6])))
    assert not is_rank_one(validate_density(np.zeros((2, 2))))


def test_is_rank_one_projection_examples():
    p = pure_state(np.eye(2)[0]).projection()
    assert is_rank_one_projection(p)
    assert not is_rank_one_projection(validate_density(0.5 * p.matrix))
    assert not is_rank_one_projection(validate_density(np.diag([0.5, 0.5])))


def test_projection_test_matches_fidelity_form():
    rng = np.random.default_rng(1)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        a = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
        expected = is_rank_one(a) and abs(fidelity(a, a) - 1.0) <= 1e-9
        assert is_rank_one_projection(a) == expected


@pytest.mark.parametrize("d", [2, 4, 8])
def test_characterization_agreement(d):
    rng = np.random.default_rng(d)
    for rank in range(1, d + 1):
        for _ in range(10):
            a = random_density(rng, d, rank=rank)
            cert = rank_one_certificate(a)
            assert is_rank_one(a) == isinstance(cert, OrthogonalCertificate)
            assert numerical_rank(a) == rank


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


def all_pairs_probe(a, samples=200, seed=0):
    """Reference: the same minorants, every pair of them comparable in one
    direction or the other."""
    mins = _sample_minorants(a, samples, np.random.default_rng(seed))
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
    """Spectrum (1, eps, ...): the neighbour chain and the all-pairs scan
    must flip from totally ordered to not at the same eps."""
    rng = np.random.default_rng(int(-np.log10(eps)))
    for d in (2, 3, 4):
        u = haar_unitary(rng, d)
        a = validate_density((u * np.array([1.0] + [eps] * (d - 1))) @ u.conj().T)
        assert order_totality_probe(a, seed=d) == all_pairs_probe(a, seed=d)
