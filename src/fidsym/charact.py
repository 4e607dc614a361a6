"""Structural characterizations of rank-one operators.

Three routes to the same property: a spectral count, a constructive
certificate of d-1 mutually orthogonal nonzero witnesses, and a randomized
probe of the total ordering of minorants.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import DensityOperator, eig_hermitian, sqrtm_psd
from .tolerances import CERT_TOL, ORDER_TOL, RANK_TOL, TRACE_TOL


class ZeroOperator(ValueError):
    """The operator is numerically zero where a nonzero one is required."""


@dataclass(frozen=True)
class OrthogonalCertificate:
    """d-1 nonzero density operators, pairwise orthogonal to each other and
    to the certified operator."""

    witnesses: list[DensityOperator]


@dataclass(frozen=True)
class CertificateFailure:
    """No certificate exists; carries the numerical rank as evidence."""

    rank: int


def spectral_rank(w: np.ndarray) -> int:
    """Numerical rank from non-increasing eigenvalues: how many exceed
    RANK_TOL times the largest, or 0 when the largest is at most CERT_TOL."""
    top = float(w[0])
    if top <= CERT_TOL:
        return 0
    return int(np.count_nonzero(w > RANK_TOL * top))


def is_projection_spectrum(w: np.ndarray, trace: float) -> bool:
    """Rank one with trace 1, from the eigenvalues and trace of an operator."""
    return spectral_rank(w) == 1 and abs(trace - 1.0) <= TRACE_TOL


def numerical_rank(a: DensityOperator) -> int:
    return spectral_rank(eig_hermitian(a.matrix).eigenvalues)


def rank_one_certificate(a: DensityOperator) -> OrthogonalCertificate | CertificateFailure:
    """Certificate that A has rank one: projections onto an orthonormal basis
    of the orthogonal complement of range(A).

    For rank >= 2 no certificate can exist (mutually orthogonal ranges force
    rank sums <= d), so the numerical rank is returned as evidence.
    """
    if a.trace <= CERT_TOL:
        raise ZeroOperator("certificate requires a nonzero operator")
    spec = eig_hermitian(a.matrix)
    rank = spectral_rank(spec.eigenvalues)
    if rank != 1:
        return CertificateFailure(rank=rank)
    witnesses = []
    for i in range(1, a.dim):
        v = spec.eigenvectors[:, i]
        witnesses.append(DensityOperator.from_psd(np.outer(v, v.conj())))
    return OrthogonalCertificate(witnesses=witnesses)


def is_rank_one(a: DensityOperator) -> bool:
    return numerical_rank(a) == 1


def is_rank_one_projection(a: DensityOperator) -> bool:
    """Rank one with trace 1; equivalently rank one with F(A,A) = 1."""
    return is_projection_spectrum(eig_hermitian(a.matrix).eigenvalues, a.trace)


def _sample_minorants(a: DensityOperator, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Random operators D with 0 <= D <= A, as A^{1/2} M A^{1/2} for random
    PSD contractions M scaled by u in (0, 1]. No rejection needed."""
    d = a.dim
    root = sqrtm_psd(a.matrix)
    out = np.empty((samples, d, d), dtype=complex)
    for i in range(samples):
        w = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = w.conj().T @ w
        m /= np.linalg.norm(m, 2)
        m *= rng.uniform(0.0, 1.0)
        out[i] = root @ m @ root
    return out


def order_totality_probe(a: DensityOperator, samples: int = 200, seed: int = 0) -> bool:
    """Probe whether the minorants of A are totally ordered.

    True for rank-one A (every minorant is a sub-multiple); for rank >= 2 an
    incomparable pair is found with overwhelming probability at default
    sample counts.
    """
    if a.trace <= CERT_TOL:
        raise ZeroOperator("probe requires a nonzero operator")
    rng = np.random.default_rng(seed)
    mins = _sample_minorants(a, samples, rng)
    ii, jj = np.triu_indices(samples, k=1)
    chunk = 4096
    for start in range(0, ii.size, chunk):
        i = ii[start : start + chunk]
        j = jj[start : start + chunk]
        diff = mins[i] - mins[j]
        tol = ORDER_TOL * (1.0 + np.linalg.norm(diff, axis=(1, 2)))
        w = np.linalg.eigvalsh(diff)
        comparable = (w[:, 0] >= -tol) | (w[:, -1] <= tol)
        if not np.all(comparable):
            return False
    return True
