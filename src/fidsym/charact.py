"""Structural characterizations of rank-one operators.

Three routes to the same property: a spectral count, a constructive
certificate of d-1 mutually orthogonal nonzero witnesses, and a randomized
probe of the total ordering of minorants.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fidelity import all_leq
from .matcore import DensityOperator, eig_hermitian, eigvalsh_stack, from_psd_stack, row_sumsq, sqrtm_psd
from .sampling import ginibre
from .tolerances import CERT_TOL, RANK_TOL, TRACE_TOL


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
    RANK_TOL times the largest in modulus, so that a large negative
    eigenvalue counts too, or 0 when the largest is at most CERT_TOL."""
    top = float(w[0])
    if top <= CERT_TOL:
        return 0
    return int(np.count_nonzero(np.abs(w) > RANK_TOL * top))


def numerical_rank(a: DensityOperator) -> int:
    """spectral_rank of A's eigenvalues, from an eigenvalue-only solve."""
    return spectral_rank(eigvalsh_stack(a.matrix[None])[0])


def rank_one_certificate(a: DensityOperator) -> OrthogonalCertificate | CertificateFailure:
    """Certificate that A has rank one: projections onto an orthonormal basis
    of the orthogonal complement of range(A), wrapped from one stack vv*
    over the eigenvectors past the first.

    For rank >= 2 no certificate can exist (mutually orthogonal ranges force
    rank sums <= d), so the numerical rank is returned as evidence. A trace
    at most CERT_TOL raises ZeroOperator.
    """
    if a.trace <= CERT_TOL:
        raise ZeroOperator("certificate requires a nonzero operator")
    spec = eig_hermitian(a.matrix)
    rank = spectral_rank(spec.eigenvalues)
    if rank != 1:
        return CertificateFailure(rank=rank)
    v = spec.eigenvectors[:, 1:].T
    return OrthogonalCertificate(witnesses=from_psd_stack(v[:, :, None] * v[:, None, :].conj()))


def is_rank_one(a: DensityOperator) -> bool:
    return numerical_rank(a) == 1


def projection_vector(a: DensityOperator) -> Optional[np.ndarray]:
    """Unit vector v with A = vv* if A is a rank-one projection, else None.

    The rule is the spectral one, read from one eig_hermitian: rank one
    (``spectral_rank``, so a unit-trace image with a negative eigenvalue
    beyond RANK_TOL times the largest, as diag(1.1, -0.1), is rejected) and
    a trace within TRACE_TOL of 1, summed from the matrix's diagonal. A NaN
    or infinite entry makes eig_hermitian raise ValueError, as is_rank_one
    does.
    """
    spec = eig_hermitian(a.matrix)
    unit_trace = abs(a.matrix.diagonal().real.sum() - 1.0) <= TRACE_TOL
    return spec.eigenvectors[:, 0] if unit_trace and spectral_rank(spec.eigenvalues) == 1 else None


def is_rank_one_projection(a: DensityOperator) -> bool:
    """Rank one with trace 1; equivalently rank one with F(A,A) = 1."""
    return projection_vector(a) is not None


def _sample_minorants(a: DensityOperator, samples: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random operators D with 0 <= D <= A, drawn as their Wishart factors.

    One Ginibre block of W is drawn, then one uniform block u. Returned are
    the factors X_k = W_k A^{1/2} and the row scales s_k = u_k / ||W_k||_F^2,
    so that _minorants forms D_k = s_k X_k* X_k, that is
    u_k A^{1/2} rho_k A^{1/2} for the Wishart density operator
    rho_k = W_k* W_k / tr(W_k* W_k). As 0 <= rho_k <= I, 0 <= D_k <= u_k A
    <= A, with no rejection and no eigensolve: every X_k comes from one tall
    product of the (samples d, d) block with A^{1/2}, and every ||W_k||_F^2
    from one row_sumsq. tr D_k is s_k ||X_k||_F^2, so D_k need not be formed
    to be sorted.
    """
    d = a.dim
    root = sqrtm_psd(a.matrix)
    w = ginibre(rng, (samples, d, d))
    u = rng.uniform(0.0, 1.0, size=samples)
    x = (w.reshape(-1, d) @ root).reshape(samples, d, d)
    return x, u / row_sumsq(w)


def _minorants(x: np.ndarray, s: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """D_k = s_k X_k* X_k for each k of rows, as one stacked product; a row
    has the same bits whichever other rows are formed with it."""
    xr = x[rows]
    m = xr.conj().swapaxes(-1, -2) @ xr
    m *= s[rows][:, None, None]
    return m


def order_totality_probe(a: DensityOperator, samples: int = 200, seed: int = 0) -> bool:
    """Probe whether the minorants of A are totally ordered.

    The samples are _sample_minorants' u A^{1/2} rho A^{1/2}, rho a Wishart
    density operator. True for rank-one A (every minorant is a
    sub-multiple); for rank >= 2 an incomparable pair is found with
    overwhelming probability at default sample counts. As D <= E implies
    tr D <= tr E, the samples are totally ordered exactly when each lies
    below its successor in trace order. That order is a stable argsort of
    the factor traces s ||X||_F^2, taken before any minorant is formed. The
    three lowest minorants are formed first and their two neighbour pairs
    scored in one all_leq call of two rows; they decide 97-99% of random
    rank >= 2 operators (d = 2, 3, 4, 8, 200 samples), and the probe then
    returns False having formed 3 minorants. Only if both pairs are ordered
    are the other samples - 3 minorants formed and their samples - 3 pairs
    scored, in one more call: rows per call are [1] at samples = 2, [2] at
    3 and [2, samples - 3] above. Each call asks whether every one of its
    rows is ordered, so the answer is that of one all_leq call over all
    samples - 1 pairs. No eigensolve decides a pair: each call is one
    Cholesky factorization of its stack of shifted differences. A trace at
    most CERT_TOL raises ZeroOperator.

    The answer is rank == 1 at traces from 1e-6 to 1e6 (tested at d <= 8)
    and at d up to 64. Below that range all_leq's absolute ORDER_TOL floor
    decides: the minorants of a rank >= 2 operator of small enough trace all
    compare within the band, and it may be reported as rank one (at d <= 8,
    from a trace of 1e-7 down; ROADMAP item 12).
    """
    if samples < 2:
        raise ValueError(f"probe needs samples >= 2, got {samples}")
    if a.trace <= CERT_TOL:
        raise ZeroOperator("probe requires a nonzero operator")
    rng = np.random.default_rng(seed)
    x, s = _sample_minorants(a, samples, rng)
    order = np.argsort(s * row_sumsq(x), kind="stable")
    low = _minorants(x, s, order[:3])
    if not all_leq(low[:-1], low[1:]):
        return False
    if samples <= 3:
        return True
    chain = np.concatenate((low[2:], _minorants(x, s, order[3:])))
    return all_leq(chain[:-1], chain[1:])
