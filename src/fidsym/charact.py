"""Structural characterizations of rank-one operators.

Three routes to the same property: a spectral count, a constructive
certificate of d-1 mutually orthogonal nonzero witnesses, and a randomized
probe of the total ordering of minorants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fidelity import leq_stack
from .matcore import DensityOperator, eig_hermitian, eigvalsh_stack, from_psd_stack, sqrtm_psd
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

    The rule is the spectral one: rank one (``spectral_rank``) and a trace
    within TRACE_TOL of 1, summed from the diagonal that also gives the
    power step's start. Most images are decided in O(d^2), without an
    eigendecomposition. With P = A and k the index of its largest diagonal
    entry, one power step gives the unit vector x = P(P e_k)/||P(P e_k)||,
    then c = x*Px and e = ||P - c xx*||_F. Since c xx* has eigenvalues c and
    0 and ||.||_2 <= ||.||_F, Weyl's inequalities give lambda_1(P) >= c - e
    and |lambda_j(P)| <= e for every j >= 2. So if the trace is within
    TRACE_TOL of 1, c - e > CERT_TOL and e <= RANK_TOL (c - e), then the
    largest eigenvalue exceeds CERT_TOL and no other exceeds RANK_TOL times
    it in modulus: the spectral rule accepts, and x is returned. (For a
    non-Hermitian P the same holds for its Hermitian part, which is what the
    spectral rule decomposes: c is unchanged and e cannot grow.) Every other
    image, whether NaN, non-PSD, of the wrong trace or near the RANK_TOL
    threshold, gets one eig_hermitian and the spectral rule itself, which
    rejects a unit-trace image with a negative eigenvalue beyond RANK_TOL
    times the largest, as diag(1.1, -0.1). The decisions are therefore those
    of the spectral rule, up to rounding of order eps ||P||. As an accepted
    P has |lambda_2| <= RANK_TOL lambda_1, the power step leaves x within
    about (lambda_2 / lambda_1)^2 <= 1e-16 of the top eigenvector.
    """
    p = a.matrix
    diag = p.diagonal().real
    trace_ok = abs(diag.sum() - 1.0) <= TRACE_TOL
    if trace_ok:
        k = int(np.argmax(diag))
        x = p @ p[:, k]
        norm = np.linalg.norm(x)
        if 0.0 < norm < math.inf:  # not NaN, zero or infinite
            x = x / norm
            c = float(np.vdot(x, p @ x).real)
            e = float(np.linalg.norm(p - c * np.outer(x, x.conj())))
            if c - e > CERT_TOL and e <= RANK_TOL * (c - e):
                return x
    spec = eig_hermitian(p)
    if spectral_rank(spec.eigenvalues) == 1 and trace_ok:
        return spec.eigenvectors[:, 0]
    return None


def is_rank_one_projection(a: DensityOperator) -> bool:
    """Rank one with trace 1; equivalently rank one with F(A,A) = 1."""
    return projection_vector(a) is not None


def _sample_minorants(a: DensityOperator, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Random operators D with 0 <= D <= A, as A^{1/2} M A^{1/2} for random
    PSD contractions M scaled by u in (0, 1]. No rejection needed.

    The whole block is drawn at once: one Ginibre block of W, then one
    uniform block of u. M = W*W for all samples is one product, and ||M||_2,
    the largest eigenvalue of the PSD M, comes from one eigvalsh_stack.
    """
    root = sqrtm_psd(a.matrix)
    w = ginibre(rng, (samples, a.dim, a.dim))
    u = rng.uniform(0.0, 1.0, size=samples)
    m = w.conj().swapaxes(-1, -2) @ w
    m *= (u / eigvalsh_stack(m)[:, 0])[:, None, None]
    return root @ m @ root


def order_totality_probe(a: DensityOperator, samples: int = 200, seed: int = 0) -> bool:
    """Probe whether the minorants of A are totally ordered.

    True for rank-one A (every minorant is a sub-multiple); for rank >= 2 an
    incomparable pair is found with overwhelming probability at default
    sample counts. As D <= E implies tr D <= tr E, the samples are totally
    ordered exactly when each lies below its successor in trace order. The
    lowest neighbour pair is scored first, in a leq_stack call of one row;
    on a rank >= 2 operator it is usually incomparable, and the rest is then
    not solved. Only if it is ordered are the other samples - 2 pairs
    scored, in one more call. leq_stack decides each
    row alone, so the answer is that of one scan over all samples - 1 pairs.
    A trace at most CERT_TOL raises ZeroOperator.
    """
    if samples < 2:
        raise ValueError(f"probe needs samples >= 2, got {samples}")
    if a.trace <= CERT_TOL:
        raise ZeroOperator("probe requires a nonzero operator")
    rng = np.random.default_rng(seed)
    mins = _sample_minorants(a, samples, rng)
    order = np.argsort(np.trace(mins, axis1=1, axis2=2).real, kind="stable")
    if not leq_stack(mins[order[:1]], mins[order[1:2]])[0]:
        return False
    rest = mins[order[1:]]
    return samples == 2 or bool(np.all(leq_stack(rest[:-1], rest[1:])))
