"""Structural characterizations of rank-one operators.

Three routes to the same property: a spectral count, a constructive
certificate of d-1 mutually orthogonal nonzero witnesses, and a randomized
probe of the total ordering of minorants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fidelity import all_leq
from .matcore import (DensityOperator, NotPositive, checked_int, eig_hermitian,
                      eigvalsh_stack, from_psd_stack, row_sumsq, sqrtm_psd)
from .sampling import ginibre
from .tolerances import RANK_TOL, TRACE_TOL


class ZeroOperator(ValueError):
    """The operator is zero where a nonzero one is required."""


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
    """Numerical rank from eigenvalues in any order, the same for s w at
    every s != 0: how many have a modulus above RANK_TOL times the largest
    modulus (a large negative eigenvalue counts too, and -vv* has rank 1),
    so 0 only when every eigenvalue is exactly 0."""
    w = np.abs(w)
    return int(np.count_nonzero(w > RANK_TOL * w.max()))


def numerical_rank(a: DensityOperator) -> int:
    """spectral_rank of A's eigenvalues, from an eigenvalue-only solve."""
    return spectral_rank(eigvalsh_stack(a.matrix[None])[0])


def rank_one_certificate(a: DensityOperator) -> OrthogonalCertificate | CertificateFailure:
    """Certificate that A has rank one: projections onto an orthonormal basis
    of the orthogonal complement of range(A), wrapped from one stack vv*
    over the eigenvectors but the one of largest |eigenvalue|.

    For rank >= 2 no certificate can exist (mutually orthogonal ranges force
    rank sums <= d), so the numerical rank is returned as evidence. The zero
    rule is spectral_rank's, on the same spectrum: ZeroOperator only if it
    is 0, so s A is answered as A for every s != 0, -vv* as vv*.
    """
    w, v = eig_hermitian(a.matrix)
    rank = spectral_rank(w)
    if rank == 0:
        raise ZeroOperator("certificate requires a nonzero operator")
    if rank != 1:
        return CertificateFailure(rank=rank)
    v = (v[:, 1:] if w[0] >= -w[-1] else v[:, :-1]).T  # the top |w| is first or last
    return OrthogonalCertificate(witnesses=from_psd_stack(v[:, :, None] * v[:, None, :].conj()))


def is_rank_one(a: DensityOperator) -> bool:
    return numerical_rank(a) == 1


def is_rank_one_projection(a: DensityOperator) -> bool:
    """Rank one with trace 1; equivalently rank one with F(A,A) = 1. Rank one
    is numerical_rank's (so a unit-trace diag(1.1, -0.1), whose negative
    eigenvalue exceeds RANK_TOL times the largest, is not), the trace is
    summed from the matrix's diagonal, and a NaN or infinite entry raises
    ValueError, as in is_rank_one."""
    return numerical_rank(a) == 1 and abs(a.matrix.diagonal().real.sum() - 1.0) <= TRACE_TOL


def _sample_minorants(root: np.ndarray, samples: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random operators D with 0 <= D <= A, drawn as their Wishart factors,
    given root = A^{1/2}.

    One Ginibre block of W is drawn, then one uniform block u. Returned are
    the factors X_k = W_k A^{1/2} and the row scales s_k = u_k / ||W_k||_F^2,
    so that _minorants forms D_k = s_k X_k* X_k, that is
    u_k A^{1/2} rho_k A^{1/2} for the Wishart density operator
    rho_k = W_k* W_k / tr(W_k* W_k). As 0 <= rho_k <= I, 0 <= D_k <= u_k A
    <= A, with no rejection and no eigensolve: every X_k comes from one tall
    product of the (samples d, d) block with A^{1/2}, and every ||W_k||_F^2
    from one row_sumsq. tr D_k is s_k ||X_k||_F^2, so D_k need not be formed
    to be sorted. A^{1/2} is taken by the caller, so that two draws from one
    stream share one eigensolve.
    """
    d = root.shape[0]
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


def _chain_ordered(x: np.ndarray, s: np.ndarray) -> bool:
    """Whether the minorants of factors x and row scales s are totally
    ordered: as D <= E implies tr D <= tr E, exactly when each lies below
    its successor in a stable argsort of the factor traces s ||X||_F^2,
    scored in one all_leq call of len(s) - 1 rows."""
    chain = _minorants(x, s, np.argsort(s * row_sumsq(x), kind="stable"))
    return all_leq(chain[:-1], chain[1:])


def order_totality_probe(a: DensityOperator, samples: int = 200, seed: int = 0) -> bool:
    """Probe whether the minorants of A are totally ordered.

    The samples are _sample_minorants' u A^{1/2} rho A^{1/2}, rho a Wishart
    density operator. True for rank-one A (every minorant is a
    sub-multiple); for rank >= 2 an incomparable pair is found with
    overwhelming probability at default sample counts. The samples are
    drawn in two stages from one default_rng(seed), after one sqrtm_psd of
    A. The first draws min(samples, 3) and scores their chain (see
    _chain_ordered) in one all_leq call; an incomparable pair among them
    returns False having drawn and formed 3 minorants. That decides
    90-100% of random rank >= 2 operators at d = 2, 3, 4, 83-100% at d = 8
    and 30-100% at d = 16, 32 and 64 (the low ends at rank 2, 100% at full
    rank). Only if they are ordered are the other samples - 3 drawn from
    the same stream, and the chain of all samples scored in one more call:
    rows per call are [1] at samples = 2, [2] at 3 and [2, samples - 1]
    above, and at most samples minorants are ever drawn. No eigensolve
    decides a pair: each call is one Cholesky factorization of its stack of
    shifted differences. Samples that are no integer, or below 2, raise
    ValueError, the zero matrix ZeroOperator, any other of trace <= 0 NotPositive.

    The minorants scored are those of 4^-k A, k = floor(e / 2) for the
    binary exponent e of tr A (an exact power of four on s; k = 0 in
    [1/2, 2)), so all_leq's band always meets a trace in [1/2, 2): the
    answer is rank == 1 at traces 1e-300 .. 1e300 and at d up to 64.
    """
    if checked_int("samples", samples) < 2:
        raise ValueError(f"probe needs samples >= 2, got {samples}")
    if a.trace <= 0.0:
        if not a.matrix.any():
            raise ZeroOperator("probe requires a nonzero operator")
        raise NotPositive(f"probe requires a positive trace, got {a.trace:.3e}")
    rng = np.random.default_rng(seed)
    root = sqrtm_psd(a.matrix)
    shift = -2 * (math.frexp(a.trace)[1] // 2)
    x, s = _sample_minorants(root, min(samples, 3), rng)
    s = np.ldexp(s, shift)
    if not _chain_ordered(x, s):
        return False
    if samples <= 3:
        return True
    rest, rest_s = _sample_minorants(root, samples - 3, rng)
    return _chain_ordered(np.concatenate((x, rest)), np.concatenate((s, np.ldexp(rest_s, shift))))
