"""Uhlmann fidelity, partial fidelities, and the order/orthogonality predicates.

F(A,B) = tr (A^{1/2} B A^{1/2})^{1/2} is computed from a factor of A and
eigenvalues alone. One eigendecomposition A = V diag(w) V* gives the factor
X = V diag(w)^{1/2}, a column scaling with no rebuild of A^{1/2}. Since
XX* = A, X = A^{1/2} V, so the core X*BX = V* (A^{1/2} B A^{1/2}) V is a
unitary conjugate of the fidelity kernel and has its spectrum (Uhlmann, Rep.
Math. Phys. 9 (1976) 273; Jozsa, J. Mod. Opt. 41 (1994) 2315). F is the sum
of the square roots of the core's eigenvalues, from one eigenvalue-only
solve: no matrix square root of the product and no eigenvectors of the core.
Each row is first scaled by powers of four, as F(4^-i A, 4^-j B) =
2^-(i+j) F(A, B), so that F is scale-free from 1e-300 to 1e300 and stays
finite on a non-PSD row, such as a misbehaving oracle's image.

The operator order A <= B is decided without an eigensolve: B - A plus a
small band on its diagonal must be positive definite, which one Cholesky
factorization of a whole stack of pairs answers (all_leq), each row first
scaled by a power of two near its largest |entry|.
"""
from __future__ import annotations

import numpy as np

from .matcore import (
    DensityOperator,
    DimensionMismatch,
    check_same_dim,
    checked_int,
    eigh_stack,
    eigvalsh_stack,
    hermitize_stack,
    real_divide,
    row_sumsq,
    sqrt_eigs,
)
from .tolerances import ORDER_TOL, ORTH_TOL


class BadM(ValueError):
    """Partial-fidelity index m out of range."""


def fidelity_stack(a: np.ndarray, b: np.ndarray, m: int | None = None) -> np.ndarray:
    """F(A_k, B_k) for each pair of two (n, d, d) stacks of PSD matrices.

    With ``m``, the partial fidelity instead: the sum of the m largest
    eigenvalues (with multiplicity) of (A^{1/2} B A^{1/2})^{1/2}. Both are
    read from the core X*BX of the factor X = V diag(w)^{1/2} of A; see the
    module docstring.
    """
    if m is not None and not 1 <= checked_int("m", m, BadM) <= a.shape[-1]:
        raise BadM(f"m = {m} out of range 1..{a.shape[-1]}")
    if a.shape != b.shape:
        raise DimensionMismatch(f"dimension mismatch: stacks {a.shape} vs {b.shape}")
    w, v = eigh_stack(a)
    b = np.ascontiguousarray(b, dtype=complex)
    if not np.isfinite(b).all():  # here, or the product warns before the raise
        raise ValueError("matrix entries must be finite")
    # F(4^-i A, 4^-j B) = 2^-(i+j) F(A, B): scaled to a largest |eigenvalue|
    # of A and a largest |entry| of B near 1, the core's entries neither
    # overflow nor go subnormal, even on a non-PSD row whose trace or top
    # eigenvalue is tiny beside its other entries. Powers of four keep every
    # scaling and its square root exact, and EIG_FLOOR is relative, so no
    # cut moves. A zero row has exponent 0 and keeps the scale 1.
    i = np.frexp(np.abs(w).max(axis=-1))[1] // 2
    j = np.frexp(np.abs(b.view(float)).max(axis=(-2, -1)))[1] // 2
    x = v * sqrt_eigs(np.ldexp(w, -2 * i[:, None]))[:, None, :]
    b = np.ldexp(b.view(float), -2 * j[:, None, None]).view(complex)  # no complex ldexp
    core = x.conj().swapaxes(-1, -2) @ b @ x
    return np.ldexp(sqrt_eigs(eigvalsh_stack(core))[:, :m].sum(axis=-1), i + j)


def fidelity(a: DensityOperator, b: DensityOperator, m: int | None = None) -> float:
    """Fidelity F(A,B), symmetric in its arguments and zero iff A, B are mutually
    orthogonal, or with ``m`` the partial fidelity: fidelity_stack's n = 1 case."""
    check_same_dim(a, b)
    return float(fidelity_stack(a.matrix[None], b.matrix[None], m)[0])


def all_leq(a: np.ndarray, b: np.ndarray) -> bool:
    """Operator order A_k <= B_k for every k of two (n, d, d) stacks; True
    for an empty stack.

    The rule is a band on H_k = (B_k - A_k), hermitized: its smallest
    eigenvalue may dip ORDER_TOL * (1 + ||H_k||_F) below zero, ||H_k||_F
    being the 2-norm of its spectrum. That is, H_k plus the band on its
    diagonal must be positive definite, which one Cholesky factorization of
    the whole stack decides with no eigensolve: it fails exactly when some
    row is not positive definite, up to rounding of order d eps ||H_k||, as
    Cholesky is backward stable (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 10.1). Each row is first scaled by the exact
    power of two 2^-e that brings its largest |entry| to [0.5, 1), with the
    band ORDER_TOL * (2^-e + ||2^-e H_k||_F), so no sum of squares over- or
    underflows from 1e-300 to 1e300. A largest |entry| below the normal
    range counts as the smallest normal number, so 2^-e stays finite: the
    band then exceeds every entry, and the row is ordered.

    ValueError if an entry is not finite, DimensionMismatch if the stacks
    differ in shape. The 1 in the band is an absolute floor, not a scale:
    for operators of norm near ORDER_TOL or below the band admits
    incomparable pairs, and is_leq(1e-9 e1e1*, 1e-9 e2e2*) is True. The
    floor stays because the minorants of a numerically rank-one operator,
    spectrum (1, eps, ...) with eps below RANK_TOL, are ordered only within
    a band set by that operator's own scale, which a pair does not carry:
    order_totality_probe brings its operator to a trace in [1/2, 2) first."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"dimension mismatch: stacks {a.shape} vs {b.shape}")
    h = hermitize_stack(b - a)
    n, d = h.shape[:2]
    parts = h.view(float).reshape(n, 2 * d * d)
    top = np.abs(parts).max(axis=1, initial=np.finfo(float).tiny)
    scale = np.ldexp(1.0, -np.frexp(top)[1])
    parts *= scale[:, None]
    band = ORDER_TOL * (scale + np.sqrt(row_sumsq(h)))
    parts[:, :: 2 * d + 2] += band[:, None]  # the real parts of the diagonal
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True


def is_leq(a: DensityOperator, b: DensityOperator) -> bool:
    """Operator order A <= B; the n = 1 case of all_leq, whose band keeps an
    absolute floor, so is_leq(1e-9 e1e1*, 1e-9 e2e2*) is True."""
    check_same_dim(a, b)
    return all_leq(a.matrix[None], b.matrix[None])


def is_orthogonal(a: DensityOperator, b: DensityOperator) -> bool:
    """Mutual orthogonality AB = 0; for positive operators this is equivalent
    to F(A,B) = 0. Decided on A and B each divided by its largest |entry|,
    so the band is relative at every scale; a zero operator is orthogonal
    to everything, and a non-finite entry raises ValueError."""
    check_same_dim(a, b)
    sa, sb = np.abs(a.matrix).max(), np.abs(b.matrix).max()
    if not np.isfinite(sa + sb):
        raise ValueError("matrix entries must be finite")
    if sa == 0.0 or sb == 0.0:
        return True
    x, y = real_divide(a.matrix, sa), real_divide(b.matrix, sb)
    return bool(np.linalg.norm(x @ y) <= ORTH_TOL * np.linalg.norm(x) * np.linalg.norm(y))
