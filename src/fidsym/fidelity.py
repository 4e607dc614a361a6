"""Uhlmann fidelity, partial fidelities, and the order/orthogonality predicates.

F(A,B) = tr (A^{1/2} B A^{1/2})^{1/2} is computed as an eigenvalue sum rather
than through an explicit matrix square root of the product: fewer matrix
multiplies, same value.
"""
from __future__ import annotations

import numpy as np

from .matcore import (
    DensityOperator,
    DimensionMismatch,
    PureState,
    check_same_dim,
    eigh_stack,
    hermitize_stack,
    sqrt_eigs,
    sqrtm_stack,
)
from .tolerances import ORDER_TOL, ORTH_TOL


class BadM(ValueError):
    """Partial-fidelity index m out of range."""


def fidelity_stack(a: np.ndarray, b: np.ndarray, m: int | None = None) -> np.ndarray:
    """F(A_k, B_k) for each pair of two (n, d, d) stacks of PSD matrices.

    With ``m``, the partial fidelity instead: the sum of the m largest
    eigenvalues (with multiplicity) of (A^{1/2} B A^{1/2})^{1/2}.
    """
    if m is not None and not 1 <= m <= a.shape[-1]:
        raise BadM(f"m = {m} out of range 1..{a.shape[-1]}")
    if a.shape != b.shape:
        raise DimensionMismatch(f"dimension mismatch: stacks {a.shape} vs {b.shape}")
    ra = sqrtm_stack(a)
    core = ra @ np.ascontiguousarray(b, dtype=complex) @ ra
    w, _ = eigh_stack(hermitize_stack(core))
    return sqrt_eigs(w)[:, :m].sum(axis=-1)


def fidelity(a: DensityOperator, b: DensityOperator) -> float:
    """Fidelity F(A,B); symmetric in its arguments and zero iff A, B are
    mutually orthogonal."""
    check_same_dim(a, b)
    return float(fidelity_stack(a.matrix[None], b.matrix[None])[0])


def partial_fidelity(a: DensityOperator, b: DensityOperator, m: int) -> float:
    """Sum of the m largest eigenvalues (with multiplicity) of
    (A^{1/2} B A^{1/2})^{1/2}; equals fidelity(A, B) at m = dim."""
    check_same_dim(a, b)
    return float(fidelity_stack(a.matrix[None], b.matrix[None], m)[0])


def fidelity_pure(p: PureState, q: PureState) -> float:
    """Fidelity of two pure states: |<x, y>|, the square root of the
    transition probability tr PQ."""
    check_same_dim(p, q)
    return float(abs(np.vdot(p.amplitudes, q.amplitudes)))


def is_leq(a: DensityOperator, b: DensityOperator) -> bool:
    """Operator order A <= B, decided spectrally on B - A."""
    check_same_dim(a, b)
    diff = b.matrix - a.matrix
    w_min = float(np.linalg.eigvalsh(diff)[0])
    return w_min >= -ORDER_TOL * (1.0 + np.linalg.norm(diff))


def is_orthogonal(a: DensityOperator, b: DensityOperator) -> bool:
    """Mutual orthogonality AB = 0; for positive operators this is equivalent
    to F(A,B) = 0."""
    check_same_dim(a, b)
    prod_norm = float(np.linalg.norm(a.matrix @ b.matrix))
    return prod_norm <= ORTH_TOL * (1.0 + a.norm() * b.norm())
