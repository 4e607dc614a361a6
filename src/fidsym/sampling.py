"""Seeded random ensembles: Haar unitaries, Wishart-style density operators,
Gaussian pure states."""
from __future__ import annotations

import numpy as np

from .matcore import DensityOperator, PureState, pure_state, validate_density


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix with the
    standard phase correction on R's diagonal."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_pure_state(rng: np.random.Generator, dim: int) -> PureState:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return pure_state(v)


def draw_density(
    rng: np.random.Generator,
    dim: int,
    rank: int | None = None,
    trace: float | None = None,
) -> np.ndarray:
    """The unvalidated matrix of random_density: GG* for a Gaussian G of the
    given rank (drawn uniformly from 1..dim if None), rescaled to ``trace``."""
    if rank is None:
        rank = int(rng.integers(1, dim + 1))
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    a = g @ g.conj().T
    if trace is not None:
        a = a * (trace / np.trace(a).real)
    return a


def random_density(
    rng: np.random.Generator,
    dim: int,
    rank: int | None = None,
    trace: float | None = None,
) -> DensityOperator:
    """Wishart-style PSD operator GG* of the given rank, rescaled to the
    target trace (default: trace left as drawn, unit if ``trace=1.0``)."""
    return validate_density(draw_density(rng, dim, rank, trace))


def orthogonal_pure_pair(rng: np.random.Generator, dim: int) -> tuple[PureState, PureState]:
    """Two orthonormal random states (columns of a Haar unitary)."""
    u = haar_unitary(rng, dim)
    return pure_state(u[:, 0]), pure_state(u[:, 1])
