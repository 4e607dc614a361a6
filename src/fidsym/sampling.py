"""Seeded random ensembles: Haar unitaries, Wishart-style density operators,
Gaussian pure states.

The operators drawn here are PSD by construction, so they are wrapped with
DensityOperator.from_psd and never eigendecomposed. Only generic samplers
live here; the trial distribution is wigner._trial_pairs'.
"""
from __future__ import annotations

import numpy as np

from .matcore import DensityOperator, PureState, checked_int, pure_state


def ginibre(rng: np.random.Generator, shape: int | tuple[int, ...]) -> np.ndarray:
    """Complex Gaussian array of the given shape, the one draw rule of this
    module: all real parts are drawn first, then all imaginary parts, each
    written straight into one complex array (the bits of
    rng.normal(size=shape) + 1j * rng.normal(size=shape), without its
    temporaries)."""
    z = np.empty(shape, dtype=complex)
    z.real = rng.normal(size=shape)
    z.imag = rng.normal(size=shape)
    return z


def haar_stack(z: np.ndarray) -> np.ndarray:
    """Haar-random unitaries from an (n, d, d) stack of Ginibre matrices:
    one batched QR, then the standard phase correction on each R's
    diagonal. Given an (n, d, k) block, k <= d, it returns the first k
    columns of the Haar unitaries that the full (n, d, d) block gives, at
    the cost of a QR of k columns: a Householder QR forms those columns
    from the first k columns of the block alone (the tests pin the bit
    equality at k = 2)."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary; the n = 1 case of haar_stack, bit for bit."""
    return haar_stack(ginibre(rng, (dim, dim))[None])[0]


def random_pure_state(rng: np.random.Generator, dim: int) -> PureState:
    return pure_state(ginibre(rng, dim))


def density_stack(
    rng: np.random.Generator,
    traces: np.ndarray | None,
    ranks: np.ndarray,
    dim: int,
) -> np.ndarray:
    """An (n, dim, dim) stack of unvalidated Wishart matrices GG*, row k of
    rank ``ranks[k]`` and rescaled to ``traces[k]`` (left as drawn if
    ``traces`` is None), from one (n, dim, r) Ginibre block with
    r = ``ranks.max()`` (1 if n = 0), whose columns past each row's rank are
    zeroed."""
    r = int(ranks.max(initial=1))
    g = np.where(np.arange(r) < ranks[:, None, None], ginibre(rng, (len(ranks), dim, r)), 0.0)
    a = g @ g.conj().swapaxes(-1, -2)
    if traces is None:
        return a
    return a * (traces / np.trace(a, axis1=-2, axis2=-1).real)[:, None, None]


def random_density(
    rng: np.random.Generator,
    dim: int,
    rank: int | None = None,
    trace: float | None = None,
) -> DensityOperator:
    """Wishart-style PSD operator GG* of the given rank (drawn from 1..dim
    first if None), rescaled to the target trace (default: trace left as
    drawn, unit if ``trace=1.0``): density_stack's n = 1 case, bit for bit.

    The hermitized GG* is exactly Hermitian, and its most negative
    eigenvalue is rounding of order eps ||GG*||, far inside the PSD_TOL band
    that validation would clip, so it is wrapped without an
    eigendecomposition. A rank that is no integer or outside 1..dim, or a
    trace that is not >= 0, raises ValueError before any draw."""
    if ((rank is not None and not 1 <= checked_int("rank", rank) <= dim)
            or (trace is not None and not trace >= 0.0)):
        raise ValueError(f"need rank in 1..{dim} and trace >= 0, got rank {rank}, trace {trace}")
    if rank is None:
        rank = int(rng.integers(1, dim + 1))
    traces = None if trace is None else np.array([trace], dtype=float)
    return DensityOperator.from_psd(density_stack(rng, traces, np.array([rank]), dim)[0])


def orthogonal_pure_pair(rng: np.random.Generator, dim: int) -> tuple[PureState, PureState]:
    """Two orthonormal random states (columns of a Haar unitary)."""
    u = haar_unitary(rng, dim)
    return pure_state(u[:, 0]), pure_state(u[:, 1])
