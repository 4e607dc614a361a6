"""Complex Hermitian linear-algebra substrate.

Validated matrix types (Hermitian matrices, density operators, pure states),
spectral decomposition with a fixed eigenvalue ordering, and PSD square roots.
All downstream modules build on these primitives.

The numerics are stack-first: they take (n, d, d) arrays, and the per-matrix
functions are their n = 1 case, with the same bits: they reach the kernel
through ``_stack`` alone. An operator's matrix is a read-only row of one
frozen array and cannot be made writeable again.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .tolerances import EIG_FLOOR, PHASE_TOL, PSD_TOL


class MatcoreError(ValueError):
    """Base class for validation and solver errors (bad input to the numerics)."""


class SolverFailure(MatcoreError):
    """The eigenvalue iteration did not converge."""


class NotPositive(MatcoreError):
    """A matrix is not Hermitian, or has an eigenvalue below the PSD band."""


class DimensionMismatch(MatcoreError):
    """Operands live on Hilbert spaces of different dimension."""


def freeze(a: np.ndarray) -> np.ndarray:
    """Make ``a`` read-only for good and return it; its rows stay read-only views."""
    a.flags.writeable = False
    return a


def _stack(m) -> np.ndarray:
    """An (n, d, d) stack of square matrices, d >= 1, as a contiguous complex array."""
    m = np.ascontiguousarray(m, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[1] == 0:
        raise ValueError(f"expected square matrices of dim >= 1, got stacked shape {m.shape}")
    return m


def hermitize_stack(m: np.ndarray) -> np.ndarray:
    """(M + M*)/2 for every matrix of an (n, d, d) stack, as a fresh
    C-contiguous array.

    The result is built in one buffer: M* is written into it, M is added in
    place, and the float view is multiplied by 0.5. Dividing the complex
    array by 2 would run numpy's complex division, which forms ±0 cross
    terms before the same multiply by 0.5 and costs about as much as the add
    and the transpose together. Every value equals the division's; only the
    sign of an exactly-zero part can differ (the division can turn a -0.0
    into +0.0). The diagonal imaginary parts come out exactly zero, so Hermiticity
    is an invariant of the result, not a hope. A second application returns
    the same bits. Raises ValueError if any entry is not finite.
    """
    m = _stack(m)
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    h = np.conjugate(m.swapaxes(-1, -2), order="C")
    h += m
    parts = h.view(float)
    parts *= 0.5
    return h


def row_sumsq(m: np.ndarray) -> np.ndarray:
    """sum |m_ij|^2 for every matrix of an (n, d, d) stack, the squared
    Frobenius norm of each row, as one einsum over the float view.

    An entry above about 1e154 overflows the sum to inf, and a NaN entry
    makes it NaN, without a warning. ``np.linalg.norm(m, axis=(1, 2))`` and
    ``np.vecdot`` both raise a RuntimeWarning on that overflow, which
    ``-W error`` turns into an exception."""
    m = np.ascontiguousarray(m, dtype=complex)
    parts = m.view(float).reshape(len(m), 2 * math.prod(m.shape[1:]))  # -1 fails on n = 0
    return np.einsum("ij,ij->i", parts, parts)


def real_divide(m: np.ndarray, s: float) -> np.ndarray:
    """m / s for complex matrices m and a real s > 0 by one multiply of the
    float view by 1/s: the values of numpy's ``m / s`` without its cross terms
    (re + im*0) * (1/s), so only the sign of an exactly-zero part can differ.
    A subnormal s, whose 1/s overflows (below about 5.6e-309), is first brought
    to [0.5, 1) and m with it, both multiplied by the same exact power of two."""
    x = np.ascontiguousarray(m, dtype=complex).view(float)
    if s < np.finfo(float).tiny:
        e = -math.frexp(s)[1]
        x, s = np.ldexp(x, e), math.ldexp(s, e)
    return (x * (1.0 / s)).view(complex)


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return the exactly symmetrized matrix (M + M*)/2; see hermitize_stack."""
    return freeze(hermitize_stack(np.asarray(m)[None]))[0]


def from_psd_stack(m: np.ndarray) -> list[DensityOperator]:
    """Wrap every matrix of an (n, d, d) stack already known to be PSD (GG*,
    U A U*) as a density operator: hermitize once and check nothing else.
    Matrices from outside go through validate_stack instead."""
    return [DensityOperator(matrix=x) for x in freeze(hermitize_stack(m))]


def checked_int(name: str, value, lo: int, hi: int | None = None,
                error: type[ValueError] = ValueError) -> int:
    """The one rule for an integer argument (dim, count, seed, rank, m): ``value``
    as a Python int if it is an int or numpy integer, no bool, and in lo..hi
    (lo and up if ``hi`` is None); else ``error`` naming ``name`` and ``value``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if not lo <= int(value) <= (math.inf if hi is None else hi):
        raise error(f"{name} must be {f'>= {lo}' if hi is None else f'in {lo}..{hi}'}, got {value}")
    return int(value)


def check_same_dim(a, b) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")


@dataclass(frozen=True)
class DensityOperator:
    """Positive-semidefinite Hermitian matrix with finite trace.

    Construct a matrix from outside through :func:`validate_density`, which
    checks it is PSD and clips its eigenvalues; construct one that is PSD by
    construction (GG*, U A U*, a projection vv*) through :meth:`from_psd`,
    which only hermitizes. Either way ``matrix`` is exactly Hermitian. The
    constructor itself checks nothing. ``trace`` is derived from ``matrix``,
    so no operator can carry a trace that is not its matrix's.
    """

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    @staticmethod
    def from_psd(m: np.ndarray) -> "DensityOperator":
        """Wrap a matrix already known to be PSD (e.g. U A U*); see from_psd_stack."""
        return from_psd_stack(np.asarray(m)[None])[0]


@dataclass(frozen=True)
class PureState:
    """Unit vector with canonical phase: the first component of modulus above
    PHASE_TOL is real and positive."""

    amplitudes: np.ndarray

    def projection(self) -> DensityOperator:
        v = self.amplitudes
        return DensityOperator.from_psd(np.outer(v, v.conj()))


def normalize_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first significant component is real positive."""
    v = np.asarray(v, dtype=complex)
    for k, x in enumerate(v):
        if abs(x) > PHASE_TOL:
            if x.imag == 0.0 and x.real > 0.0:
                return v.copy()  # already canonical; keep the bits
            out = v * (x.conjugate() / abs(x))
            # pin the pivot exactly real so the result is a fixed point
            out[k] = abs(x)
            return out
    return v.copy()


def pure_state(v: np.ndarray) -> PureState:
    """Normalize a nonzero vector to a unit, phase-canonical PureState.

    The norm is np.linalg.norm's, bit for bit: sqrt(re.re + im.im), and
    every vector whose sum of squares is a normal number keeps its bits. A
    vector with a non-finite entry raises ValueError. A finite vector whose
    sum of squares overflows, or falls below the normal range (to zero, or
    to a subnormal with too few bits for a unit result), is first divided
    by its largest |part|. Only an exactly zero vector cannot be normalized
    (ValueError)."""
    v = np.asarray(v, dtype=complex).ravel()
    with np.errstate(over="ignore"):
        ss = float(v.real.dot(v.real) + v.imag.dot(v.imag))
    if not sys.float_info.min <= ss < math.inf:  # over- or underflowed, or NaN
        if not np.isfinite(v).all():
            raise ValueError("vector entries must be finite")
        top = np.abs(v.view(float)).max(initial=0.0)
        if top == 0.0:
            raise ValueError("cannot normalize the zero vector")
        v = real_divide(v, top)
        ss = v.real.dot(v.real) + v.imag.dot(v.imag)
    return PureState(amplitudes=freeze(normalize_phase(v / math.sqrt(ss))))


def eigh_stack(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystems of an (n, d, d) stack of Hermitian matrices.

    Returns eigenvalues (n, d), non-increasing along each row (ties kept in
    solver order), and the matching orthonormal columns (n, d, d), both
    C-contiguous arrays of their own. ``h`` is hermitized first, as the solver
    reads one triangle only (ValueError if an entry is not finite); a solver
    failure raises SolverFailure.
    """
    try:
        w, v = np.linalg.eigh(hermitize_stack(h))
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(str(exc)) from exc
    return w[:, ::-1].copy(), v[:, :, ::-1].copy()


def eigvalsh_stack(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of every matrix of an (n, d, d) stack, (n, d), non-increasing
    along each row: eigh_stack's without the eigenvectors, hermitized and
    checked in the same way."""
    try:
        w = np.linalg.eigvalsh(hermitize_stack(h))
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(str(exc)) from exc
    return w[:, ::-1].copy()


def _rebuild(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V diag(w) V* for each row of a stack."""
    return (v * w[:, None, :]) @ v.conj().swapaxes(-1, -2)


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The n = 1 case of eigh_stack: the read-only pair (w, V), as np.linalg.eigh
    returns it, of the eigenvalues in non-increasing order (ties kept in solver
    order) and the matching orthonormal eigenvectors as columns."""
    w, v = eigh_stack(np.asarray(m)[None])
    return freeze(w)[0], freeze(v)[0]


def validate_stack(m: np.ndarray) -> list[DensityOperator]:
    """Validate every matrix of an (n, d, d) stack as a density operator.

    ||M|| is the Frobenius norm of (M + M*)/2. ||M - M*||_F above 2 PSD_TOL
    ||M|| raises NotPositive, and so does an eigenvalue below -PSD_TOL ||M||;
    those in [-PSD_TOL ||M||, 0) are clipped to zero and the matrix is
    reassembled. Both bands scale with M: s M passes exactly when M does.
    A part of an entry above float max / 4d (2.2e307 at d = 2), or not
    finite, raises MatcoreError first: then no sum formed here or by
    fidelity (M + M*, M - M*, the spectrum, the rebuild) overflows.
    """
    m = _stack(m)
    top = sys.float_info.max / (4 * m.shape[1])
    if not np.abs(m.view(float)).max(initial=0.0) <= top:
        raise MatcoreError(f"matrix entries must be finite and at most {top:.3g} in modulus")
    w, v = eigh_stack(m)
    band = PSD_TOL * np.hypot.reduce(w, axis=-1)  # hypot: ||(M + M*)/2||_F with no overflow
    skew = np.hypot.reduce(np.abs(m - m.conj().swapaxes(-1, -2)), axis=(1, 2))
    if (skew > 2.0 * band).any():
        raise NotPositive(f"matrix is not Hermitian: ||M - M*||_F = {skew.max():.3e}")
    negative = w[:, -1] < -band
    if negative.any():
        raise NotPositive(f"eigenvalue {w[negative, -1][0]:.3e} below tolerance band")
    return from_psd_stack(_rebuild(np.clip(w, 0.0, None), v))


def validate_density(m: np.ndarray) -> DensityOperator:
    """Validate a matrix as a density operator; see validate_stack."""
    return validate_stack(np.asarray(m)[None])[0]


def sqrt_eigs(w: np.ndarray) -> np.ndarray:
    """Square roots of rows of non-increasing eigenvalues, clipped at zero;
    entries below EIG_FLOOR times their row's largest are taken as zero."""
    w = np.clip(w, 0.0, None)
    w[w < EIG_FLOOR * w[:, :1]] = 0.0
    return np.sqrt(w)


def sqrtm_stack(m: np.ndarray) -> np.ndarray:
    """Positive square root of every PSD matrix of an (n, d, d) stack, via
    eigendecomposition with clipping at zero."""
    w, v = eigh_stack(m)
    return _rebuild(sqrt_eigs(w), v)


def sqrtm_psd(m: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix given as a raw array; see sqrtm_stack."""
    return sqrtm_stack(np.asarray(m)[None])[0]

