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

from .tolerances import EIG_FLOOR, PHASE_TOL, PSD_TOL, TRACE_TOL


class MatcoreError(ValueError):
    """Base class for validation and solver errors (bad input to the numerics)."""


class SolverFailure(MatcoreError):
    """The eigenvalue iteration did not converge."""


class NotPositive(MatcoreError):
    """A matrix has an eigenvalue below the PSD tolerance band."""


class NotNormalized(MatcoreError):
    """Unit-trace was required but the trace check failed."""


class DimensionMismatch(MatcoreError):
    """Operands live on Hilbert spaces of different dimension."""


def freeze(a: np.ndarray) -> np.ndarray:
    """Make ``a`` read-only for good and return it; its rows stay read-only views."""
    a.flags.writeable = False
    return a


def _stack(m) -> np.ndarray:
    """An (n, d, d) stack of square matrices as a contiguous complex array."""
    m = np.ascontiguousarray(m, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError(f"expected square matrices, got stacked shape {m.shape}")
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


def real_scale(m: np.ndarray, c: float) -> np.ndarray:
    """m * c for complex matrices m and a real c, as a fresh array made by
    one multiply of the float view.

    numpy's complex division ``m / s`` forms (re + im*0) * (1/s) and
    (im - re*0) * (1/s), so ``real_scale(m, 1.0 / s)`` has its values without
    the cross terms; only the sign of an exactly-zero part can differ."""
    return (np.ascontiguousarray(m, dtype=complex).view(float) * c).view(complex)


def real_divide(m: np.ndarray, s: float) -> np.ndarray:
    """m / s for complex matrices m and a real s > 0: ``real_scale(m, 1.0 / s)``,
    bit for bit, for every s in the normal range. Below it 1/s overflows
    (for s under about 5.6e-309), so a subnormal s is first brought to
    [0.5, 1) and m with it, both multiplied by the same exact power of two."""
    if s < np.finfo(float).tiny:
        e = -math.frexp(s)[1]
        m = np.ldexp(np.ascontiguousarray(m, dtype=complex).view(float), e).view(complex)
        s = math.ldexp(s, e)
    return real_scale(m, 1.0 / s)


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return the exactly symmetrized matrix (M + M*)/2; see hermitize_stack."""
    return freeze(hermitize_stack(np.asarray(m)[None]))[0]


def from_psd_stack(m: np.ndarray) -> list[DensityOperator]:
    """Wrap every matrix of an (n, d, d) stack already known to be PSD (GG*,
    U A U*) as a density operator: hermitize once and check nothing else.
    Matrices from outside go through validate_stack instead."""
    return [DensityOperator(matrix=x) for x in freeze(hermitize_stack(m))]


def check_same_dim(a, b) -> int:
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")
    return a.dim


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in non-increasing order with matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


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

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

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


def eig_hermitian(m: np.ndarray) -> Spectrum:
    """Spectral decomposition of a Hermitian matrix.

    Eigenvalues are returned in non-increasing order (ties kept in solver
    order); eigenvectors are the matching orthonormal columns.
    """
    w, v = eigh_stack(np.asarray(m)[None])
    return Spectrum(eigenvalues=freeze(w)[0], eigenvectors=freeze(v)[0])


def validate_stack(m: np.ndarray) -> list[DensityOperator]:
    """Validate every matrix of an (n, d, d) stack as a density operator.

    Eigenvalues in [-PSD_TOL * ||M||, 0) are clipped to zero and the matrix
    is reassembled; anything more negative raises NotPositive. ||M|| is the
    Frobenius norm of (M + M*)/2, so the band scales with the matrix and
    s * M is accepted exactly when M is, for every s > 0.
    """
    w, v = eigh_stack(m)
    low = w[:, -1]
    negative = low < -PSD_TOL * np.hypot.reduce(w, axis=-1)  # ||(M + M*)/2||_F, no overflow
    if np.any(negative):
        raise NotPositive(f"eigenvalue {low[negative][0]:.3e} below tolerance band")
    w = np.clip(w, 0.0, None)
    return [DensityOperator(matrix=x) for x in freeze(hermitize_stack(_rebuild(w, v)))]


def validate_density(m: np.ndarray, require_unit_trace: bool = False) -> DensityOperator:
    """Validate a matrix as a density operator; see validate_stack. With
    ``require_unit_trace`` the (post-clip) trace must be 1 within TRACE_TOL."""
    a = validate_stack(np.asarray(m)[None])[0]
    if require_unit_trace and abs(a.trace - 1.0) > TRACE_TOL:
        raise NotNormalized(f"trace {a.trace} is not 1 within {TRACE_TOL}")
    return a


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

