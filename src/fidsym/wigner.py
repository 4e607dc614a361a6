"""Reconstruction of the unitary or antiunitary operator behind a black-box
map on density operators.

The map is probed on 2d rank-one projections (basis states, two-component
real superpositions, one i-superposition), the implementing operator is
assembled column by column with explicit phase fixing, its parity is
classified, and the identity phi(A) = U A U* (or U conj(A) U*) is certified
on random density operators. Bijectivity of the map is never assumed; a map
that fails any stage gets a status flag, not an exception.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import charact
from .matcore import DensityOperator, check_same_dim, pure_state
from .sampling import random_density
from .tolerances import CERTIFY_TOL, PHASE_FIX_TOL, PROBE_TOL, UNITARY_TOL

UNITARY = "unitary"
ANTIUNITARY = "antiunitary"

STATUS_CERTIFIED = "certified"
STATUS_FAILED_PROJECTION_PROBE = "failed_projection_probe"
STATUS_FAILED_PHASE = "failed_phase"
STATUS_FAILED_PARITY = "failed_parity"
STATUS_FAILED_VERIFICATION = "failed_verification"


@dataclass(frozen=True)
class DensityMapOracle:
    """Executable contract of a candidate map: a pure, deterministic function
    on density operators of a fixed dimension."""

    dim: int
    evaluate: Callable[[DensityOperator], DensityOperator]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"oracle dim must be >= 1, got {self.dim}")


@dataclass(frozen=True)
class SymmetryOperator:
    """A unitary matrix plus a parity flag; acts as A -> U A U* (unitary) or
    A -> U conj(A) U* (antiunitary, conjugation in the canonical basis)."""

    parity: str
    u: np.ndarray

    @property
    def dim(self) -> int:
        return self.u.shape[0]


@dataclass(frozen=True)
class ReconstructionReport:
    symmetry: Optional[SymmetryOperator]
    residual_max: float
    probes_used: int
    verification_trials: int
    parity_margin: float
    status: str

    @property
    def certified(self) -> bool:
        return self.status == STATUS_CERTIFIED


def apply_symmetry(s: SymmetryOperator, a: DensityOperator) -> DensityOperator:
    """U A U* or U conj(A) U*; preserves trace and spectrum."""
    check_same_dim(s, a)
    m = a.matrix.conj() if s.parity == ANTIUNITARY else a.matrix
    return DensityOperator.from_psd(s.u @ m @ s.u.conj().T)


def symmetry_oracle(s: SymmetryOperator) -> DensityMapOracle:
    return DensityMapOracle(dim=s.dim, evaluate=lambda a: apply_symmetry(s, a))


def symmetry_distance(s1: SymmetryOperator, s2: SymmetryOperator) -> float:
    """min over phases theta of ||U1 - e^{i theta} U2||_F; infinity when the
    parities differ.

    The minimizer is theta = arg tr(U2* U1); the distance is evaluated as a
    direct matrix difference at that phase rather than through the equivalent
    (2d - 2|tr U2* U1|)^{1/2}, whose cancellation floors the result near
    sqrt(d * eps) instead of 0.
    """
    check_same_dim(s1, s2)
    if s1.parity != s2.parity:
        return math.inf
    t = np.trace(s2.u.conj().T @ s1.u)
    if abs(t) == 0.0:
        return math.sqrt(2.0 * s1.dim)
    phase = t / abs(t)
    return float(np.linalg.norm(s1.u - phase * s2.u))


def extend_normalized(oracle_norm: DensityMapOracle) -> DensityMapOracle:
    """Extend a map defined on unit-trace density operators to all of them by
    homogeneity: 0 -> 0 and A -> (tr A) * phi(A / tr A)."""

    def evaluate(a: DensityOperator) -> DensityOperator:
        t = a.trace
        if t <= 0.0:
            return a
        inner = oracle_norm.evaluate(DensityOperator(matrix=a.matrix / t))
        return DensityOperator.from_psd(inner.matrix * t)

    return DensityMapOracle(dim=oracle_norm.dim, evaluate=evaluate)


def _superposition(dim: int, i: int, j: int, phase: complex = 1.0) -> np.ndarray:
    """(e_i + phase e_j)/sqrt(2)."""
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0 / math.sqrt(2.0)
    v[j] = phase / math.sqrt(2.0)
    return v


class _Rejected(Exception):
    """A stage of reconstruct rejected the map with ``status``."""

    def __init__(self, status: str, margin: float = 0.0):
        super().__init__(status)
        self.status = status
        self.margin = margin


def reconstruct(
    oracle: DensityMapOracle,
    verification_trials: int = 64,
    certify_tol: float = CERTIFY_TOL,
    seed: int = 0,
) -> ReconstructionReport:
    """Probe the oracle on rank-one projections, assemble the implementing
    operator, classify its parity, and certify on random density operators.

    Probe budget: 2d + ``verification_trials`` oracle calls for a certified
    map (1 + ``verification_trials`` at d = 1): d basis projections, d - 1
    superpositions (e_1 + e_j)/sqrt(2) for phase fixing and one
    i-superposition (e_1 + i e_2)/sqrt(2) for parity. A bijective
    fidelity-preserving map is A -> U A U* or A -> U conj(A) U*, and these
    probes pin that candidate up to a global phase; verification then
    decides. A map that is not the candidate, yet passes the probes (a
    different parity on one block, a transpose of one block, an entrywise
    phase multiplier), differs from it on a set of positive measure, which
    the random verification inputs hit. A map that differs only on a null set
    escapes any finite schedule of probes. ``seed`` only selects the
    verification draws, through ``default_rng(seed + 1)``.

    A probe image whose dimension is not the oracle's, or that holds an entry
    that is not finite, rejects the map with that probe's status; a
    verification image of the wrong dimension or with a NaN residual fails
    verification with ``residual_max`` infinite. Every other probe image is
    read with ``charact.projection_vector``: a rank-one projection is
    recognised and its vector read in O(d^2) by one power step and a
    Frobenius-norm bound, and only an image near the RANK_TOL threshold, or
    not a projection at all, costs an O(d^3) eigendecomposition.
    """
    if not (math.isfinite(certify_tol) and certify_tol >= 0.0):
        raise ValueError(f"certify_tol must be finite and >= 0, got {certify_tol}")
    if verification_trials < 1:
        raise ValueError(f"verification_trials must be >= 1, got {verification_trials}")
    d = oracle.dim
    probes = 0

    def probe(v: np.ndarray, status: str) -> np.ndarray:
        """Amplitudes of the image of |v><v|; rejects with ``status`` unless
        the image is a finite rank-one projection of the oracle's dimension."""
        nonlocal probes
        image = oracle.evaluate(DensityOperator.from_psd(np.outer(v, v.conj())))
        probes += 1
        m = image.matrix
        # sum |m_ij|^2 is finite iff every entry is (barring overflow past
        # 1e154, far from any projection), at half the cost of
        # np.isfinite(m).all() at d = 64
        ok = image.dim == d and math.isfinite(np.vdot(m, m).real)
        x = charact.projection_vector(image) if ok else None
        if x is None:
            raise _Rejected(status)
        return pure_state(x).amplitudes

    try:
        # (1) Basis probes: images must be rank-one projections with the same
        # pairwise transition probabilities as the inputs (zero).
        f = np.array([probe(e, STATUS_FAILED_PROJECTION_PROBE)
                      for e in np.eye(d, dtype=complex)])
        overlaps = np.abs(f.conj() @ f.T) ** 2
        if np.any(np.triu(overlaps, k=1) > PROBE_TOL):
            raise _Rejected(STATUS_FAILED_PROJECTION_PROBE)

        # (2) Phase fixing: pin each column's phase relative to the first
        # through the images of (e_1 + e_j)/sqrt(2).
        g = [f[0]]
        for j in range(1, d):
            y = probe(_superposition(d, 0, j), STATUS_FAILED_PHASE)
            c = np.vdot(g[0], y)
            if abs(abs(c) - 1.0 / math.sqrt(2.0)) > PHASE_FIX_TOL:
                raise _Rejected(STATUS_FAILED_PHASE)
            y = y * (c.conjugate() / abs(c))
            gj = math.sqrt(2.0) * y - g[0]
            if abs(np.linalg.norm(gj) - 1.0) > PHASE_FIX_TOL:
                raise _Rejected(STATUS_FAILED_PHASE)
            if abs(abs(np.vdot(gj, f[j])) - 1.0) > PHASE_FIX_TOL:
                raise _Rejected(STATUS_FAILED_PHASE)
            g.append(gj)

        # (3) Parity from the i-superposition (e_1 + i e_2)/sqrt(2).
        parity = UNITARY
        margin = 0.0
        if d >= 2:
            w = probe(_superposition(d, 0, 1, phase=1j), STATUS_FAILED_PARITY)
            h_u = (g[0] + 1j * g[1]) / math.sqrt(2.0)
            h_a = (g[0] - 1j * g[1]) / math.sqrt(2.0)
            ov_u = abs(np.vdot(h_u, w)) ** 2
            ov_a = abs(np.vdot(h_a, w)) ** 2
            if max(ov_u, ov_a) < 1.0 - PROBE_TOL:
                raise _Rejected(STATUS_FAILED_PARITY, margin=ov_u - ov_a)
            parity = UNITARY if ov_u >= ov_a else ANTIUNITARY
            margin = abs(ov_u - ov_a)
        # d = 1: the two parities coincide on 1x1 matrices; unitary by convention.

        # (4) Assemble U with columns g_i and verify unitarity.
        u = np.column_stack(g)
        if np.linalg.norm(u.conj().T @ u - np.eye(d)) > UNITARY_TOL:
            raise _Rejected(STATUS_FAILED_PHASE, margin=margin)
    except _Rejected as rejection:
        return ReconstructionReport(
            symmetry=None,
            residual_max=math.inf,
            probes_used=probes,
            verification_trials=0,
            parity_margin=rejection.margin,
            status=rejection.status,
        )
    symmetry = SymmetryOperator(parity=parity, u=u)

    # (5) Verification on random density operators of mixed rank and trace.
    rng = np.random.default_rng(seed + 1)
    residual_max = 0.0
    status = STATUS_CERTIFIED
    for _ in range(verification_trials):
        a = random_density(rng, d, trace=float(rng.uniform(0.0, 2.0)) or 1.0)
        expected = apply_symmetry(symmetry, a)
        got = oracle.evaluate(a)
        probes += 1
        # an image of the wrong shape fails as a NaN residual does; the
        # difference would broadcast it, or raise
        if got.matrix.shape == (d, d):
            res = float(np.linalg.norm(got.matrix - expected.matrix))
        else:
            res = math.nan
        residual_max = max(residual_max, res)
        if not res <= certify_tol * (1.0 + np.linalg.norm(a.matrix)):  # NaN fails too
            if math.isnan(res):  # max() above passed over it
                residual_max = math.inf
            status = STATUS_FAILED_VERIFICATION
            break
    return ReconstructionReport(
        symmetry=symmetry,
        residual_max=residual_max,
        probes_used=probes,
        verification_trials=verification_trials,
        parity_margin=margin,
        status=status,
    )
