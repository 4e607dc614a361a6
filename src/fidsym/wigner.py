"""Reconstruction of the unitary or antiunitary operator behind a black-box
map on density operators.

The map is probed on 2d rank-one projections (basis states, two-component
real superpositions, one i-superposition), the implementing operator is
assembled column by column with explicit phase fixing, its parity is
classified, and the identity phi(A) = U A U* (or U conj(A) U*) is certified
on random density operators. Bijectivity of the map is never assumed; a map
that fails any stage, or has an image that ``DensityMapOracle.image_stack``,
its one reader, turns away, gets a status flag, not an exception. An oracle
that raises still propagates its exception.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import charact
from .matcore import (
    DensityOperator,
    check_same_dim,
    freeze,
    hermitize_stack,
    pure_state,
    real_divide,
    row_sumsq,
)
from .sampling import density_stack, traces_and_ranks
from .tolerances import CERTIFY_TOL, PHASE_FIX_TOL, PROBE_TOL, UNITARY_TOL

UNITARY = "unitary"
ANTIUNITARY = "antiunitary"

STATUS_CERTIFIED = "certified"
STATUS_FAILED_PROJECTION_PROBE = "failed_projection_probe"
STATUS_FAILED_PHASE = "failed_phase"
STATUS_FAILED_PARITY = "failed_parity"
STATUS_FAILED_VERIFICATION = "failed_verification"


# The stacks that classify_map and reconstruct's verification draw, score and
# hand to DensityMapOracle.image_stack hold at most this many matrix entries
# (n * d^2) per side: 16 matrices at d = 8, one at d >= 32, so memory stays
# that of a few d x d matrices at any d.
TRIAL_STACK_ENTRIES = 1024


def _is_numeric_array(m, shape: tuple[int, ...]) -> bool:
    """An ndarray of bools or numbers of the given shape, but no np.matrix,
    whose * and indexing are not an ndarray's."""
    return (isinstance(m, np.ndarray) and not isinstance(m, np.matrix)
            and m.dtype.kind in "biufc" and m.shape == shape)


@dataclass(frozen=True)
class DensityMapOracle:
    """Executable contract of a candidate map: a pure, deterministic function
    on density operators of a fixed dimension.

    ``evaluate`` maps one operator to its image. ``evaluate_stack``, when
    given, maps an (n, dim, dim) array of input matrices to the (n, dim, dim)
    array of their images in one call, and must agree with ``evaluate`` row by
    row. ``image_stack`` is the only reader of either: an oracle with
    ``evaluate_stack`` is read only through it, one without it through
    ``evaluate``, one matrix at a time."""

    dim: int
    evaluate: Callable[[DensityOperator], DensityOperator]
    evaluate_stack: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"oracle dim must be >= 1, got {self.dim}")

    @classmethod
    def from_stack(cls, dim: int, evaluate_stack: Callable[[np.ndarray], np.ndarray]
                   ) -> "DensityMapOracle":
        """The oracle of a map given only by its action on stacks, which must
        return a fresh array or its input; ``evaluate`` is its n = 1 case."""
        oracle = cls(dim, lambda a: DensityOperator(
            matrix=freeze(evaluate_stack(a.matrix[None]))[0]))
        # set after __init__, whose (dim, evaluate) form perfbench/tracer.py wraps
        object.__setattr__(oracle, "evaluate_stack", evaluate_stack)
        return oracle

    def image_stack(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The images of a read-only (n, dim, dim) stack of inputs as a complex
        (n, dim, dim) array, and the mask ``ok`` of the rows that pass the one
        rule for images: a finite (dim, dim) ndarray of bools or numbers, but
        no np.matrix. A row turned away is zero.

        A return of ``evaluate_stack`` is tested whole for type, dtype and
        shape, so a bad one turns the whole stack away. Without it,
        ``evaluate`` is called per row in stack order, and a row whose return
        is no DensityOperator with such a matrix is turned away alone. One
        vectorised test of sum |m_ij|^2 then turns away each non-finite row."""
        if self.evaluate_stack is None:
            out = np.full(m.shape, np.nan, dtype=complex)  # a NaN row fails below
            for k, x in enumerate(m):
                y = self.evaluate(DensityOperator(matrix=x))
                if isinstance(y, DensityOperator) and _is_numeric_array(y.matrix, m.shape[1:]):
                    out[k] = y.matrix
        else:
            out = self.evaluate_stack(m)
            if not _is_numeric_array(out, m.shape):
                return np.zeros(m.shape, dtype=complex), np.zeros(len(m), dtype=bool)
            out = np.ascontiguousarray(out, dtype=complex)
        # finite iff every entry is finite and below about 1e154, far above
        # any density operator's
        ok = np.isfinite(row_sumsq(out))
        if not ok.all():
            out = np.where(ok[:, None, None], out, 0.0)
        return out, ok


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


def apply_symmetry_stack(s: SymmetryOperator, m: np.ndarray) -> np.ndarray:
    """U M U* or U conj(M) U* for every matrix of an (n, d, d) stack,
    hermitized: the one action of a symmetry, on the oracle's side and on the
    expected side of verification alike."""
    if s.parity == ANTIUNITARY:
        m = m.conj()
    return hermitize_stack(s.u @ m @ s.u.conj().T)


def apply_symmetry(s: SymmetryOperator, a: DensityOperator) -> DensityOperator:
    """U A U* or U conj(A) U*; preserves trace and spectrum. The n = 1 case
    of apply_symmetry_stack, bit for bit."""
    check_same_dim(s, a)
    return DensityOperator(matrix=freeze(apply_symmetry_stack(s, a.matrix[None]))[0])


def symmetry_oracle(s: SymmetryOperator) -> DensityMapOracle:
    return DensityMapOracle.from_stack(s.dim, lambda m: apply_symmetry_stack(s, m))


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
    homogeneity: 0 -> 0 and A -> (tr A) * phi(A / tr A). phi is read through
    its ``image_stack``, one matrix at a time, and an image of phi that it
    turns away makes the extension's image None, turned away too."""

    def evaluate(a: DensityOperator) -> Optional[DensityOperator]:
        t = a.trace
        if t <= 0.0:
            return a
        inner, ok = oracle_norm.image_stack(freeze(real_divide(a.matrix[None], t)))
        return DensityOperator.from_psd(inner[0] * t) if ok[0] else None

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
    verification draws, through ``default_rng(seed + 1)``: first all
    ``verification_trials`` traces and then all ranks, in one
    ``sampling.traces_and_ranks`` call, then one ``sampling.density_stack``
    block per stack. So trial k depends on ``verification_trials``: unlike
    ``classify_map``'s pairs, the inputs of fewer trials are no prefix of
    those of more.

    Every probe vv* is handed to ``oracle.image_stack`` as a read-only stack
    of one raw outer product: each probe vector's components are purely real
    or purely imaginary, so vv* is exactly Hermitian as computed. Every stack
    of verification inputs goes through ``image_stack`` too: one call per
    stack of at most TRIAL_STACK_ENTRIES entries, so the oracle's
    ``evaluate_stack`` (or, without one, ``evaluate`` per matrix) sees the
    rest of a stack even when an earlier trial in it fails. Each stack is
    scored in one pass: the residuals ||phi(A) - U A U*||_F come from one
    ``row_sumsq``, and the norms ||A||_F of the bound from another, read
    only when a residual exceeds CERTIFY_TOL, the least bound.
    ``probes_used`` counts the probes and the verification trials up to and
    including the first that fails, as a one-matrix-at-a-time loop would;
    ``residual_max`` is the largest residual among those trials. An image
    that is turned away rejects the map with that probe's status, or fails
    verification with ``residual_max`` infinite. A probe image is read with
    ``charact.projection_vector``, in O(d^2) for a rank-one projection; only
    an image near the RANK_TOL threshold, or not a projection at all, costs
    an O(d^3) eigendecomposition.
    """
    if verification_trials < 1:
        raise ValueError(f"verification_trials must be >= 1, got {verification_trials}")
    d = oracle.dim
    probes = 0

    def probe(v: np.ndarray, status: str) -> np.ndarray:
        """Amplitudes of the image of |v><v|; rejects with ``status`` unless
        the image is a finite rank-one projection of the oracle's dimension."""
        nonlocal probes
        images, ok = oracle.image_stack(freeze(np.outer(v, v.conj())[None]))
        probes += 1
        x = charact.projection_vector(DensityOperator(matrix=freeze(images)[0])) if ok[0] else None
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
    # All traces and ranks are drawn first; each stack of at most
    # TRIAL_STACK_ENTRIES entries then takes one density_stack draw, is mapped
    # in one image_stack call and scored in one pass. Stacks are drawn lazily,
    # so no stack after the first failing trial is drawn or mapped.
    rng = np.random.default_rng(seed + 1)
    traces, ranks = traces_and_ranks(rng, verification_trials, d)
    size = max(1, TRIAL_STACK_ENTRIES // (d * d))
    residual_max = 0.0
    status = STATUS_CERTIFIED
    for start in range(0, verification_trials, size):
        rows = slice(start, start + size)
        inputs = freeze(hermitize_stack(density_stack(rng, traces[rows], ranks[rows], d)))
        expected = apply_symmetry_stack(symmetry, inputs)
        images, ok = oracle.image_stack(inputs)
        res = np.where(ok, np.sqrt(row_sumsq(images - expected)), math.inf)
        worst = float(res.max())
        # CERTIFY_TOL is the least bound, so the inputs' norms are read only
        # for a stack with a residual above it
        if worst > CERTIFY_TOL:
            failed = np.flatnonzero(res > CERTIFY_TOL * (1.0 + np.sqrt(row_sumsq(inputs))))
            if len(failed):
                res = res[:failed[0] + 1]
                worst = float(res.max())
                status = STATUS_FAILED_VERIFICATION
        probes += len(res)
        residual_max = max(residual_max, worst)
        if status == STATUS_FAILED_VERIFICATION:
            break
    return ReconstructionReport(
        symmetry=symmetry,
        residual_max=residual_max,
        probes_used=probes,
        verification_trials=verification_trials,
        parity_margin=margin,
        status=status,
    )
