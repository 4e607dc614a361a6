"""Reconstruction of the unitary or antiunitary operator behind a black-box
map on density operators.

The map is probed on d + 2 rank-one projections: (1) the basis states,
whose images give the columns of a unitary U up to phases; (2) their uniform
superposition, which fixes every phase; (3) an i-superposition, which
classifies the parity. Their ReconstructionReport goes to (4) ``scan``, the
one place that certifies, for reconstruct and classify_map alike:
phi(A) = U A U* (or U conj(A) U*) on classify_map's trial inputs. One rule
judges every image, of a probe or of a verification input: its residual
against the candidate's image, within residual_bound(d), derived from
CLASSIFY_TOL through violation_bound. Bijectivity of the map is never
assumed; a map that fails any stage, or has an image that
``DensityMapOracle.image_stack``, through which the tools read every image,
turns away, gets a status flag, not an exception. An oracle that raises
still propagates its exception.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .matcore import (
    DensityOperator,
    check_same_dim,
    checked_int,
    freeze,
    hermitize_stack,
    pure_state,
    real_divide,
    row_sumsq,
)
from .sampling import density_stack, ginibre, haar_stack
from .tolerances import CLASSIFY_TOL

UNITARY = "unitary"
ANTIUNITARY = "antiunitary"

STATUS_CERTIFIED = "certified"
STATUS_FAILED_PROJECTION_PROBE = "failed_projection_probe"
STATUS_FAILED_PHASE = "failed_phase"
STATUS_FAILED_PARITY = "failed_parity"
STATUS_FAILED_VERIFICATION = "failed_verification"


# Draw blocks and scoring groups are different things. scan draws trial pairs
# in blocks of at most TRIAL_STACK_ENTRIES matrix entries (n * d^2) per side
# (16 pairs at d = 8, one at d >= 32; see block_size), which fix the RNG
# stream; it reads them in groups of up to GROUP_STACK_ENTRIES entries per
# side (at least one block), so memory stays that of a few d x d matrices.
TRIAL_STACK_ENTRIES = 1024
GROUP_STACK_ENTRIES = 4 * TRIAL_STACK_ENTRIES

# reconstruct's random inputs by default, and the least that classify_map reads (as pairs)
VERIFICATION_TRIALS = 64


def _is_numeric_array(m, shape: tuple[int, ...]) -> bool:
    """An ndarray of bools or numbers of the given shape, but no np.matrix,
    whose * and indexing are not an ndarray's."""
    return (isinstance(m, np.ndarray) and not isinstance(m, np.matrix)
            and m.dtype.kind in "biufc" and m.shape == shape)


@dataclass(frozen=True)
class DensityMapOracle:
    """Executable contract of a candidate map: a pure, deterministic function
    on density operators of a fixed dimension, given by one action on stacks.

    ``evaluate_stack`` maps an (n, dim, dim) array of input matrices to the
    (n, dim, dim) array of their images in one call, and returns a fresh
    array or its input. The tools read it through ``image_stack``;
    ``evaluate``, its n = 1 case, calls it directly, so it returns even an
    image that image_stack turns away, such as ``from_evaluate``'s NaN row."""

    dim: int
    evaluate_stack: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        dim = self.dim
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
            raise ValueError(f"oracle dim must be >= 1 and an integer, got {self.dim!r}")

    @classmethod
    def from_evaluate(cls, dim: int, evaluate: Callable[[DensityOperator], DensityOperator]
                      ) -> "DensityMapOracle":
        """The oracle of a map given one operator at a time: its stack action
        calls ``evaluate`` once per row, in stack order, and writes a NaN row
        for a return that is no DensityOperator with a numeric (dim, dim)
        matrix."""

        def evaluate_stack(m: np.ndarray) -> np.ndarray:
            out = np.full(m.shape, np.nan, dtype=complex)
            for k, x in enumerate(m):
                y = evaluate(DensityOperator(matrix=x))
                if isinstance(y, DensityOperator) and _is_numeric_array(y.matrix, m.shape[1:]):
                    out[k] = y.matrix
            return out

        return cls(dim, evaluate_stack)

    def evaluate(self, a: DensityOperator) -> DensityOperator:
        """The image of one operator, the n = 1 case of ``evaluate_stack``."""
        check_same_dim(self, a)
        return DensityOperator(matrix=freeze(self.evaluate_stack(a.matrix[None]))[0])

    def image_stack(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The images of a read-only (n, dim, dim) stack of inputs as a complex
        (n, dim, dim) array, and the mask ``ok`` of the rows that pass the one
        rule for images: a finite (dim, dim) ndarray of bools or numbers, but
        no np.matrix. A row turned away is zero.

        The stack goes to the oracle in one call of ``evaluate_stack``. The
        return is tested whole for type, dtype and shape, so a bad one turns
        the whole stack away; one vectorised test of sum |m_ij|^2 then turns
        away each non-finite row, such as a NaN row of ``from_evaluate``."""
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
    """The one value from probe to verdict: of _probe_stages, scan,
    reconstruct and classify_map (see ClassificationReport). ``status`` is ``certified`` or
    names the stage whose image first missed the candidate's by more than
    residual_bound(d): ``failed_projection_probe`` a basis image, against its
    own top vector's projection or U's column; ``failed_phase`` the uniform
    probe's; ``failed_parity`` the i-superposition's; ``failed_verification`` a
    trial input's. ``symmetry`` is the candidate S that the probes assembled,
    None if a probe stage rejected the map, and ``verification_trials`` the
    number of inputs A_1, B_1, A_2, ... of scan's trial pairs it was verified
    on, else 0: the probes' report of a candidate, before scan reads an input,
    is ``failed_verification``.
    ``probes_used`` counts the inputs read, as a one-at-a-time loop would
    (scan hands the oracle whole groups): on a probe-stage rejection the
    stage's fixed count, j + 1 for basis probe j (from 0), d for the basis
    images against U's columns, d + 1 for phase fixing and d + 2 for parity;
    else the d + 2 probes (1 at d = 1) and the inputs through the first that
    fails. ``residual_max`` is the largest residual ||phi A - S A||_F over
    those inputs, infinite for a probe-stage rejection or an image turned
    away. With ov_u and ov_a the overlaps of the parity probe image's top
    vector with the unitary and antiunitary hypotheses, ``parity_margin`` is
    |ov_u - ov_a| once parity is decided, the signed ov_u - ov_a on
    ``failed_parity``, and 0 for an earlier rejection or at d = 1."""

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
    return DensityMapOracle(s.dim, lambda m: apply_symmetry_stack(s, m))


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

    return DensityMapOracle.from_evaluate(oracle_norm.dim, evaluate)


def _probe(oracle: DensityMapOracle, v: np.ndarray
           ) -> tuple[Callable[[np.ndarray], float], Optional[np.ndarray]]:
    """The image P of |v><v| as its residual h -> ||P - hh*||_F against the
    image hh* that a candidate gives the probe, and its top vector: one
    power step P(P e_k), for k the index of P's largest diagonal entry, as a
    phase-canonical unit vector; None for an image turned away, or with no
    top vector, as the power step's norm is zero or overflows."""
    images, ok = oracle.image_stack(freeze(np.outer(v, v.conj())[None]))
    p = images[0]
    with np.errstate(over="ignore", invalid="ignore"):
        x = p @ p[:, int(np.argmax(p.diagonal().real))]
        norm = np.linalg.norm(x)
    top = pure_state(x / norm).amplitudes if ok[0] and 0.0 < norm < math.inf else None
    return lambda h: float(np.sqrt(row_sumsq((p - np.outer(h, h.conj()))[None])[0])), top


def _phases(z: np.ndarray) -> np.ndarray:
    """z / |z| entrywise, and 1 where z = 0."""
    return np.divide(z, np.abs(z), out=np.ones(len(z), dtype=complex), where=z != 0.0)


def _rejected(status: str, probes: int, margin: float = 0.0) -> ReconstructionReport:
    """The report of a probe stage that rejects the map after ``probes`` probes."""
    return ReconstructionReport(None, math.inf, probes, 0, margin, status)


def block_size(dim: int) -> int:
    """The trial pairs of one draw block at dimension ``dim``: at most
    TRIAL_STACK_ENTRIES matrix entries per side, but at least one."""
    return max(1, TRIAL_STACK_ENTRIES // (dim * dim))


def scoring_groups(count: int, dim: int) -> Iterator[range]:
    """The one group schedule of ``scan``: the starts 0, size, 2 size, ...
    below ``count`` pairs of the draw blocks of size = block_size(dim)
    pairs, in consecutive groups of 1, 2, 4, ... blocks, each of at most
    max(1, GROUP_STACK_ENTRIES // (size dim^2)) blocks; the last group holds
    the blocks left. So a rejection in the first block reads that block
    alone, and a scan of many small blocks reads them in a few calls."""
    size = block_size(dim)
    cap = max(1, GROUP_STACK_ENTRIES // (size * dim * dim))
    starts, blocks = range(0, count, size), 1
    while starts:
        yield starts[:blocks]
        starts, blocks = starts[blocks:], min(2 * blocks, cap)


def violation_bound(dim: int, delta: np.ndarray, traces: np.ndarray) -> np.ndarray:
    """An upper bound on |F(phi A, phi B) - F(A, B)| for each row of (n, 2)
    arrays of residuals ``delta`` = (||phi A - S A||_F, ||phi B - S B||_F)
    and input traces (tr A, tr B), S a symmetry and dim the dimension:

        beta = (sqrt(d) d_A (tr B + sqrt(d) d_B))^(1/2) + (sqrt(d) d_B tr A)^(1/2).

    Derivation, in exact arithmetic. F(S A, S B) = F(A, B), tr S A = tr A,
    and F(P, Q) = ||P^(1/2) Q^(1/2)||_1. Write A' = phi A, B' = phi B and
    A, B for S A, S B. The triangle inequality and Hoelder's
    ||XY||_1 <= ||X||_2 ||Y||_2, with ||Q^(1/2)||_2 = (tr Q)^(1/2), give

        |F(A', B') - F(A, B)| <= ||A'^(1/2) - A^(1/2)||_2 (tr B')^(1/2)
                                 + (tr A)^(1/2) ||B'^(1/2) - B^(1/2)||_2,

    and Powers-Stoermer (Commun. Math. Phys. 16 (1970) 1),
    ||P^(1/2) - Q^(1/2)||_2^2 <= ||P - Q||_1, with ||X||_1 <= sqrt(d) ||X||_F
    and tr B' <= tr B + ||B' - B||_1, gives beta. An image that is not PSD is
    read through its projection onto the PSD cone, which is no farther from
    S X, a point of that cone, so beta bounds the change of F on the
    projected images as well. beta bounds the exact change; the rounding of
    a computed F is not in it. An infinite residual (an image turned away, or
    no candidate) or an overflow gives an infinite bound, which settles
    nothing, and so does the NaN of a zero residual times an infinite one."""
    r = np.sqrt(dim) * delta
    with np.errstate(over="ignore", invalid="ignore"):
        beta = np.sqrt(r[:, 0] * (traces[:, 1] + r[:, 1])) + np.sqrt(r[:, 1] * traces[:, 0])
    return np.where(np.isnan(beta), np.inf, beta)


MAX_TRACE = 2.0  # _trial_pairs' mixed traces lie below it, and residual_bound holds up to it


@functools.cache
def residual_bound(dim: int) -> float:
    """The one rule for images at dimension ``dim``, found once by bisection:
    the largest residual delta with violation_bound(dim, (delta, delta),
    (t, t)) <= CLASSIFY_TOL at t = MAX_TRACE, the ceiling of a trial input's
    trace. The bound grows with each residual and trace, so inputs within it
    keep each pair's |dF| within CLASSIFY_TOL. As F moves by sqrt(delta) at
    orthogonality, it is about CLASSIFY_TOL^2 / (8 sqrt(d))."""
    lo, hi = 0.0, CLASSIFY_TOL
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        beta = violation_bound(dim, np.array([[mid, mid]]), np.full((1, 2), MAX_TRACE))[0]
        lo, hi = (mid, hi) if beta <= CLASSIFY_TOL else (lo, mid)
    return lo


def _trial_pairs(rng: np.random.Generator, dim: int, count: int, blocks: int = 1) -> np.ndarray:
    """``blocks`` blocks of ``count`` trial pairs as one hermitized, read-only
    (blocks * count, 2, dim, dim) stack, bit for bit the concatenation of
    ``blocks`` calls with ``blocks=1``: 40% random mixed pairs, 40% random
    pure pairs, 20% orthogonal pure pairs, the sharpest discriminators
    (F = 0 must map to F = 0). At dim 1, with no orthogonal pair and one
    pure state, every pair is mixed and no kind is drawn.

    A block draws, in this order: one uniform per pair (mixed below 0.4,
    pure below 0.8, else orthogonal); for its n mixed pairs, A_1, B_1, ...,
    all 2n traces, uniform in [0, MAX_TRACE) with 0 read as 1, then all 2n
    ranks, uniform in 1..dim, and one sampling.density_stack call; for its
    pure pairs one (n, 2, dim) Ginibre block; for its orthogonal pairs one
    (n, dim, dim) Ginibre block, of which only the first two columns are
    kept. A kind the block lacks makes no call, as a size-0 draw takes no
    generator state. The stack is then built at once, each step (norm,
    haar_stack, vv*, hermitize) one row at a time, so a block's bits do not
    depend on ``blocks``; pair k depends on ``count``, so scan draws whole
    blocks."""
    pairs = np.empty((blocks * count, 2, dim, dim), dtype=complex)
    pure_rows, orthogonal_rows, pure, orthogonal = [], [], [np.empty((0, 2, dim), complex)], []
    for start in range(0, blocks * count, count):
        kinds = rng.uniform(size=count) if dim > 1 else np.zeros(count)
        mixed = start + np.flatnonzero(kinds < 0.4)
        pure_rows.append(start + np.flatnonzero((kinds >= 0.4) & (kinds < 0.8)))
        orthogonal_rows.append(start + np.flatnonzero(kinds >= 0.8))
        if len(mixed):
            traces = rng.uniform(0.0, MAX_TRACE, size=2 * len(mixed))
            traces[traces == 0.0] = 1.0
            ranks = rng.integers(1, dim + 1, size=2 * len(mixed))
            pairs[mixed] = density_stack(rng, traces, ranks, dim).reshape(-1, 2, dim, dim)
        if len(pure_rows[-1]):
            pure.append(ginibre(rng, (len(pure_rows[-1]), 2, dim)))
        if len(orthogonal_rows[-1]):
            orthogonal.append(ginibre(rng, (len(orthogonal_rows[-1]), dim, dim))[..., :2])

    v = np.concatenate(pure)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    if orthogonal:
        v = np.concatenate([v, haar_stack(np.concatenate(orthogonal)).swapaxes(-1, -2)])
    pairs[np.concatenate(pure_rows + orthogonal_rows)] = v[..., :, None] * v[..., None, :].conj()
    return freeze(hermitize_stack(pairs.reshape(-1, dim, dim))).reshape(pairs.shape)


def scan(oracle: DensityMapOracle, probed: ReconstructionReport, count: int, seed: int
         ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                             ReconstructionReport]]:
    """The one scan of a map against the candidate S of ``probed``, the
    probes' report, the one place that certifies, and the one stream that
    verifies S for reconstruct and classify_map alike: the first ``count``
    inputs A_1, B_1, A_2, ... of the trial pairs of ``default_rng(seed)``.
    Per group of ``scoring_groups(ceil(count / 2), d)``: its blocks of
    block_size(d) pairs, drawn whole by one _trial_pairs call and the last
    cut to the inputs left, as a read-only (n, d, d) stack; their images and
    mask ``ok`` from one ``oracle.image_stack`` call; each row's residual
    ||phi X - S X||_F (+inf if turned away, or with no S); and ``probed``
    verified on the inputs so far, in draw order, up to and including the
    first with res > residual_bound(d) (``probed`` itself with no S). No
    group after the one the caller stops in is drawn or mapped."""
    d, size, symmetry = oracle.dim, block_size(oracle.dim), probed.symmetry
    rng = np.random.default_rng(seed)
    top, read, failed, report = 0.0, 0, False, probed
    for group in scoring_groups((count + 1) // 2, d):
        inputs = _trial_pairs(rng, d, size, len(group)).reshape(-1, d, d)[:count - 2 * group[0]]
        images, ok = oracle.image_stack(inputs)
        res = np.full(len(inputs), math.inf)
        if symmetry is not None:
            res[ok] = np.sqrt(row_sumsq(images - apply_symmetry_stack(symmetry, inputs)))[ok]
            if not failed:
                bad = np.flatnonzero(~(res <= residual_bound(d)))
                n = int(bad[0]) + 1 if len(bad) else len(res)
                top, read, failed = max(top, float(res[:n].max())), read + n, len(bad) > 0
                report = ReconstructionReport(
                    symmetry, top, probed.probes_used + read, count, probed.parity_margin,
                    STATUS_FAILED_VERIFICATION if failed else STATUS_CERTIFIED)
        yield inputs, images, ok, res, report


def _probe_stages(oracle: DensityMapOracle) -> ReconstructionReport:
    """Probe stages (1)-(3): the rejecting stage's report, or else the
    candidate's before verification, which only the caller's scan
    certifies. Each probe image P passes by scan's rule,
    ||P - S'(vv*)||_F <= residual_bound(d), against the best candidate S'
    known when P is read, and is read through its top vector, in O(d^2) and
    with no eigendecomposition."""
    d = oracle.dim
    tol = residual_bound(d)

    # (1) Basis probes: each image P_j against x_j x_j* for its own top
    # vector x_j, then against u_j u_j* for the columns of U, the polar
    # factor of X = (x_1 ... x_d) (one SVD: unitary to rounding, and exactly
    # I when X = I), by ||P_j - u_j u_j*||_F <= r_j + 2 min_theta
    # ||x_j - e^(i theta) u_j|| with r_j = ||P_j - x_j x_j*||_F.
    x = np.empty((d, d), dtype=complex)
    r = np.empty(d)
    for j, e in enumerate(np.eye(d, dtype=complex)):
        off, top = _probe(oracle, e)
        r[j] = math.inf if top is None else off(top)
        if r[j] > tol:
            return _rejected(STATUS_FAILED_PROJECTION_PROBE, j + 1)
        x[:, j] = top
    left, _, right = np.linalg.svd(x)
    u = left @ right
    if np.any(r + 2.0 * np.linalg.norm(x - u * _phases(np.einsum("ij,ij->j", u.conj(), x)),
                                       axis=0) > tol):
        return _rejected(STATUS_FAILED_PROJECTION_PROBE, d)

    parity, margin = UNITARY, 0.0
    # d = 1: the two parities coincide on 1x1 matrices; unitary by convention.
    if d >= 2:
        # (2) Phase fixing: <U e_j, U s> = 1/sqrt(d) is nonzero for every j,
        # so the image of s = (e_1 + ... + e_d)/sqrt(d), with top vector y
        # and c = U* y, pins every column's phase at once: column j becomes
        # u_j (c_j/|c_j|)(|c_1|/c_1), a zero overlap counting as phase 1, and
        # column 1 keeps its bits. The image is judged against (Us)(Us)*.
        s = np.full(d, 1.0 / math.sqrt(d), dtype=complex)
        off, y = _probe(oracle, s)
        if y is None:
            return _rejected(STATUS_FAILED_PHASE, d + 1)
        c = _phases(u.conj().T @ y)
        u[:, 1:] *= c[1:] * c[0].conjugate()
        if off(u @ s) > tol:
            return _rejected(STATUS_FAILED_PHASE, d + 1)

        # (3) Parity from the i-superposition w = (e_1 + i e_2)/sqrt(2): the
        # hypothesis, U w or U conj(w), that its image's top vector overlaps
        # more, against which the image is judged.
        off, top = _probe(oracle, np.array([1.0, 1j] + [0.0] * (d - 2)) / math.sqrt(2.0))
        if top is None:
            return _rejected(STATUS_FAILED_PARITY, d + 2)
        h_u = (u[:, 0] + 1j * u[:, 1]) / math.sqrt(2.0)
        h_a = (u[:, 0] - 1j * u[:, 1]) / math.sqrt(2.0)
        ov_u = abs(np.vdot(h_u, top)) ** 2
        ov_a = abs(np.vdot(h_a, top)) ** 2
        parity = UNITARY if ov_u >= ov_a else ANTIUNITARY
        if off(h_u if parity == UNITARY else h_a) > tol:
            return _rejected(STATUS_FAILED_PARITY, d + 2, margin=float(ov_u - ov_a))
        margin = float(abs(ov_u - ov_a))
    return ReconstructionReport(SymmetryOperator(parity=parity, u=u), 0.0, d + 2 if d >= 2 else 1,
                                0, margin, STATUS_FAILED_VERIFICATION)


def reconstruct(
    oracle: DensityMapOracle,
    verification_trials: int = VERIFICATION_TRIALS,
    seed: int = 0,
) -> ReconstructionReport:
    """Probe the oracle on rank-one projections, assemble the implementing
    operator, classify its parity, and certify on random density operators.

    A bijective fidelity-preserving map is A -> U A U* or A -> U conj(A) U*.
    d + 2 probes pin that candidate up to a global phase (one at d = 1): the
    d basis projections, s = (e_1 + ... + e_d)/sqrt(d) for phase fixing and
    (e_1 + i e_2)/sqrt(2) for parity; verification then decides. Every
    image passes by one rule, a residual of at most residual_bound(d)
    against the candidate's image (see _probe_stages). A map that passes
    the probes but is not the candidate (a different parity or a transpose
    on one block) differs from it on a set of positive measure, which the
    random verification inputs hit; one that differs only on a null set
    escapes any finite schedule of probes.

    Each stage returns its report as soon as it rejects the map, with the
    probe count that ReconstructionReport states. Each probe vv* reaches
    ``oracle.image_stack`` as a read-only stack of one raw outer product,
    exactly Hermitian as computed since each component of v is purely real
    or purely imaginary. Verification reads, through ``scan``, the first
    ``verification_trials`` inputs A_1, B_1, A_2, ... of classify_map's trial
    pairs from ``default_rng(seed)``: those of fewer trials are a prefix of
    those of more, and classify_map's reconstruction is this report at
    twice the trials it scored. As the first inputs may all be pure, a map
    that is S on pure states alone can pass a very few trials. The report is
    scan's, up to the first that fails. An image turned away rejects the map
    with its probe's status, or fails verification with an infinite
    residual. Trials that are no integer, or below 1, raise ValueError first.
    """
    if (verification_trials := checked_int("verification_trials", verification_trials)) < 1:
        raise ValueError(f"verification_trials must be >= 1, got {verification_trials}")
    report = _probe_stages(oracle)
    if report.symmetry is not None:
        for *_, report in scan(oracle, report, verification_trials, seed):
            if not report.certified:
                break
    return report
