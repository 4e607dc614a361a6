"""Maps that test the dichotomy at its edges, keyed by test id: the one table
from which test_adversarial_maps checks the verdicts of classify_map and
reconstruct. Each row gives a builder of the oracle, the verdict that
classify_map must reach, and the status, probe count and parity that
reconstruct must report; a row that names the implementing operator is
compared with the reconstruction up to a global phase, within the row's
``within``.

The rows:
- every zoo kind at d = 3 and d = 8;
- the null-set break at d = 3 and d = 8: the identity except at e_1 e_1*,
  which no trial pair hits and the basis probes do;
- the near-orthogonal maps at d = 2: the identity except that e_2 e_2*
  goes to vv*, v = (eps e_1 + e_2)/||.||. At eps = 3e-8 the polar factor of
  the basis images is 2.1e-8 from I and every probe image within
  2 CERTIFY_TOL of its image under it, so the map certifies, and it
  preserves fidelity within CLASSIFY_TOL; at eps = 3e-6 the basis images
  lie too far from any unitary's columns, and the map is rejected after
  the second basis probe;
- probe-evading maps at d = 3 and d = 8, for a Haar symmetry S of each
  parity with U drawn from default_rng(d + 40): S after a block conjugate
  or a block transpose, which pass every probe and fail verification, and
  S after a Schur phase multiplier, which fails the phase probe; the
  identity on rank one and the transpose above it; and S on rank one and
  the depolarizing map (p = 0.5) above it, for each parity. The last two
  pass every probe and fail verification;
- group closure: S_2 S_1 for two Haar symmetries of each parity pair, a
  symmetry of the product parity implemented by U_2 U_1, or by
  U_2 conj(U_1) when S_2 is antiunitary; classified at d = 2 and d = 8,
  and at d = 64 run through reconstruct alone, which costs a fraction of a
  classification there;
- the mix after a symmetry, A -> (1 - p) S(A) + p tr(A) sigma for the
  unitary S = haar_symmetry(d, unitary) and the zoo mix's sigma, at
  d = 4 and 32: reconstruct certifies it within 10 p of S up to
  p = 1e-7, and rejects it at the first probe from p = 3e-7, where the
  first basis image lies more than 2 CERTIFY_TOL from the projection onto
  its own top vector; classify_map, run at d = 4, rejects it with a witness at
  every p, as the fidelity it breaks grows as sqrt(p);
- Bloch-ball rows at d = 2, A = (t/2)(I + r.sigma) -> (t/2)(I + R r.sigma)
  for seeded R in O(3), built from R and not from a unitary: a symmetry,
  antiunitary exactly when det R = -1 (seeds 4 and 5 of 0..5); the
  shrink 0.9 R, which sends pure states to mixed ones; and the radial warp
  r -> |r| r, which keeps every pure state and moves the mixed ones.
"""
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from fidsym.charact import numerical_rank
from fidsym.mapzoo import PRESERVING_KINDS, MapSpec, make_map, zoo_specs
from fidsym.matcore import DensityOperator
from fidsym.sampling import haar_unitary
from fidsym.wigner import (
    ANTIUNITARY,
    STATUS_CERTIFIED,
    STATUS_FAILED_PHASE,
    STATUS_FAILED_PROJECTION_PROBE,
    STATUS_FAILED_VERIFICATION,
    UNITARY,
    DensityMapOracle,
    SymmetryOperator,
    apply_symmetry_stack,
)

# The verdicts of classify_map: preserving, rejected with a witness pair
# (a trial pair breaks fidelity), or rejected by the reconstruction alone
# (no trial pair does, and the report's reconstruction says why).
PRESERVING = "preserving"
WITNESS = "witness"
RECONSTRUCTION = "reconstruction"

# reconstruct's default verification trials, which a certified map spends
# after its d + 2 probes
VERIFICATION_TRIALS = 64


@dataclass(frozen=True)
class Row:
    build: Callable[[], DensityMapOracle]
    verdict: Optional[str]  # None: the row is run through reconstruct alone
    status: str
    probes: int
    parity: Optional[str] = None
    u: Optional[np.ndarray] = None
    within: float = 1e-13  # the largest distance of the reconstruction to u


def zoo_rows(d: int) -> dict[str, Row]:
    certified = (STATUS_CERTIFIED, d + 2 + VERIFICATION_TRIALS)
    rejected = {
        "depolarizing": (STATUS_FAILED_PROJECTION_PROBE, 1),
        "mix": (STATUS_FAILED_PROJECTION_PROBE, 1),
        "dephase": (STATUS_FAILED_PHASE, d + 1),
        "spectral_scramble": (STATUS_FAILED_PROJECTION_PROBE, d),
    }
    parity = {"identity": UNITARY, "unitary": UNITARY,
              "antiunitary": ANTIUNITARY, "transpose": ANTIUNITARY}
    return {
        f"{spec.kind}-d{d}": Row(functools.partial(make_map, spec), PRESERVING, *certified,
                                 parity[spec.kind])
        if spec.kind in PRESERVING_KINDS else
        Row(functools.partial(make_map, spec), WITNESS, *rejected[spec.kind])
        for spec in zoo_specs(d)
    }


def moved_at(x: np.ndarray, y: np.ndarray) -> DensityMapOracle:
    """The identity, except that the input x goes to y: a trial input is x
    with probability 0, so no trial pair breaks fidelity."""

    def act(m: np.ndarray) -> np.ndarray:
        out = m.copy()
        out[np.all(m == x, axis=(-2, -1))] = y
        return out

    return DensityMapOracle(len(x), act)


def null_set_break(d: int) -> DensityMapOracle:
    """The identity, except that e_1 e_1* goes to e_2 e_2*: the basis probes
    find two equal columns."""
    e11, e22 = np.zeros((2, d, d), dtype=complex)
    e11[0, 0] = e22[1, 1] = 1.0
    return moved_at(e11, e22)


def near_orthogonal_break(eps: float) -> DensityMapOracle:
    """The identity at d = 2, except that e_2 e_2* goes to vv* for
    v = (eps e_1 + e_2)/||.||: the basis images' overlap, about eps, moves
    each column of their polar factor about eps / 2 away from I's."""
    v = np.array([eps, 1.0]) / math.hypot(eps, 1.0)
    return moved_at(np.diag([0.0, 1.0]).astype(complex), np.outer(v, v).astype(complex))


def block_conjugate(m: np.ndarray) -> np.ndarray:
    """Conjugate (for a Hermitian matrix, transpose) the block on e_2..e_d of
    every matrix of an (n, d, d) stack."""
    out = m.copy()
    out[:, 1:, 1:] = m[:, 1:, 1:].conj()
    return out


def block_transpose(m: np.ndarray) -> np.ndarray:
    """Transpose the two off-diagonal blocks between e_1 and e_2..e_d of every
    matrix of an (n, d, d) stack."""
    out = m.copy()
    out[:, 0, 1:] = m[:, 1:, 0]
    out[:, 1:, 0] = m[:, 0, 1:]
    return out


def schur_phase(d: int) -> Callable[[np.ndarray], np.ndarray]:
    """M -> S o M with S_jk = exp(i theta_jk), theta antisymmetric and not of
    the form t_j - t_k, so that S o M is no diagonal-unitary conjugation."""
    theta = np.triu(np.random.default_rng(d).uniform(0.0, 2.0 * np.pi, (d, d)), k=1)
    s = np.exp(1j * (theta - theta.T))
    return lambda m: s * m


# The inner maps of probe_evading, each built from d.
EVADERS = {
    "block_conjugate": lambda d: block_conjugate,
    "block_transpose": lambda d: block_transpose,
    "schur_phase": schur_phase,
}


def haar_symmetry(d: int, parity: str) -> SymmetryOperator:
    """The Haar symmetry of the given parity with U drawn from default_rng(d + 40)."""
    return SymmetryOperator(parity=parity, u=haar_unitary(np.random.default_rng(d + 40), d))


def probe_evading(family: str, d: int, parity: str) -> DensityMapOracle:
    """A -> S(inner(A)) for the inner map EVADERS[family] and the symmetry
    S = haar_symmetry(d, parity): equal to S on every real probe, and
    different from it on a set of positive measure."""
    truth = haar_symmetry(d, parity)
    inner = EVADERS[family](d)
    return DensityMapOracle(d, lambda m: apply_symmetry_stack(truth, inner(m)))


def depolarized_off_the_probes(d: int) -> DensityMapOracle:
    """The identity at d, except that an input with |tr A - 1| <= 1e-9, more
    than two nonzero diagonal entries and not all entries equal goes to
    0.5 A + 0.5 tr(A) I/d. reconstruct's probes have at most two nonzero
    diagonal entries, or all entries equal (the uniform probe), and its
    verification inputs random traces, so it certifies the identity; the
    pure trial pairs of classify_map break it, and fail the identity's
    verification there."""
    def evaluate_stack(m: np.ndarray) -> np.ndarray:
        t = np.trace(m, axis1=-2, axis2=-1).real
        diag = np.diagonal(m, axis1=-2, axis2=-1)
        uniform = np.all(m == m[:, :1, :1], axis=(-2, -1))
        hit = (np.abs(t - 1.0) <= 1e-9) & (np.count_nonzero(diag, axis=-1) > 2) & ~uniform
        out = m.copy()
        out[hit] = 0.5 * m[hit] + 0.5 * t[hit, None, None] * np.eye(d) / d
        return out

    return DensityMapOracle(d, evaluate_stack)


def split_at_rank_one(d: int, on_rank_one: Callable[[np.ndarray], np.ndarray],
                      above: Callable[[np.ndarray], np.ndarray]) -> DensityMapOracle:
    """on_rank_one on the inputs of numerical rank one, above on the rest:
    every probe is rank one and passes when on_rank_one is a symmetry, and
    the first verification input of rank >= 2 fails."""
    def act(m: np.ndarray) -> np.ndarray:
        one = np.array([numerical_rank(DensityOperator(matrix=x)) == 1 for x in m])
        return np.where(one[:, None, None], on_rank_one(m), above(m))

    return DensityMapOracle(d, act)


def rank_one_identity(d: int) -> DensityMapOracle:
    """The identity on rank-one inputs, the transpose on the rest."""
    return split_at_rank_one(d, lambda m: m, lambda m: m.swapaxes(-1, -2))


def rank_one_symmetry(d: int, parity: str) -> DensityMapOracle:
    """haar_symmetry(d, parity) on rank-one inputs, the depolarizing map
    (p = 0.5) on the rest."""
    truth = haar_symmetry(d, parity)
    depolarizing = make_map(MapSpec("depolarizing", d, {"p": 0.5}))
    return split_at_rank_one(d, lambda m: apply_symmetry_stack(truth, m),
                             depolarizing.evaluate_stack)


def mix_after_symmetry(d: int, p: float) -> DensityMapOracle:
    """A -> (1 - p) S(A) + p tr(A) sigma: the zoo's mix at p after the
    unitary S = haar_symmetry(d, unitary)."""
    truth = haar_symmetry(d, UNITARY)
    mix = make_map(MapSpec("mix", d, {"p": p}))
    return DensityMapOracle(d, lambda m: mix.evaluate_stack(apply_symmetry_stack(truth, m)))


def mix_row(d: int, p: float) -> Row:
    """mix_after_symmetry(d, p): certified within 10 p of S up to p = 1e-7,
    rejected by the first basis probe above; classified at d = 4 alone."""
    verdict = WITNESS if d == 4 else None
    if p > 1e-7:
        return Row(functools.partial(mix_after_symmetry, d, p), verdict,
                   STATUS_FAILED_PROJECTION_PROBE, 1)
    return Row(functools.partial(mix_after_symmetry, d, p), verdict, STATUS_CERTIFIED,
               d + 2 + VERIFICATION_TRIALS, UNITARY, haar_symmetry(d, UNITARY).u, 10.0 * p)


def closure_row(d: int, p1: str, p2: str, verdict: Optional[str]) -> Row:
    """S_2 S_1 for Haar symmetries S_1, S_2 of parities p1, p2, seeded by d."""
    rng = np.random.default_rng(d)
    s1, s2 = (SymmetryOperator(parity=p, u=haar_unitary(rng, d)) for p in (p1, p2))
    u = s2.u @ (s1.u.conj() if p2 == ANTIUNITARY else s1.u)
    return Row(lambda: DensityMapOracle(
        d, lambda m: apply_symmetry_stack(s2, apply_symmetry_stack(s1, m))),
        verdict, STATUS_CERTIFIED, d + 2 + VERIFICATION_TRIALS,
        UNITARY if p1 == p2 else ANTIUNITARY, u)


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def seeded_o3(seed: int) -> np.ndarray:
    """A Haar-random R in O(3), of either determinant."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


def bloch_oracle(move: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> DensityMapOracle:
    """(t/2)(I + b.sigma) -> (t/2)(I + b'.sigma) at d = 2, with t b' =
    move(t b, t) for the (n, 3) stack of t b_k = tr(sigma_k A) read off each
    input and the (n,) stack of its traces t."""
    def act(m: np.ndarray) -> np.ndarray:
        t = np.trace(m, axis1=-2, axis2=-1).real
        b = np.einsum("kij,nji->nk", PAULI, m).real
        return 0.5 * (t[:, None, None] * np.eye(2) + np.einsum("nk,kij->nij", move(b, t), PAULI))

    return DensityMapOracle(2, act)


def bloch_map(r: np.ndarray) -> DensityMapOracle:
    """b -> r b on the Bloch vector."""
    return bloch_oracle(lambda b, t: b @ r.T)


def radial_warp() -> DensityMapOracle:
    """b -> |b| b on the Bloch vector: a pure state, |b| = 1, keeps its
    image, and a mixed one moves toward the centre."""
    return bloch_oracle(lambda b, t: b * (np.linalg.norm(b, axis=1) / t)[:, None])


def bloch_row(r: np.ndarray) -> Row:
    """bloch_map(r) for r in O(3): a symmetry, antiunitary exactly when
    det r = -1."""
    return Row(functools.partial(bloch_map, r), PRESERVING, STATUS_CERTIFIED,
               2 + 2 + VERIFICATION_TRIALS, ANTIUNITARY if np.linalg.det(r) < 0 else UNITARY)


PARITIES = (UNITARY, ANTIUNITARY)

ADVERSARIAL_MAPS = {
    **zoo_rows(3),
    **zoo_rows(8),
    **{f"null-set-d{d}": Row(functools.partial(null_set_break, d), RECONSTRUCTION,
                             STATUS_FAILED_PROJECTION_PROBE, d)
       for d in (3, 8)},
    "near-orthogonal-d2": Row(functools.partial(near_orthogonal_break, 3e-8), PRESERVING,
                              STATUS_CERTIFIED, 2 + 2 + VERIFICATION_TRIALS, UNITARY),
    "near-orthogonal-3e-6-d2": Row(functools.partial(near_orthogonal_break, 3e-6),
                                   RECONSTRUCTION, STATUS_FAILED_PROJECTION_PROBE, 2),
    **{f"{family}-{parity}-d{d}": Row(
        functools.partial(probe_evading, family, d, parity), WITNESS,
        *((STATUS_FAILED_PHASE, d + 1) if family == "schur_phase" else
          (STATUS_FAILED_VERIFICATION, d + 3)))
       for d in (3, 8) for parity in PARITIES for family in EVADERS},
    **{f"rank-one-identity-d{d}": Row(functools.partial(rank_one_identity, d), WITNESS,
                                      STATUS_FAILED_VERIFICATION, d + 3)
       for d in (3, 8)},
    **{f"rank-one-symmetry-{parity}-d{d}": Row(functools.partial(rank_one_symmetry, d, parity),
                                                WITNESS, STATUS_FAILED_VERIFICATION, d + 3)
       for d in (3, 8) for parity in PARITIES},
    **{f"closure-{p2}-{p1}-d{d}": closure_row(d, p1, p2, PRESERVING if d < 64 else None)
       for d in (2, 8, 64) for p1 in PARITIES for p2 in PARITIES},
    **{f"mix-after-symmetry-p{p:.0e}-d{d}": mix_row(d, p)
       for d in (4, 32) for p in (1e-10, 1e-8, 1e-7, 3e-7, 1e-5)},
    **{f"bloch-{seed}": bloch_row(seeded_o3(seed)) for seed in range(6)},
    "bloch-shrink": Row(functools.partial(bloch_map, 0.9 * seeded_o3(0)), WITNESS,
                        STATUS_FAILED_PROJECTION_PROBE, 1),
    "bloch-radial-warp": Row(radial_warp, WITNESS, STATUS_FAILED_VERIFICATION, 6),
}
