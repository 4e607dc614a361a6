"""Maps that test the dichotomy at its edges, keyed by test id: the one table
from which test_adversarial_maps checks the verdicts of classify_map and
reconstruct. Each row gives a builder of the oracle, the verdict that
classify_map must reach, and the status, probe count and parity that
reconstruct must report; a row that names the implementing operator is
compared with the reconstruction up to a global phase.

The rows:
- every zoo kind at d = 3 and d = 8;
- the null-set break at d = 3 and d = 8: the identity except at e_1 e_1*,
  which no trial pair hits and the basis probes do;
- group closure: S_2 S_1 for two Haar symmetries of each parity pair, a
  symmetry of the product parity implemented by U_2 U_1, or by
  U_2 conj(U_1) when S_2 is antiunitary; classified at d = 2 and d = 8,
  and at d = 64 run through reconstruct alone, which costs a fraction of a
  classification there;
- Bloch-ball rows at d = 2, A = (t/2)(I + r.sigma) -> (t/2)(I + R r.sigma)
  for seeded R in O(3), built from R and not from a unitary: a symmetry,
  antiunitary exactly when det R = -1 (seeds 4 and 5 of 0..5); and the
  shrink 0.9 R, which sends pure states to mixed ones.
"""
import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from fidsym.mapzoo import PRESERVING_KINDS, make_map, zoo_specs
from fidsym.sampling import haar_unitary
from fidsym.wigner import (
    ANTIUNITARY,
    STATUS_CERTIFIED,
    STATUS_FAILED_PHASE,
    STATUS_FAILED_PROJECTION_PROBE,
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


def null_set_break(d: int) -> DensityMapOracle:
    """The identity, except that e_1 e_1* goes to e_2 e_2*: a trial input is
    e_1 e_1* with probability 0, so no trial pair breaks fidelity, while the
    basis probes find two equal columns."""
    e11, e22 = np.zeros((2, d, d), dtype=complex)
    e11[0, 0] = e22[1, 1] = 1.0

    def act(m: np.ndarray) -> np.ndarray:
        out = m.copy()
        out[np.all(m == e11, axis=(-2, -1))] = e22
        return out

    return DensityMapOracle.from_stack(d, act)


def closure_row(d: int, p1: str, p2: str, verdict: Optional[str]) -> Row:
    """S_2 S_1 for Haar symmetries S_1, S_2 of parities p1, p2, seeded by d."""
    rng = np.random.default_rng(d)
    s1, s2 = (SymmetryOperator(parity=p, u=haar_unitary(rng, d)) for p in (p1, p2))
    u = s2.u @ (s1.u.conj() if p2 == ANTIUNITARY else s1.u)
    return Row(lambda: DensityMapOracle.from_stack(
        d, lambda m: apply_symmetry_stack(s2, apply_symmetry_stack(s1, m))),
        verdict, STATUS_CERTIFIED, d + 2 + VERIFICATION_TRIALS,
        UNITARY if p1 == p2 else ANTIUNITARY, u)


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def seeded_o3(seed: int) -> np.ndarray:
    """A Haar-random R in O(3), of either determinant."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


def bloch_map(r: np.ndarray) -> DensityMapOracle:
    """(t/2)(I + b.sigma) -> (t/2)(I + (r b).sigma) at d = 2, with t b_k =
    tr(sigma_k A) read off each input."""
    def act(m: np.ndarray) -> np.ndarray:
        t = np.trace(m, axis1=-2, axis2=-1).real
        b = np.einsum("kij,nji->nk", PAULI, m).real
        return 0.5 * (t[:, None, None] * np.eye(2) + np.einsum("nk,kij->nij", b @ r.T, PAULI))

    return DensityMapOracle.from_stack(2, act)


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
    **{f"closure-{p2}-{p1}-d{d}": closure_row(d, p1, p2, PRESERVING if d < 64 else None)
       for d in (2, 8, 64) for p1 in PARITIES for p2 in PARITIES},
    **{f"bloch-{seed}": bloch_row(seeded_o3(seed)) for seed in range(6)},
    "bloch-shrink": Row(functools.partial(bloch_map, 0.9 * seeded_o3(0)), WITNESS,
                        STATUS_FAILED_PROJECTION_PROBE, 1),
}
