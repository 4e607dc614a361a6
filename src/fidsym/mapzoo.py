"""A zoo of candidate maps on density operators and an empirical classifier.

Half the zoo (identity, unitary/antiunitary conjugation, transpose) preserves
fidelity and must reconstruct to a certified symmetry; the other half
(depolarizing, mixing, dephasing, spectral scrambling) must be rejected with
a concrete witness pair. verify_theorem runs the whole dichotomy.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .fidelity import fidelity_stack
from .matcore import DensityOperator, eig_hermitian, validate_density, validate_stack
from .sampling import (
    draw_density,
    haar_unitary,
    orthogonal_pure_pair,
    random_density,
    random_pure_state,
)
from .wigner import (
    ANTIUNITARY,
    UNITARY,
    DensityMapOracle,
    ReconstructionReport,
    SymmetryOperator,
    reconstruct,
    symmetry_oracle,
)
from .tolerances import CLASSIFY_TOL, UNITARY_TOL

# classify_map scores its trials in stacks of at most this many matrix
# entries per side (n * d^2): 16 pairs at d = 8, all 200 default trials at
# d = 2. Doubling it saves about 4% of a d <= 8 classification but costs
# another 1% of peak memory.
TRIAL_STACK_ENTRIES = 1024

PRESERVING_KINDS = ("identity", "unitary", "antiunitary", "transpose")
NONPRESERVING_KINDS = ("depolarizing", "mix", "dephase", "spectral_scramble")
ALL_KINDS = PRESERVING_KINDS + NONPRESERVING_KINDS


class BadSpec(ValueError):
    """Malformed or out-of-range map specification."""


class AssertionFailure(AssertionError):
    """The theorem harness found a kind on the wrong side of the dichotomy."""


@dataclass(frozen=True)
class MapSpec:
    kind: str
    dim: int
    params: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ClassificationReport:
    preserving: bool
    worst_violation: float
    witness_pair: Optional[tuple[DensityOperator, DensityOperator]]
    trials: int
    seed: int
    reconstruction: Optional[ReconstructionReport]


def _unitary_from_params(spec: MapSpec, seed: int) -> np.ndarray:
    params = spec.params
    if "re" in params:
        u = np.asarray(params["re"], dtype=float) + 1j * np.asarray(
            params.get("im", np.zeros((spec.dim, spec.dim))), dtype=float
        )
    else:
        rng = np.random.default_rng(int(params.get("seed", seed)))
        u = haar_unitary(rng, spec.dim)
    if u.shape != (spec.dim, spec.dim):
        raise BadSpec(f"unitary shape {u.shape} does not match dim {spec.dim}")
    if np.linalg.norm(u.conj().T @ u - np.eye(spec.dim)) > UNITARY_TOL:
        raise BadSpec("matrix is not unitary")
    return u


def make_map(spec: MapSpec, seed: int = 0) -> DensityMapOracle:
    """Build a deterministic oracle from a map specification."""
    d = spec.dim
    if d < 1:
        raise BadSpec(f"dim must be positive, got {d}")
    kind = spec.kind

    if kind == "identity":
        return DensityMapOracle(dim=d, evaluate=lambda a: a)
    if kind in (UNITARY, ANTIUNITARY):
        u = _unitary_from_params(spec, seed)
        return symmetry_oracle(SymmetryOperator(parity=kind, u=u))
    if kind == "transpose":
        return DensityMapOracle(
            dim=d,
            evaluate=lambda a: DensityOperator.from_psd(a.matrix.T),
        )
    if kind == "depolarizing":
        p = float(spec.params.get("p", 0.0))
        if not 0.0 <= p <= 1.0:
            raise BadSpec(f"depolarizing p = {p} out of [0, 1]")
        eye = np.eye(d)

        def depolarize(a: DensityOperator) -> DensityOperator:
            return DensityOperator.from_psd(
                (1.0 - p) * a.matrix + p * a.trace * eye / d
            )

        return DensityMapOracle(dim=d, evaluate=depolarize)
    if kind == "mix":
        p = float(spec.params.get("p", 0.5))
        if not 0.0 <= p <= 1.0:
            raise BadSpec(f"mix p = {p} out of [0, 1]")
        if "sigma_re" in spec.params:
            sigma = validate_density(
                np.asarray(spec.params["sigma_re"], dtype=float)
                + 1j * np.asarray(spec.params.get("sigma_im", np.zeros((d, d))), dtype=float),
                require_unit_trace=True,
            )
        else:
            rng = np.random.default_rng(int(spec.params.get("seed", seed)))
            sigma = random_density(rng, d, trace=1.0)

        def mix(a: DensityOperator) -> DensityOperator:
            return DensityOperator.from_psd(
                (1.0 - p) * a.matrix + p * a.trace * sigma.matrix
            )

        return DensityMapOracle(dim=d, evaluate=mix)
    if kind == "dephase":
        return DensityMapOracle(
            dim=d,
            evaluate=lambda a: DensityOperator.from_psd(np.diag(np.diag(a.matrix))),
        )
    if kind == "spectral_scramble":
        def scramble(a: DensityOperator) -> DensityOperator:
            w = np.clip(eig_hermitian(a.matrix).eigenvalues, 0.0, None)
            return DensityOperator.from_psd(np.diag(w.astype(complex)))

        return DensityMapOracle(dim=d, evaluate=scramble)
    raise BadSpec(f"unknown map kind {kind!r}")


def _trial_pairs(
    rng: np.random.Generator, dim: int, count: int
) -> list[tuple[DensityOperator, DensityOperator]]:
    """``count`` trial pairs: 40% random mixed pairs, 40% random pure pairs,
    20% orthogonal pure pairs; the orthogonal pairs are the sharpest
    discriminators (F = 0 must map to F = 0). The mixed pairs are drawn in
    order and validated together as one stack."""
    pairs: list = []  # None marks a mixed pair, filled in after validation
    mixed = []
    for _ in range(count):
        r = rng.uniform()
        if r < 0.4:
            for _ in range(2):
                mixed.append(draw_density(rng, dim, trace=float(rng.uniform(0.0, 2.0)) or 1.0))
            pairs.append(None)
        elif r < 0.8:
            pairs.append((
                random_pure_state(rng, dim).projection(),
                random_pure_state(rng, dim).projection(),
            ))
        else:
            p, q = orthogonal_pure_pair(rng, dim)
            pairs.append((p.projection(), q.projection()))
    if mixed:
        densities = iter(validate_stack(np.stack(mixed)))
        pairs = [(next(densities), next(densities)) if pair is None else pair for pair in pairs]
    return pairs


def _stacked_fidelity(pairs: list[tuple[DensityOperator, DensityOperator]]) -> np.ndarray:
    return fidelity_stack(np.stack([a.matrix for a, _ in pairs]),
                          np.stack([b.matrix for _, b in pairs]))


def classify_map(oracle: DensityMapOracle, trials: int = 200, seed: int = 0) -> ClassificationReport:
    """Test fidelity preservation on random pairs; if preserving, run the
    reconstructor and attach its report.

    The worst violation |F(phi A, phi B) - F(A, B)| over the trials is
    reported, and its first pair is the witness. Trials are drawn and scored
    in stacks of at most TRIAL_STACK_ENTRIES; the oracle sees one matrix at
    a time, in draw order.
    """
    if trials < 1:
        raise BadSpec(f"trials must be >= 1, got {trials}")
    if oracle.dim < 2:
        raise BadSpec("classification needs dim >= 2 (no orthogonal pure pair exists at dim 1)")
    rng = np.random.default_rng(seed)
    d = oracle.dim
    size = max(1, TRIAL_STACK_ENTRIES // (d * d))
    worst = 0.0
    witness: Optional[tuple[DensityOperator, DensityOperator]] = None
    for start in range(0, trials, size):
        pairs = _trial_pairs(rng, d, min(size, trials - start))
        images = [(oracle.evaluate(a), oracle.evaluate(b)) for a, b in pairs]
        violation = np.abs(_stacked_fidelity(images) - _stacked_fidelity(pairs))
        k = int(np.argmax(violation))
        if violation[k] > worst:
            worst = float(violation[k])
            witness = pairs[k]
    preserving = worst <= CLASSIFY_TOL
    report = reconstruct(oracle, seed=seed) if preserving else None
    return ClassificationReport(
        preserving=preserving,
        worst_violation=worst,
        witness_pair=None if preserving else witness,
        trials=trials,
        seed=seed,
        reconstruction=report,
    )


def zoo_specs(dim: int) -> list[MapSpec]:
    return [
        MapSpec(kind="identity", dim=dim),
        MapSpec(kind="unitary", dim=dim),
        MapSpec(kind="antiunitary", dim=dim),
        MapSpec(kind="transpose", dim=dim),
        MapSpec(kind="depolarizing", dim=dim, params={"p": 0.5}),
        MapSpec(kind="mix", dim=dim, params={"p": 0.5}),
        MapSpec(kind="dephase", dim=dim),
        MapSpec(kind="spectral_scramble", dim=dim),
    ]


def verify_theorem(dim: int, trials: int = 200, seed: int = 0) -> dict[str, Any]:
    """Run the dichotomy over the whole zoo: every preserving kind must
    certify to a symmetry, every non-preserving kind must be rejected with a
    witness pair."""
    if dim < 2:
        raise BadSpec("theorem check needs dim >= 2 (parity is undetectable at dim 1)")
    results = []
    for spec in zoo_specs(dim):
        oracle = make_map(spec, seed=seed)
        report = classify_map(oracle, trials=trials, seed=seed)
        entry: dict[str, Any] = {
            "kind": spec.kind,
            "preserving": report.preserving,
            "worst_violation": report.worst_violation,
        }
        if spec.kind in PRESERVING_KINDS:
            if not (report.preserving and report.reconstruction is not None
                    and report.reconstruction.certified):
                raise AssertionFailure(
                    f"kind {spec.kind!r} (dim {dim}, seed {seed}) should certify but did not"
                )
            entry["parity"] = report.reconstruction.symmetry.parity
            entry["residual_max"] = report.reconstruction.residual_max
        else:
            if report.preserving:
                raise AssertionFailure(
                    f"kind {spec.kind!r} (dim {dim}, seed {seed}) should be rejected but was not"
                )
        results.append(entry)
    return {"dim": dim, "trials": trials, "seed": seed, "results": results}
