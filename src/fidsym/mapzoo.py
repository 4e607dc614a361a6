"""A zoo of candidate maps on density operators and an empirical classifier.

Half the zoo (identity, unitary/antiunitary conjugation, transpose) preserves
fidelity and must reconstruct to a certified symmetry; the other half
(depolarizing, mixing, dephasing, spectral scrambling) must be rejected with
a concrete witness pair. verify_theorem runs the whole dichotomy.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from .fidelity import fidelity_stack
from .matcore import (
    DensityOperator,
    eig_hermitian,
    from_psd_stack,
    pure_state,
    validate_density,
)
from .sampling import draw_density, ginibre, haar_stack, haar_unitary, random_density
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

# The params each kind reads; make_map rejects any other key, such as a typo "P".
KIND_PARAMS = {
    "identity": (),
    "unitary": ("re", "im", "seed"),
    "antiunitary": ("re", "im", "seed"),
    "transpose": (),
    "depolarizing": ("p",),
    "mix": ("p", "sigma_re", "sigma_im", "seed"),
    "dephase": (),
    "spectral_scramble": (),
}
ALL_KINDS = tuple(KIND_PARAMS)
PRESERVING_KINDS = ("identity", "unitary", "antiunitary", "transpose")


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


def json_number(data: Mapping[str, Any], key: str, default: Any = None,
                integer: bool = False) -> Any:
    """data[key] (``default`` if absent, KeyError if there is none) as a float,
    or as an int with ``integer``; BadSpec for null, a bool, a string or a list,
    and with ``integer`` for a number that is not integral."""
    value = data[key] if default is None else data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise BadSpec(f"{key} must be a number, got {value!r}")
    if integer and not (isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise BadSpec(f"{key} must be an integer, got {value!r}")
    return int(value) if integer else float(value)


def json_grid(data: Mapping[str, Any], dim: int, re_key: str, im_key: str) -> np.ndarray:
    """data[re_key] + i data[im_key] (default 0), the one parser of re/im grids;
    BadSpec unless both are dim x dim grids of finite numbers."""
    try:
        re = np.asarray(data[re_key])
        im = np.asarray(data[im_key]) if im_key in data else np.zeros_like(re, dtype=float)
    except (KeyError, ValueError) as exc:  # no re grid, or rows of unequal length
        raise BadSpec(f"cannot read {re_key}/{im_key} grids: {exc!r}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise BadSpec(f"{re_key}/{im_key} grids do not match dim {dim}")
    if not all(g.dtype.kind in "if" and np.isfinite(g).all() for g in (re, im)):
        raise BadSpec(f"{re_key}/{im_key} grids must hold finite numbers")
    return re + 1j * im


def make_map(spec: MapSpec, seed: int = 0) -> DensityMapOracle:
    """Build a deterministic oracle from a map specification; BadSpec for a
    bad dim, kind or param, or a params key the kind does not read."""
    d = json_number({"dim": spec.dim}, "dim", integer=True)
    if d < 1:
        raise BadSpec(f"dim must be positive, got {d}")
    kind, params = spec.kind, spec.params
    if kind not in KIND_PARAMS:
        raise BadSpec(f"unknown map kind {kind!r}")
    if not isinstance(params, dict) or not set(params) <= set(KIND_PARAMS[kind]):
        raise BadSpec(f"{kind} params must be an object with keys among {KIND_PARAMS[kind]}")

    if kind == "identity":
        return DensityMapOracle(dim=d, evaluate=lambda a: a)
    if kind in (UNITARY, ANTIUNITARY):
        if "re" in params or "im" in params:
            u = json_grid(params, d, "re", "im")
        else:
            rng = np.random.default_rng(json_number(params, "seed", seed, integer=True))
            u = haar_unitary(rng, d)
        if np.linalg.norm(u.conj().T @ u - np.eye(d)) > UNITARY_TOL:
            raise BadSpec("matrix is not unitary")
        return symmetry_oracle(SymmetryOperator(parity=kind, u=u))
    if kind == "transpose":
        return DensityMapOracle(
            dim=d,
            evaluate=lambda a: DensityOperator.from_psd(a.matrix.T),
        )
    if kind == "depolarizing":
        p = json_number(params, "p", 0.0)
        if not 0.0 <= p <= 1.0:
            raise BadSpec(f"depolarizing p = {p} out of [0, 1]")
        eye = np.eye(d)

        def depolarize(a: DensityOperator) -> DensityOperator:
            return DensityOperator.from_psd(
                (1.0 - p) * a.matrix + p * a.trace * eye / d
            )

        return DensityMapOracle(dim=d, evaluate=depolarize)
    if kind == "mix":
        p = json_number(params, "p", 0.5)
        if not 0.0 <= p <= 1.0:
            raise BadSpec(f"mix p = {p} out of [0, 1]")
        if "sigma_re" in params or "sigma_im" in params:
            sigma = validate_density(json_grid(params, d, "sigma_re", "sigma_im"),
                                     require_unit_trace=True)
        else:
            rng = np.random.default_rng(json_number(params, "seed", seed, integer=True))
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

    # spectral_scramble, the last kind in KIND_PARAMS
    def scramble(a: DensityOperator) -> DensityOperator:
        w = np.clip(eig_hermitian(a.matrix).eigenvalues, 0.0, None)
        return DensityOperator.from_psd(np.diag(w.astype(complex)))

    return DensityMapOracle(dim=d, evaluate=scramble)


def _trial_pairs(
    rng: np.random.Generator, dim: int, count: int
) -> list[tuple[DensityOperator, DensityOperator]]:
    """``count`` trial pairs: 40% random mixed pairs, 40% random pure pairs,
    20% orthogonal pure pairs; the orthogonal pairs are the sharpest
    discriminators (F = 0 must map to F = 0).

    The loop only draws, in the order of random_density, random_pure_state
    and orthogonal_pure_pair; the arithmetic then runs once per stack: one
    batched QR for the orthogonal pairs, one from_psd_stack for the mixed
    matrices and one for all pure projections. Each pure vector still goes
    through pure_state's phase rule, so every pair has the bits those
    functions give it. Lists that may be empty are stacked with np.reshape,
    which np.stack refuses."""
    kinds = []  # per trial: "mixed", "pure" or "orthogonal"
    mixed, vectors, square = [], [], []
    for _ in range(count):
        r = rng.uniform()
        if r < 0.4:
            kinds.append("mixed")
            for _ in range(2):
                mixed.append(draw_density(rng, dim, trace=float(rng.uniform(0.0, 2.0)) or 1.0))
        elif r < 0.8:
            kinds.append("pure")
            vectors += [ginibre(rng, dim), ginibre(rng, dim)]
        else:
            kinds.append("orthogonal")
            square.append(ginibre(rng, (dim, dim)))
    split = len(vectors)
    for u in haar_stack(np.reshape(square, (-1, dim, dim))):
        vectors += [u[:, 0], u[:, 1]]
    a = np.reshape([pure_state(v).amplitudes for v in vectors], (-1, dim))
    projections = from_psd_stack(a[:, :, None] * a[:, None, :].conj())
    drawn = {
        "mixed": iter(from_psd_stack(np.reshape(mixed, (-1, dim, dim)))),
        "pure": iter(projections[:split]),
        "orthogonal": iter(projections[split:]),
    }
    return [(next(drawn[kind]), next(drawn[kind])) for kind in kinds]


def _stacked_fidelity(pairs: list[tuple[DensityOperator, DensityOperator]], dim: int) -> np.ndarray:
    """F of each pair; inf for a pair holding a matrix that is not a finite (dim, dim) one."""
    nan = np.full((dim, dim), np.nan)
    m = np.array([[x.matrix if x.matrix.shape == (dim, dim) else nan for x in p] for p in pairs])
    ok = np.isfinite(m).all(axis=(1, 2, 3))
    f = np.full(len(pairs), np.inf)
    f[ok] = fidelity_stack(m[ok, 0], m[ok, 1])
    return f


def classify_map(oracle: DensityMapOracle, trials: int = 200, seed: int = 0) -> ClassificationReport:
    """Test fidelity preservation on random pairs; if preserving, run the
    reconstructor and attach its report.

    The worst violation |F(phi A, phi B) - F(A, B)| over the trials is
    reported, and its first pair is the witness. Trials are drawn and scored
    in stacks of at most TRIAL_STACK_ENTRIES; the oracle sees one matrix at
    a time, in draw order.

    An image that is not a finite (d, d) matrix (NaN entries, or a map into
    another dimension such as an isometric embedding) scores an infinite
    violation, so its first pair is the witness of a rejection.
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
        violation = np.abs(_stacked_fidelity(images, d) - _stacked_fidelity(pairs, d))
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
    """Every kind with its default params, except p = 0.5 where the kind reads p."""
    return [MapSpec(kind, dim, {"p": 0.5} if "p" in KIND_PARAMS[kind] else {})
            for kind in ALL_KINDS]


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
