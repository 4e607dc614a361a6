"""A zoo of candidate maps on density operators and an empirical classifier.

Half the zoo (identity, unitary/antiunitary conjugation, transpose) preserves
fidelity and must reconstruct to a certified symmetry; the other half
(depolarizing, mixing, dephasing, spectral scrambling) must be rejected with
a concrete witness pair. verify_theorem runs the whole dichotomy.

classify_map probes first, and calls a map preserving exactly when the
probes' candidate S certifies on the trial inputs: a bijective
fidelity-preserving map is a unitary or antiunitary symmetry, so a map that
the probes cannot pin to one is none. As F(S A, S B) = F(A, B) exactly, one
scan against S verifies it and bounds each pair's violation by how far its
images lie from S's (violation_bound, from which the rule that certifies is
derived), with no eigendecomposition; only a pair that the bound leaves open
(every pair of a map with no candidate) is scored by fidelity_stack. An
image turned away has an infinite residual, whose bound settles its pair.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional

import numpy as np

from .fidelity import fidelity_stack
from .matcore import (
    DensityOperator,
    MatcoreError,
    checked_int,
    eigh_stack,
    validate_density,
)
from .sampling import haar_unitary, random_density
from .wigner import (
    ANTIUNITARY,
    UNITARY,
    VERIFICATION_TRIALS,
    DensityMapOracle,
    ReconstructionReport,
    SymmetryOperator,
    _probe_stages,
    block_size,
    scan,
    symmetry_oracle,
    violation_bound,
)
from .tolerances import CLASSIFY_TOL, TRACE_TOL, UNITARY_TOL

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

CLASSIFY_TRIALS = 200  # by default, classify_map's trials and verify_theorem's per kind


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
    """The verdict of classify_map, ``preserving``, is derived: a certified
    ``reconstruction``, the report of the probe stage that rejected the map,
    or of its candidate verified on the scan's 2 ``trials`` inputs. A
    rejection with a ``witness_pair`` was made by it, one without by the
    reconstruction, whose ``status`` names the failing stage. ``trials``
    counts the trials scored: those asked for, at least VERIFICATION_TRIALS
    / 2 with a candidate, up to the end of the first block with a witness.
    ``worst_violation`` is the largest violation over them: a pair's
    violation_bound, an upper bound on |dF|, where at most CLASSIFY_TOL or
    infinite (an image turned away), else its measured |F(phi A, phi B) -
    F(A, B)|; with a certified reconstruction, a bound within CLASSIFY_TOL."""

    worst_violation: float
    witness_pair: Optional[tuple[DensityOperator, DensityOperator]]
    trials: int
    seed: int
    reconstruction: ReconstructionReport

    @property
    def preserving(self) -> bool:
        return self.reconstruction.certified


def json_number(data: Mapping[str, Any], key: str, default: Any = None,
                integer: bool = False) -> Any:
    """data[key] (``default`` if absent, KeyError if there is none) as a float,
    or as an int with ``integer``; BadSpec for null, a bool, a string or a list,
    an integer beyond the float range, and with ``integer`` a non-integral."""
    value = data[key] if default is None else data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise BadSpec(f"{key} must be a number, got {value!r}")
    if integer and not (isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise BadSpec(f"{key} must be an integer, got {value!r}")
    try:
        return int(value) if integer else float(value)
    except OverflowError:
        raise BadSpec(f"{key} is beyond the float range") from None


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
    bad dim, kind or param, or a params key the kind does not read, such as
    a seed beside the grid it would have drawn. Depolarizing is the mix
    toward I/d, and a unitary or antiunitary grid, within UNITARY_TOL of
    unitary, is read as its polar factor, the unitary nearest it."""
    d = json_number({"dim": spec.dim}, "dim", integer=True)
    if d < 1:
        raise BadSpec(f"dim must be positive, got {d}")
    kind, params = spec.kind, spec.params
    if kind not in KIND_PARAMS:
        raise BadSpec(f"unknown map kind {kind!r}")
    if not isinstance(params, dict) or not set(params) <= set(KIND_PARAMS[kind]):
        raise BadSpec(f"{kind} params must be an object with keys among {KIND_PARAMS[kind]}")
    grid = [key for key in params if key in ("re", "im", "sigma_re", "sigma_im")]
    if grid and "seed" in params:
        raise BadSpec(f"{kind} params give {grid[0]} and seed: a grid leaves the seed unread")

    if kind == "identity":
        return DensityMapOracle(d, lambda m: m)
    if kind in (UNITARY, ANTIUNITARY):
        u = json_grid(params, d, "re", "im") if grid else haar_unitary(_rng(params, seed), d)
        if (np.abs(u.view(float)).max() > 2.0
                or np.linalg.norm(u.conj().T @ u - np.eye(d)) > UNITARY_TOL):
            raise BadSpec("matrix is not unitary")
        if grid:
            w, _, vh = np.linalg.svd(u)
            u = w @ vh
        return symmetry_oracle(SymmetryOperator(parity=kind, u=u))
    if kind == "transpose":
        return DensityMapOracle(d, lambda m: m.swapaxes(-1, -2).copy())
    if kind in ("depolarizing", "mix"):
        p = json_number(params, "p", 0.5 if kind == "mix" else 0.0)
        if not 0.0 <= p <= 1.0:
            raise BadSpec(f"{kind} p = {p} out of [0, 1]")
        # depolarizing mixes toward I/d, scaled after the product to keep its bits
        sigma, scale = np.eye(d), d
        if grid:
            try:
                given = validate_density(json_grid(params, d, "sigma_re", "sigma_im"))
            except MatcoreError as exc:  # not Hermitian, or not PSD
                raise BadSpec(str(exc)) from exc
            if abs(given.trace - 1.0) > TRACE_TOL:
                raise BadSpec(f"trace {given.trace} is not 1 within {TRACE_TOL}")
            sigma, scale = given.matrix, 1
        elif kind == "mix":
            sigma, scale = random_density(_rng(params, seed), d, trace=1.0).matrix, 1
        return DensityMapOracle(d, lambda m: (1.0 - p) * m + p * _traces(m) * sigma / scale)
    if kind == "dephase":
        return DensityMapOracle(d, lambda m: np.where(np.eye(d, dtype=bool), m, 0.0))

    # spectral_scramble, the last kind in KIND_PARAMS
    def scramble(m: np.ndarray) -> np.ndarray:
        out = np.zeros(m.shape, dtype=complex)
        out[(slice(None), *np.diag_indices(d))] = np.clip(eigh_stack(m)[0], 0.0, None)
        return out

    return DensityMapOracle(d, scramble)


def _rng(params: Mapping[str, Any], seed: int) -> np.random.Generator:
    """The generator of params["seed"], or of ``seed`` if absent; BadSpec
    for a negative one."""
    value = json_number(params, "seed", seed, integer=True)
    if value < 0:
        raise BadSpec(f"seed must be >= 0, got {value}")
    return np.random.default_rng(value)


def _traces(m: np.ndarray) -> np.ndarray:
    """tr M of every matrix of an (n, d, d) stack, real, shaped (n, 1, 1) to
    scale the stack; each has the bits of DensityOperator.trace."""
    return np.trace(m, axis1=-2, axis2=-1).real[:, None, None]


def classify_map(oracle: DensityMapOracle, trials: int = CLASSIFY_TRIALS, seed: int = 0) -> ClassificationReport:
    """Probe the map for its candidate symmetry S, then scan random pairs
    against it: the map is preserving if every scanned input certifies S,
    as the report's reconstruction states, by a rule that keeps each pair's
    violation within ``CLASSIFY_TOL`` (wigner.residual_bound).

    After reconstruct's probe stages, ``wigner.scan`` draws the trial pairs
    from ``default_rng(seed)`` in blocks of ``wigner.block_size(d)`` pairs,
    each drawn whole and the last cut to the trials left, so the pairs of
    fewer trials are a prefix of those of more. It reads its groups of
    blocks in draw order (A_1, B_1, A_2, ...) against the probes' S, if
    any, and its report alone verifies S: the reconstruction is that report
    at the 2 ``trials`` inputs scored, ``reconstruct(oracle, 2 trials,
    seed)``. As a map that is S on pure states alone passes a few inputs, a
    map with a candidate is scanned on at least VERIFICATION_TRIALS / 2
    trials, every one scored, so its report below that many is the report at
    that many.
    A pair's violation is violation_bound of its residuals, valid for any
    S, unless that exceeds ``CLASSIFY_TOL`` (always, with no candidate):
    then it is the measured |F(phi A, phi B) - F(A, B)|, from one
    ``fidelity_stack`` call per group, unless ``image_stack`` turned an
    image of the pair away: its infinite residual is an infinite bound. The
    witness is the first pair with the largest violation; a settled pair's
    exact violation is at most CLASSIFY_TOL, so it is the witness of
    scoring every pair by fidelity.

    One pair over ``CLASSIFY_TOL`` proves that the map does not preserve
    fidelity, so a rejection stops at the end of the first block that holds
    a witness, and ``trials`` counts the trials scored. As violation_bound
    grows with each residual and trace, and traces are below
    ``wigner.MAX_TRACE``, a witness breaks the rule: its report never reads
    past its block. Each score is a function of its pair alone, so the report
    is that of a block-by-block scan (the oracle may see the rest of the last
    group) and, by the prefix property, that of ``classify_map`` asked for
    exactly that many trials, reconstruction included. Trials that are no
    integer, or below 1, raise BadSpec before any oracle read.
    """
    if checked_int("trials", trials, BadSpec) < 1:
        raise BadSpec(f"trials must be >= 1, got {trials}")
    if oracle.dim < 2:
        raise BadSpec("classification needs dim >= 2 (no orthogonal pure pair exists at dim 1)")
    d = oracle.dim
    size = block_size(d)
    probed = _probe_stages(oracle)
    count = trials if probed.symmetry is None else max(trials, VERIFICATION_TRIALS // 2)
    worst, scored = 0.0, 0
    witness: Optional[tuple[DensityOperator, DensityOperator]] = None
    for inputs, images, ok, res, report in scan(oracle, probed, 2 * count, seed):
        pairs = inputs.reshape(-1, 2, d, d)
        ok = ok.reshape(-1, 2).all(axis=1)
        violation = violation_bound(d, res.reshape(-1, 2), _traces(inputs).reshape(-1, 2))
        exact = ok & (violation > CLASSIFY_TOL)
        if exact.any():
            both = np.concatenate([images.reshape(pairs.shape)[exact], pairs[exact]])
            f = fidelity_stack(both[:, 0], both[:, 1])
            violation[exact] = np.abs(f[:len(f) // 2] - f[len(f) // 2:])
        n = len(pairs)
        # the scan stops at the end of the first block that holds a witness
        over = np.flatnonzero(violation > CLASSIFY_TOL)
        if len(over):
            n = min(n, (int(over[0]) // size + 1) * size)
            k = int(np.argmax(violation[:n]))
            witness = (DensityOperator(matrix=pairs[k, 0]), DensityOperator(matrix=pairs[k, 1]))
        worst = max(worst, float(violation[:n].max(initial=0.0)))
        scored += n
        if witness is not None:
            break
    if report.symmetry is not None:
        report = replace(report, verification_trials=2 * scored)
    return ClassificationReport(worst, witness, scored, seed, report)


def zoo_specs(dim: int) -> list[MapSpec]:
    """Every kind with its default params, except p = 0.5 where the kind reads p."""
    return [MapSpec(kind, dim, {"p": 0.5} if "p" in KIND_PARAMS[kind] else {})
            for kind in ALL_KINDS]


def verify_theorem(dim: int, trials: int = CLASSIFY_TRIALS, seed: int = 0) -> dict[str, Any]:
    """Run the dichotomy over the whole zoo: every preserving kind must
    certify to a symmetry, every non-preserving kind must be rejected with a
    witness pair."""
    results = []
    for spec in zoo_specs(dim):
        oracle = make_map(spec, seed=seed)
        report = classify_map(oracle, trials=trials, seed=seed)
        entry: dict[str, Any] = {
            "kind": spec.kind,
            "preserving": report.preserving,
            "worst_violation": report.worst_violation,
        }
        if report.preserving != (spec.kind in PRESERVING_KINDS):
            outcome = "be rejected but was not" if report.preserving else "certify but did not"
            raise AssertionFailure(f"kind {spec.kind!r} (dim {dim}, seed {seed}) should {outcome}")
        if not report.preserving and report.witness_pair is None:
            raise AssertionFailure(f"kind {spec.kind!r} (dim {dim}, seed {seed}) was rejected "
                                   "with no witness pair")
        if report.preserving:
            entry["parity"] = report.reconstruction.symmetry.parity
            entry["residual_max"] = report.reconstruction.residual_max
        results.append(entry)
    return {"dim": dim, "trials": trials, "seed": seed, "results": results}
