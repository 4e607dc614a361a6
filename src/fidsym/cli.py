"""Command-line surface: fidelity computation, reconstruction, map
classification, and the theorem harness, with JSON in and JSON out.

Matrix files: {"dim": d, "re": [[...]], "im": [[...]]} (row-major, entry
(i,j) = re[i][j] + i*im[i][j]). Map specs: {"kind": ..., "dim": ...,
"params": {...}} (the params of each kind: mapzoo.KIND_PARAMS); any other
key is an input error, and so are a dim outside 1..MAX_DIM, a --trials
outside 1..MAX_TRIALS, a --digits above MAX_DIGITS and JSON nested too
deeply to parse. Reports record the tool version, seed, and the whole
tolerance table (fidsym.tolerances), so a rerun reproduces them byte for
byte. Reports are strict JSON: an infinite residual_max or worst_violation
is written as null, and write_report refuses any other non-finite number.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Any, NoReturn

import numpy as np

from . import __version__, mapzoo, tolerances, wigner
from .fidelity import fidelity as fidelity_value, partial_fidelity
from .matcore import DensityOperator, MatcoreError, validate_density
from .mapzoo import AssertionFailure, BadSpec, ClassificationReport, MapSpec, json_grid, json_number
from .wigner import ReconstructionReport

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_REJECTED = 2

# The largest dim read from outside: the numerics and the tolerance table are
# sized for d <= 64, and a larger dim could ask for gigabytes per matrix.
MAX_DIM = 64
# The most trials read from outside: reconstruct's verification draws a
# trace and a rank, 16 bytes, for every trial up front, so a larger count
# could ask for gigabytes before any work, and would keep classify and
# verify on a preserving map busy for hours.
MAX_TRIALS = 10**6
# The most decimals fidelity prints: every double is an integer multiple of
# 2**-1074, so every decimal past the 1074th is zero, and a larger --digits
# would only ask for a line of zeros as long as memory allows.
MAX_DIGITS = 1074


class InputError(ValueError):
    """Malformed file or command-line input."""


class Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit EXIT_INPUT_ERROR, not
    argparse's 2, which this tool keeps for a rejected map; its subparsers
    are of this class too."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def non_negative_int(text: str) -> int:
    """``text`` as an int >= 0, for --seed and --digits; argparse names the
    option in its message."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def read_json(path: str, keys: tuple[str, ...]) -> dict[str, Any]:
    """The JSON object in ``path``; InputError if the file cannot be read or
    parsed, nesting too deep for the parser included, or does not hold an
    object whose keys are among ``keys``."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    if not isinstance(data, dict) or not set(data) <= set(keys):
        raise InputError(f"{path}: expected a JSON object with keys among {keys}")
    return data


def checked_dim(dim: int) -> int:
    """``dim`` if it is in 1..MAX_DIM, else BadSpec."""
    if not 1 <= dim <= MAX_DIM:
        raise BadSpec(f"dim must be in 1..{MAX_DIM}")
    return dim


def checked_trials(trials: int) -> int:
    """``trials`` if it is in 1..MAX_TRIALS, else BadSpec."""
    if not 1 <= trials <= MAX_TRIALS:
        raise BadSpec(f"trials must be in 1..{MAX_TRIALS}")
    return trials


def load_matrix(path: str) -> np.ndarray:
    data = read_json(path, ("dim", "re", "im"))
    try:
        return json_grid(data, checked_dim(json_number(data, "dim", integer=True)), "re", "im")
    except (KeyError, BadSpec) as exc:
        raise InputError(f"{path}: {exc}") from exc


def matrix_to_dict(m: np.ndarray) -> dict[str, Any]:
    return {
        "dim": m.shape[0],
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def load_density(path: str) -> DensityOperator:
    try:
        return validate_density(load_matrix(path))
    except MatcoreError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_map_spec(path: str) -> MapSpec:
    data = read_json(path, ("kind", "dim", "params"))
    try:
        return MapSpec(
            kind=str(data["kind"]),
            dim=checked_dim(json_number(data, "dim", integer=True)),
            params=data.get("params", {}),
        )
    except (KeyError, BadSpec) as exc:
        raise InputError(f"{path}: bad map spec: {exc}") from exc


def json_float(x: float) -> float | None:
    """``x``, or None (JSON null) if it is not finite: JSON has no Infinity."""
    return x if math.isfinite(x) else None


def reconstruction_to_dict(report: ReconstructionReport) -> dict[str, Any]:
    out: dict[str, Any] = {
        "status": report.status,
        "residual_max": json_float(report.residual_max),
        "probes_used": report.probes_used,
        "verification_trials": report.verification_trials,
        "parity_margin": json_float(report.parity_margin),
    }
    if report.symmetry is not None:
        out["parity"] = report.symmetry.parity
        out["unitary"] = matrix_to_dict(report.symmetry.u)
    return out


def classification_to_dict(report: ClassificationReport) -> dict[str, Any]:
    out: dict[str, Any] = {
        "preserving": report.preserving,
        "worst_violation": json_float(report.worst_violation),
        "trials": report.trials,
        "seed": report.seed,
        "reconstruction": reconstruction_to_dict(report.reconstruction),
    }
    if report.witness_pair is not None:
        a, b = report.witness_pair
        out["witness_pair"] = {"a": matrix_to_dict(a.matrix), "b": matrix_to_dict(b.matrix)}
    return out


def write_report(path: str, payload: dict[str, Any]) -> None:
    """Write JSON atomically (temp file then rename) so a crash never leaves
    a half-written report, with the mode open(path, "w") would give it: the
    temp file is created with mode 0o666 and the kernel applies the umask.
    InputError if it cannot be written."""
    payload = {"tool_version": __version__, **payload, "tolerances": tolerances.table()}
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def cmd_fidelity(args: argparse.Namespace) -> int:
    if args.digits > MAX_DIGITS:
        raise InputError(f"digits must be in 0..{MAX_DIGITS}")
    a = load_density(args.a)
    b = load_density(args.b)
    if args.m is not None:
        value = partial_fidelity(a, b, args.m)
    else:
        value = fidelity_value(a, b)
    print(f"{value:.{args.digits}f}")
    return EXIT_OK


def cmd_reconstruct(args: argparse.Namespace) -> int:
    trials = checked_trials(args.trials)
    spec = load_map_spec(args.map)
    oracle = mapzoo.make_map(spec, seed=args.seed)
    report = wigner.reconstruct(oracle, verification_trials=trials, seed=args.seed)
    write_report(args.out, {"seed": args.seed, "map": {"kind": spec.kind, "dim": spec.dim},
                            "report": reconstruction_to_dict(report)})
    return EXIT_OK if report.certified else EXIT_REJECTED


def cmd_classify(args: argparse.Namespace) -> int:
    trials = checked_trials(args.trials)
    spec = load_map_spec(args.map)
    oracle = mapzoo.make_map(spec, seed=args.seed)
    report = mapzoo.classify_map(oracle, trials=trials, seed=args.seed)
    write_report(args.out, {"seed": args.seed, "map": {"kind": spec.kind, "dim": spec.dim},
                            "report": classification_to_dict(report)})
    return EXIT_OK if report.preserving else EXIT_REJECTED


def cmd_verify(args: argparse.Namespace) -> int:
    trials = checked_trials(args.trials)
    try:
        summary = mapzoo.verify_theorem(checked_dim(args.dim), trials=trials, seed=args.seed)
        code = EXIT_OK
    except AssertionFailure as exc:
        summary = {"dim": args.dim, "trials": args.trials, "seed": args.seed,
                   "failure": str(exc)}
        code = EXIT_REJECTED
    if args.out:
        write_report(args.out, {"seed": args.seed, "summary": summary})
    else:
        print(json.dumps(summary, indent=2, sort_keys=True))
    return code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use, not at import."""
    parser = Parser(prog="fidsym")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fidelity", help="fidelity (or partial fidelity) of two density operators")
    p.add_argument("--a", required=True, help="matrix JSON file")
    p.add_argument("--b", required=True, help="matrix JSON file")
    p.add_argument("--m", type=int, default=None, help="partial fidelity index")
    p.add_argument("--digits", type=non_negative_int, default=12)
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("reconstruct", help="reconstruct the symmetry behind a map spec")
    p.add_argument("--map", required=True, help="map spec JSON file")
    p.add_argument("--trials", type=int, default=64, help="verification trials")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", required=True, help="report JSON output path")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("classify", help="test a map spec for fidelity preservation")
    p.add_argument("--map", required=True, help="map spec JSON file")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", required=True, help="report JSON output path")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run the preserving/non-preserving dichotomy over the map zoo")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", default=None, help="summary JSON output path (default: stdout)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # InputError, BadSpec, BadM and MatcoreError are all ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
