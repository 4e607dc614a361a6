"""Spans and counters recorded from outside the program.

The tracer replaces public functions of each fidsym layer (and the numpy
eigen-solvers under them) with wrappers that record a span or bump a counter,
then puts the originals back. Nothing under ``src/`` knows it is traced.

A name bound with ``from .matcore import eig_hermitian`` is a second
reference to the same function object, so patching only the defining module
would let those calls through untraced. :meth:`Tracer.install` therefore
replaces every reference to a target held by ``fidsym``, any ``fidsym.*``
module, or the target's own module.
"""
from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

SPAN = "span"
COUNT = "count"


def _d3(args: tuple, kwargs: dict, result: Any) -> float:
    """Sum of d^3 over the matrices handed to an eigen-solver (computed from
    the shape, not measured)."""
    shape = args[0].shape
    n = 1
    for s in shape[:-2]:
        n *= int(s)
    return float(n * int(shape[-1]) ** 3)


def _probes(args: tuple, kwargs: dict, result: Any) -> float:
    return float(result.probes_used)


def _report_bytes(args: tuple, kwargs: dict, result: Any) -> float:
    return float(os.path.getsize(args[0]))


@dataclass(frozen=True)
class Target:
    """One traced function: ``layer.function`` metric prefix, where it is
    defined, whether it records a span or only a call count, and an optional
    extra quantity summed over its calls."""

    metric: str
    module: str
    attr: str
    kind: str = SPAN
    # (metric name, unit, fn(args, kwargs, result) -> amount)
    extra: Optional[tuple[str, str, Callable[[tuple, dict, Any], float]]] = None


TARGETS = (
    Target("matcore.hermitize", "fidsym.matcore", "hermitize", COUNT),
    Target("matcore.eig_hermitian", "fidsym.matcore", "eig_hermitian"),
    Target("matcore.validate_density", "fidsym.matcore", "validate_density"),
    Target("matcore.sqrtm_psd", "fidsym.matcore", "sqrtm_psd"),
    Target("fidelity.fidelity", "fidsym.fidelity", "fidelity"),
    Target("kernel.eigh", "numpy.linalg", "eigh", extra=("kernel.eigh.d3_sum", "d3", _d3)),
    Target("kernel.eigvalsh", "numpy.linalg", "eigvalsh"),
    Target("charact.is_rank_one", "fidsym.charact", "is_rank_one"),
    Target("charact.is_rank_one_projection", "fidsym.charact", "is_rank_one_projection"),
    Target("charact.numerical_rank", "fidsym.charact", "numerical_rank", COUNT),
    Target("charact.order_totality_probe", "fidsym.charact", "order_totality_probe"),
    Target("charact.rank_one_certificate", "fidsym.charact", "rank_one_certificate"),
    Target("sampling.random_density", "fidsym.sampling", "random_density"),
    Target("sampling.random_pure_state", "fidsym.sampling", "random_pure_state"),
    Target("sampling.orthogonal_pure_pair", "fidsym.sampling", "orthogonal_pure_pair"),
    Target("sampling.haar_unitary", "fidsym.sampling", "haar_unitary", COUNT),
    Target("wigner.reconstruct", "fidsym.wigner", "reconstruct",
           extra=("wigner.probes", "count", _probes)),
    Target("wigner.apply_symmetry", "fidsym.wigner", "apply_symmetry"),
    Target("mapzoo.classify_map", "fidsym.mapzoo", "classify_map"),
    Target("mapzoo.make_map", "fidsym.mapzoo", "make_map"),
    Target("cli.main", "fidsym.cli", "main"),
    Target("cli.write_report", "fidsym.cli", "write_report",
           extra=("cli.report_bytes", "B", _report_bytes)),
)

# Oracles are DensityMapOracle instances whose ``evaluate`` is a plain
# callable field, so they are traced by wrapping the field at construction.
ORACLE = Target("oracle.evaluate", "fidsym.wigner", "DensityMapOracle")

RATIOS = (
    ("kernel.eigh.per_op", "1/op"),
    ("matcore.hermitize.per_op", "1/op"),
    ("wigner.eigh_per_probe", "1/probe"),
    ("trace.coverage", "frac"),
    ("trace.overhead_frac", "frac"),
)


def _per_layer() -> tuple[tuple[str, str], ...]:
    rows = []
    for t in TARGETS + (ORACLE,):
        rows.append((f"{t.metric}.calls", "count"))
        if t.kind == SPAN:
            rows.append((f"{t.metric}.self_s", "s"))
        if t.extra:
            rows.append(t.extra[:2])
    return tuple(rows) + RATIOS


# (name, unit) of every per-layer metric, in report order
PER_LAYER = _per_layer()


class Tracer:
    """Records spans ``(name, start, end, parent, op)`` and per-name totals.

    ``calls``, ``self_s`` and the extra quantities accumulate over the whole
    run; the span list itself is kept only while ``keep_spans`` is true, so
    a long traced run does not grow without bound.
    """

    def __init__(self) -> None:
        self.op: Optional[int] = None
        self.keep_spans = True
        self.spans: list[tuple[str, float, float, Optional[int], Optional[int]]] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.extra: dict[str, float] = {}
        self.top_s = 0.0  # time covered by spans that have no parent span
        self._stack: list[list] = []  # [name, start, child_time, span index]
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def count(self, name: str) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1

    def _wrap(self, name: str, fn: Callable, kind: str = SPAN, extra=None) -> Callable:
        tracer = self

        if kind == COUNT:
            def counted(*args, **kwargs):
                tracer.count(name)
                return fn(*args, **kwargs)

            counted._traced = fn
            return counted

        def spanned(*args, **kwargs):
            tracer.count(name)
            stack = tracer._stack
            frame = [name, time.perf_counter(), 0.0, None]
            if tracer.keep_spans:
                frame[3] = len(tracer.spans)
                tracer.spans.append(None)  # placeholder keeps parent indices stable
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[1]
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                    parent = stack[-1][3]
                else:
                    tracer.top_s += dur
                    parent = None
                if frame[3] is not None:
                    tracer.spans[frame[3]] = (name, frame[1], end, parent, tracer.op)
            if extra is not None:
                key, _, amount = extra
                tracer.extra[key] = tracer.extra.get(key, 0.0) + amount(args, kwargs, result)
            return result

        spanned._traced = fn
        return spanned

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Replace every reference to each target with its wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = fidsym_modules()
        for t in TARGETS:
            home = sys.modules[t.module]
            original = getattr(home, t.attr)
            wrapper = self._wrap(t.metric, original, t.kind, t.extra)
            for mod in [home] + [m for m in modules if m is not home]:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

        oracle_cls = getattr(sys.modules[ORACLE.module], ORACLE.attr)
        init = oracle_cls.__init__
        wrap = self._wrap

        def traced_init(obj, dim, evaluate):
            init(obj, dim, wrap(ORACLE.metric, evaluate))

        traced_init._traced = init

        self._patches.append((oracle_cls, "__init__", init))
        oracle_cls.__init__ = traced_init

    def uninstall(self) -> None:
        """Put every original back, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def fidsym_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "fidsym" or n.startswith("fidsym."))]


def layer_metrics(tracer: Tracer, reps: int, ops: int, plain_s: float, traced_s: float) -> dict:
    """Per-layer metrics from ``reps`` traced repetitions of one block of
    ``ops / reps`` ops. Counts and self times are per block."""
    out = {}
    for t in TARGETS + (ORACLE,):
        out[f"{t.metric}.calls"] = tracer.calls.get(t.metric, 0) / reps
        if t.kind == SPAN:
            out[f"{t.metric}.self_s"] = tracer.self_s.get(t.metric, 0.0) / reps
        if t.extra:
            out[t.extra[0]] = tracer.extra.get(t.extra[0], 0.0) / reps
    out["kernel.eigh.per_op"] = tracer.calls.get("kernel.eigh", 0) / ops
    out["matcore.hermitize.per_op"] = tracer.calls.get("matcore.hermitize", 0) / ops
    # eigh calls made under reconstruct, from the spans of the first block
    spans = tracer.spans
    in_reconstruct = 0
    for name, _, _, parent, _ in spans:
        if name != "kernel.eigh":
            continue
        while parent is not None and spans[parent][0] != "wigner.reconstruct":
            parent = spans[parent][3]
        in_reconstruct += parent is not None
    probes = out["wigner.probes"]
    out["wigner.eigh_per_probe"] = in_reconstruct / probes if probes else 0.0
    out["trace.coverage"] = tracer.top_s / traced_s
    out["trace.overhead_frac"] = traced_s / plain_s - 1.0
    return out
