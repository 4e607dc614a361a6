"""fidsym benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload zoo-cli --seed 1 --seconds 20 --trace 0

``--trace 0`` times ops with nothing patched and reports the end-to-end
metrics; ``--trace 1`` runs every op of one block untraced and then traced,
compares the two outputs, and reports the per-layer metrics. The last line
of standard output is the result as one JSON object. Ops are run one after
another from a single caller (a closed loop with one client).

The program is imported from ``src/`` next to this directory; without it the
run fails before printing a result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from tracer import PER_LAYER, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread, so that an op runs on one core like the reference pass and
# its time does not depend on what else holds the other cores. On a 2-core
# machine a second thread gave no gain at d = 32 or 64.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPS = 7  # set-up is timed in this many fresh interpreters
MIN_OPS = 100  # so that at least ten latency samples lie beyond p90

# The speed of a shared machine drifts by up to 1.7x over seconds to minutes
# (fixed work, CPU time equal to wall time, no steal), which no run length
# averages out. Every timing is therefore scaled by a reference pass of
# fixed numpy work timed next to it; see Reference. Raw wall times are kept
# in the result file.

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time import and input generation, print seconds")
    return p.parse_args(argv)


def setup(workload: str, seed: int, workdir: str):
    """Import the program and the benchmark, then generate the inputs."""
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy and fidsym

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    return workloads.WORKLOADS[workload](seed, workdir)


def probe_setup(args: argparse.Namespace) -> float:
    """Median set-up time over SETUP_REPS fresh interpreters, each scaled by
    reference passes timed in that interpreter."""
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


@dataclass(frozen=True)
class _Box:
    matrix: Any
    trace: float


class Reference:
    """Fixed numpy work, independent of fidsym, timed next to every op.

    Two shapes, because a slow phase of the machine slows call-overhead-bound
    code more than LAPACK-bound code:

    - ``mixed``: eigh at d = 32, eigh and matmul at d = 8, and d = 2 steps
      with Python bookkeeping (reconstruct-large, rank-one);
    - ``small``: the per-matrix path of fidsym's small-d code, re-done here:
      validate, hermitize, eigh, clip, square root, rebuild, frozen dataclass,
      at d = 2, 4, 8 (zoo-cli).

    Reported times are wall times at the speed where a pass takes
    NOMINAL_S[shape]. The two nominal values were set from the two passes
    timed alternately on one machine, so both describe the same speed, about
    the fastest that machine ran.
    """

    NOMINAL_S = {"mixed": 0.0050, "small": 0.0048}

    def __init__(self, shape: str) -> None:
        import numpy as np

        self.np = np
        self.nominal_s = self.NOMINAL_S[shape]
        self._pass = getattr(self, f"_{shape}")
        rng = np.random.default_rng(0)
        self.hermitian = {}  # for the mixed pass
        for d in (2, 8, 32):
            z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            self.hermitian[d] = z + z.conj().T
        self.psd = {}  # for the small pass
        for d in (2, 4, 8):
            z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            self.psd[d] = z @ z.conj().T

    def _mixed(self) -> None:
        np, m2, m8, m32 = self.np, self.hermitian[2], self.hermitian[8], self.hermitian[32]
        for _ in range(10):
            np.linalg.eigh(m32)
        for _ in range(50):
            np.linalg.eigh(m8)
            (m8 @ m8).trace()
        for _ in range(100):
            w, v = np.linalg.eigh(m2)
            w = np.clip(w, 0.0, None)
            rebuilt = (v * w) @ v.conj().T
            {"w": [float(x) for x in w], "finite": bool(np.isfinite(rebuilt).all())}

    def _small(self) -> None:
        np = self.np
        for _ in range(40):
            for d in (2, 4, 8):
                m = np.ascontiguousarray(self.psd[d], dtype=complex)
                np.all(np.isfinite(m.view(float)))
                h = (m + m.conj().T) / 2
                h.flags.writeable = False
                w, v = np.linalg.eigh(h)
                w, v = w[::-1], v[:, ::-1]
                w = np.sqrt(np.clip(w, 0.0, None))
                _Box(matrix=(v * w) @ v.conj().T, trace=float(np.sum(w)))

    def seconds(self) -> float:
        t0 = time.perf_counter()
        self._pass()
        return time.perf_counter() - t0

    def scale(self, reps: int = 5) -> float:
        """Nominal over the median of ``reps`` reference passes."""
        return self.nominal_s / statistics.median(self.seconds() for _ in range(reps))


def run_op(wl, op):
    """Time one op; returns (seconds, output or None when it raised)."""
    t0 = time.perf_counter()
    try:
        raw = wl.run(op)
    except Exception:  # a raising op is a failed op, not a failed run
        return time.perf_counter() - t0, None
    elapsed = time.perf_counter() - t0
    return elapsed, wl.settle(op, raw)


def passes(wl, op, out) -> bool:
    if out is None:
        return False
    try:
        return bool(wl.check(op, out))
    except Exception:  # a malformed output fails the gate
        return False


def latency_metrics(latencies: list[float], completed: int) -> dict:
    p90 = statistics.quantiles(latencies, n=10)[-1]
    return {
        "ops_per_s": completed / sum(latencies),
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_p90": 1e3 * p90,
    }, sum(t > p90 for t in latencies)


def timed_run(wl, seconds: float, ref: Reference) -> dict:
    """Closed loop over the op pool; each op's wall time is scaled by the
    mean of the reference passes timed just before and just after it."""
    walls, scaled, failed = [], [], 0
    before = ref.seconds()
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_OPS or time.perf_counter() < deadline:
        op = wl.ops[len(walls) % len(wl.ops)]
        elapsed, out = run_op(wl, op)
        failed += not passes(wl, op, out)
        after = ref.seconds()
        walls.append(elapsed)
        scaled.append(elapsed * ref.nominal_s / ((before + after) / 2))
        before = after
    metrics, beyond_p90 = latency_metrics(scaled, len(walls) - failed)
    wall_metrics, _ = latency_metrics(walls, len(walls) - failed)
    return {
        "attempted": len(walls),
        "failed": failed,
        "beyond_p90": beyond_p90,
        "metrics": metrics,
        "wall_metrics": wall_metrics,
    }


def traced_run(wl, seconds: float, spans_path: Path) -> dict:
    """Repeat the first block: each op untraced, then traced, outputs compared.

    Counts are per block, so they repeat exactly from run to run; spans are
    kept for the first repetition only.
    """
    tracer = Tracer()
    block = wl.ops[:wl.block]
    plain_s = traced_s = 0.0
    attempted = failed = mismatched = reps = 0
    deadline = time.perf_counter() + seconds
    while reps == 0 or time.perf_counter() < deadline:
        for k, op in enumerate(block):
            t_plain, plain = run_op(wl, op)
            tracer.op = reps * len(block) + k
            with tracer:
                t_traced, traced = run_op(wl, op)
            plain_s += t_plain
            traced_s += t_traced
            attempted += 1
            same = plain is not None and plain == traced
            mismatched += not same
            failed += not (same and passes(wl, op, traced))
        reps += 1
        tracer.keep_spans = False
    spans_path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "op"],
        "spans": tracer.spans,
    }))
    metrics = layer_metrics(tracer, reps=reps, ops=reps * len(block),
                            plain_s=plain_s, traced_s=traced_s)
    return {"attempted": attempted, "failed": failed, "mismatched": mismatched,
            "blocks": reps, "metrics": metrics}


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_facts(args: argparse.Namespace) -> dict:
    import hashlib

    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "fidsym" / "__init__.py").is_file():
        print(f"error: no fidsym sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        t0 = time.perf_counter()
        wl = setup(args.workload, args.seed, workdir)
        setup_here = time.perf_counter() - t0
        ref = Reference(wl.REFERENCE)
        if args.setup_probe:
            print(repr(setup_here * ref.scale()))
            return 0
        for op in wl.ops[:wl.block]:  # warm-up: lazy imports, allocator, caches
            run_op(wl, op)
        if args.trace:
            result = traced_run(wl, args.seconds, OUT / f"spans-{args.workload}.json")
            units = dict(PER_LAYER)
        else:
            result = timed_run(wl, args.seconds, ref)
            result["metrics"]["setup_s"] = probe_setup(args)
            result["metrics"]["peak_rss_mib"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = run_facts(args)
    failed_frac = result["failed"] / result["attempted"]
    record = {"facts": facts, "setup_s_this_process": setup_here,
              "failed_frac": failed_frac, **result}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    print(json.dumps({"facts": facts}, sort_keys=True))
    for name, value in result["metrics"].items():
        print(f"{args.workload:18s} {name:40s} {value:14.6g} {units[name]}")
    for name, value in result.get("wall_metrics", {}).items():
        print(f"{args.workload:18s} {'unscaled ' + name:40s} {value:14.6g} {units[name]}")
    print(f"{args.workload:18s} {'failed_frac':40s} {failed_frac:14.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
