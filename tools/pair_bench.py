"""Alternating pairs of benchmark runs: the working tree against a git revision.

    python3 tools/pair_bench.py REV --workload W --pairs N --seconds S

REV is checked out with ``git worktree add`` into a temporary directory,
which is removed on exit. Each pair then runs, with the interpreter that
runs this tool,

    perfbench/run.py --workload W --seed 1 --seconds S --trace 0

once in that checkout and once in the working tree, each with its own
perfbench and src; the side that runs first alternates from pair to pair,
so that a drift of the machine's speed falls on both sides alike. For each
end-to-end metric of BENCHMARK.json it prints the median and quartiles of
each side, the ratio of the working tree's median to REV's, and in how many
pairs the working tree was better. W must be a workload of BENCHMARK.json.
A run whose last line does not report ``"correct": true`` stops the tool.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"


def load_benchmark(path: Path = BENCHMARK) -> tuple[list[str], dict[str, str]]:
    """The workload names of a BENCHMARK.json, and its end-to-end metrics
    by name with the direction that is better ("lower" or "higher")."""
    spec = json.loads(path.read_text(encoding="utf-8"))
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["better"] for m in spec["end_to_end"]})


def run_command(checkout: Path, workload: str, seconds: float) -> list[str]:
    """The untraced seed-1 benchmark run of ``workload`` in ``checkout``."""
    return [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", f"{seconds:g}", "--trace", "0"]


def pair_sides(pair: int) -> tuple[str, str]:
    """The order in which pair ``pair`` (from 0) runs the two sides."""
    return ("base", "head") if pair % 2 == 0 else ("head", "base")


def run_metrics(command: list[str], cwd: Path) -> dict[str, float]:
    """The metric values from the last line of one run's standard output;
    SystemExit if the run fails or reports a wrong answer."""
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if result.get("correct") is not True:
        raise SystemExit(f"run failed in {cwd} (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, median and third quartile of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(runs: dict[str, list[dict[str, float]]], metrics: dict[str, str]) -> list[str]:
    """One line per end-to-end metric: the median [quartiles] of REV's runs
    and of the working tree's, their ratio (working tree over REV), and the
    pairs in which the working tree was better, ties counting for neither."""
    lines = [f"{'metric':14s} {'REV median [q1, q3]':>34s} {'tree median [q1, q3]':>34s}"
             f" {'ratio':>7s}  better"]
    for name, better in metrics.items():
        base = [run[name] for run in runs["base"]]
        head = [run[name] for run in runs["head"]]
        (b1, b, b3), (h1, h, h3) = quartiles(base), quartiles(head)
        wins = sum((y < x) if better == "lower" else (y > x) for x, y in zip(base, head))
        ratio = f"{h / b:7.4f}" if b else f"{'-':>7s}"
        lines.append(f"{name:14s} {b:10.5g} [{b1:10.5g}, {b3:10.5g}]"
                     f" {h:10.5g} [{h1:10.5g}, {h3:10.5g}] {ratio}  {wins}/{len(base)}")
    return lines


def parse_args(argv: list[str], workloads: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("rev", help="the git revision to compare the working tree against")
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--pairs", type=int, default=5, choices=range(1, 101), metavar="1..100")
    p.add_argument("--seconds", type=float, default=8.0)
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    workloads, metrics = load_benchmark()
    args = parse_args(argv, workloads)
    tmp = Path(tempfile.mkdtemp(prefix="pair-bench-"))
    base = tmp / "rev"
    try:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", str(base),
                        args.rev], check=True, capture_output=True)
        checkouts = {"base": base, "head": ROOT}
        runs: dict[str, list[dict[str, float]]] = {"base": [], "head": []}
        for pair in range(args.pairs):
            for side in pair_sides(pair):
                command = run_command(checkouts[side], args.workload, args.seconds)
                runs[side].append(run_metrics(command, checkouts[side]))
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base)],
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s, REV = {args.rev}")
    print("\n".join(summary(runs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
