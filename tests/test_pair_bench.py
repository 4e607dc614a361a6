"""tools/pair_bench.py builds the benchmark's own command and reads its
workloads and metrics from BENCHMARK.json. No benchmark is run."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pair_bench", ROOT / "tools" / "pair_bench.py")
pair_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair_bench)


def test_workloads_and_metrics_come_from_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads, metrics = pair_bench.load_benchmark()
    assert workloads == [w["name"] for w in spec["workloads"]]
    assert metrics == {m["name"]: m["better"] for m in spec["end_to_end"]}
    assert pair_bench.parse_args(["HEAD~1", "--workload", workloads[0]], workloads).rev == "HEAD~1"
    with pytest.raises(SystemExit):
        pair_bench.parse_args(["HEAD", "--workload", "no-such-workload"], workloads)


def test_a_written_benchmark_file_is_read(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps({
        "workloads": [{"name": "a", "why": ""}, {"name": "b", "why": ""}],
        "end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}))
    assert pair_bench.load_benchmark(path) == (["a", "b"], {"ops_per_s": "higher"})


def test_the_run_command_is_the_untraced_seed_1_run(tmp_path):
    assert pair_bench.run_command(tmp_path, "reconstruct-large", 8.0) == [
        sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload",
        "reconstruct-large", "--seed", "1", "--seconds", "8", "--trace", "0"]


def test_the_first_side_alternates():
    assert [pair_bench.pair_sides(k) for k in range(3)] == [
        ("base", "head"), ("head", "base"), ("base", "head")]


def test_the_summary_reads_medians_ratios_and_wins():
    runs = {"base": [{"op_ms_p90": v, "ops_per_s": 10.0} for v in (40.0, 42.0, 44.0)],
            "head": [{"op_ms_p90": v, "ops_per_s": 10.0} for v in (39.0, 40.0, 45.0)]}
    header, p90, ops = pair_bench.summary(runs, {"op_ms_p90": "lower", "ops_per_s": "higher"})
    assert p90.split()[0] == "op_ms_p90" and p90.endswith(" 2/3")
    assert " 42 " in p90 and " 40 " in p90 and " 0.9524 " in p90
    assert ops.endswith(" 1.0000  0/3")
