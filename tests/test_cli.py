"""CLI behavior: subcommands, exit codes, serialization round-trips, and
byte-identical golden outputs."""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fidsym import tolerances
from fidsym.cli import load_matrix, main, matrix_to_dict

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    out, err = capsys.readouterr()
    return code, out, err


def test_fidelity_command(capsys):
    code, out, _ = run_cli(
        ["fidelity", "--a", FIXTURES / "diag_05_05.json", "--b", FIXTURES / "diag_09_01.json"],
        capsys,
    )
    assert code == 0
    assert out.strip() == f"{np.sqrt(0.45) + np.sqrt(0.05):.12f}"


def test_fidelity_partial(capsys):
    code, out, _ = run_cli(
        ["fidelity", "--a", FIXTURES / "diag_05_05.json", "--b", FIXTURES / "diag_05_05.json",
         "--m", 1, "--digits", 6],
        capsys,
    )
    assert code == 0
    assert out.strip() == "0.500000"


def test_fidelity_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(
        ["fidelity", "--a", bad, "--b", FIXTURES / "diag_05_05.json"], capsys
    )
    assert code == 1
    assert err.startswith("error:")


def test_fidelity_dimension_mismatch(capsys, tmp_path):
    one = tmp_path / "d1.json"
    one.write_text(json.dumps({"dim": 1, "re": [[1.0]], "im": [[0.0]]}))
    code, _, err = run_cli(
        ["fidelity", "--a", one, "--b", FIXTURES / "diag_05_05.json"], capsys
    )
    assert code == 1
    assert "mismatch" in err


def test_reconstruct_transpose(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    code, _, _ = run_cli(
        ["reconstruct", "--map", FIXTURES / "transpose_d2.json", "--out", out_file], capsys
    )
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["report"]["status"] == "certified"
    assert report["report"]["parity"] == "antiunitary"
    assert "tolerances" in report and "tool_version" in report


def test_reconstruct_non_preserving_exits_2(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    code, _, _ = run_cli(
        ["reconstruct", "--map", FIXTURES / "depolarizing_p05_d2.json", "--out", out_file],
        capsys,
    )
    assert code == 2
    report = json.loads(out_file.read_text())
    assert report["report"]["status"] != "certified"


def test_reconstruct_report_records_tol(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    code, _, _ = run_cli(
        ["reconstruct", "--map", FIXTURES / "transpose_d2.json", "--tol", "1e-3",
         "--out", out_file],
        capsys,
    )
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["tolerances"] == {**tolerances.table(), "certify_tol": 0.001}


@pytest.mark.parametrize(
    "args",
    [
        ["classify", "--map", FIXTURES / "depolarizing_p05_d2.json", "--trials", 10],
        ["verify", "--dim", 2, "--trials", 10],
        ["reconstruct", "--map", FIXTURES / "transpose_d2.json"],
    ],
)
def test_report_writes_tolerance_table(args, capsys, tmp_path):
    out_file = tmp_path / "out.json"
    run_cli(args + ["--out", out_file], capsys)
    written = json.loads(out_file.read_text())["tolerances"]
    assert written == tolerances.table()
    assert written["certify_tol"] == tolerances.CERTIFY_TOL == 1e-7


def test_classify_dim_one_is_an_input_error(capsys, tmp_path):
    spec = tmp_path / "identity_d1.json"
    spec.write_text(json.dumps({"kind": "identity", "dim": 1}))
    out_file = tmp_path / "c.json"
    code, _, err = run_cli(["classify", "--map", spec, "--out", out_file], capsys)
    assert code == 1
    assert err.startswith("error:") and "dim >= 2" in err
    assert not out_file.exists()


def test_classify_depolarizing(capsys, tmp_path):
    out_file = tmp_path / "c.json"
    code, _, _ = run_cli(
        ["classify", "--map", FIXTURES / "depolarizing_p05_d2.json",
         "--trials", 100, "--seed", 1, "--out", out_file],
        capsys,
    )
    assert code == 2
    report = json.loads(out_file.read_text())
    assert not report["report"]["preserving"]
    assert report["report"]["worst_violation"] >= 0.86
    assert "witness_pair" in report["report"]


def test_verify_stdout(capsys):
    code, out, _ = run_cli(["verify", "--dim", 2, "--trials", 100, "--seed", 42], capsys)
    assert code == 0
    summary = json.loads(out)
    assert {r["kind"]: r["preserving"] for r in summary["results"]}["dephase"] is False


def test_matrix_round_trip_bit_identical():
    for name in ("diag_05_05.json", "diag_09_01.json", "offdiag_d2.json"):
        path = FIXTURES / name
        m = load_matrix(str(path))
        again = matrix_to_dict(m)
        assert again == json.loads(path.read_text())


def test_report_determinism(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out_file in (a, b):
        code, _, _ = run_cli(
            ["classify", "--map", FIXTURES / "depolarizing_p05_d2.json",
             "--trials", 50, "--seed", 7, "--out", out_file],
            capsys,
        )
        assert code == 2
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "name,args",
    [
        ("fidelity.txt",
         ["fidelity", "--a", FIXTURES / "diag_05_05.json", "--b", FIXTURES / "diag_09_01.json"]),
        ("verify_d2.json", ["verify", "--dim", 2, "--trials", 100, "--seed", 42]),
    ],
)
def test_golden_stdout(name, args, capsys):
    _, out, _ = run_cli(args, capsys)
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize(
    "name,args",
    [
        ("reconstruct_transpose_d2.json",
         ["reconstruct", "--map", FIXTURES / "transpose_d2.json"]),
        ("reconstruct_unitary_d3.json",
         ["reconstruct", "--map", FIXTURES / "unitary_d3.json"]),
        ("classify_depolarizing_p05_d2.json",
         ["classify", "--map", FIXTURES / "depolarizing_p05_d2.json",
          "--trials", 100, "--seed", 1]),
    ],
)
def test_golden_reports(name, args, capsys, tmp_path):
    out_file = tmp_path / "out.json"
    run_cli(args + ["--out", out_file], capsys)
    assert out_file.read_bytes() == (GOLDEN / name).read_bytes()


def test_cli_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "fidsym.cli", "fidelity",
         "--a", str(FIXTURES / "diag_05_05.json"), "--b", str(FIXTURES / "diag_05_05.json")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "1.000000000000"
