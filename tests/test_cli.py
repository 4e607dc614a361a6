"""CLI behavior: subcommands, exit codes, serialization round-trips, and
byte-identical golden outputs."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fidsym import tolerances
from fidsym.cli import (
    EXIT_INPUT_ERROR,
    MAX_DIGITS,
    MAX_TRIALS,
    build_parser,
    classification_to_dict,
    load_matrix,
    main,
    matrix_to_dict,
    write_report,
)
from fidsym.mapzoo import classify_map
from fidsym.matcore import DensityOperator
from fidsym.wigner import DensityMapOracle

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


def strict_json(text):
    """``text`` parsed as RFC 8259 JSON: Infinity, -Infinity and NaN raise."""
    def reject(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=reject)


def test_rejected_reconstruct_report_is_strict_json(capsys, tmp_path):
    """A failed reconstruction has an infinite residual_max, written as null."""
    spec, out_file = tmp_path / "dephase_d3.json", tmp_path / "r.json"
    spec.write_text(json.dumps({"kind": "dephase", "dim": 3}))
    code, _, _ = run_cli(["reconstruct", "--map", spec, "--out", out_file], capsys)
    assert code == 2
    report = strict_json(out_file.read_text())["report"]
    assert report["status"] == "failed_phase" and report["residual_max"] is None


def test_turned_away_images_classify_to_strict_json(tmp_path):
    """An oracle whose images are all turned away has an infinite worst
    violation, written as null; write_report refuses any other non-finite
    number rather than write Infinity or NaN."""
    report = classify_map(DensityMapOracle.from_evaluate(2, lambda a: DensityOperator(
        matrix=np.full((2, 2), np.nan + 0j))), trials=10)
    out_file = tmp_path / "c.json"
    write_report(str(out_file), {"report": classification_to_dict(report)})
    assert strict_json(out_file.read_text())["report"]["worst_violation"] is None
    with pytest.raises(ValueError):
        write_report(str(out_file), {"report": {"worst_violation": float("nan")}})


def test_fidelity_of_huge_matrix_files(capsys, tmp_path):
    """F(sI, sI) = 2s for the 2 x 2 identity at s = 1e160, where the
    unscaled fidelity core overflows."""
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"dim": 2, "re": [[1e160, 0], [0, 1e160]]}))
    code, out, err = run_cli(["fidelity", "--a", path, "--b", path], capsys)
    assert code == 0 and err == ""
    assert float(out) == pytest.approx(2e160, rel=1e-12, abs=0.0)


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


def test_report_tolerance_table_overrides_the_payload(tmp_path):
    """A payload that carries its own "tolerances" cannot replace the table
    the code reads."""
    out_file = tmp_path / "out.json"
    write_report(str(out_file), {"tolerances": {"certify_tol": 1e-3}})
    assert json.loads(out_file.read_text())["tolerances"] == tolerances.table()


def test_classify_dim_one_is_an_input_error(capsys, tmp_path):
    spec = tmp_path / "identity_d1.json"
    spec.write_text(json.dumps({"kind": "identity", "dim": 1}))
    out_file = tmp_path / "c.json"
    code, _, err = run_cli(["classify", "--map", spec, "--out", out_file], capsys)
    assert code == 1
    assert err.startswith("error:") and "dim >= 2" in err
    assert not out_file.exists()


def test_classify_mix_sigma_of_wrong_shape_is_an_input_error(capsys, tmp_path):
    spec = tmp_path / "mix_d2.json"
    spec.write_text(json.dumps({"kind": "mix", "dim": 2,
                                "params": {"p": 0.5, "sigma_re": [[1.0]], "sigma_im": [[0.0]]}}))
    out_file = tmp_path / "c.json"
    code, _, err = run_cli(["classify", "--map", spec, "--out", out_file], capsys)
    assert code == 1
    assert err.startswith("error:") and "grids do not match dim 2" in err
    assert not out_file.exists()


@pytest.mark.parametrize("spec", [
    {"kind": "depolarizing", "dim": 2, "params": {"p": None}},
    {"kind": "depolarizing", "dim": 2, "params": {"p": [0.5]}},
    {"kind": "depolarizing", "dim": 2, "params": {"p": True}},
    {"kind": "mix", "dim": 2, "params": {"p": 0.5, "seed": None}},
    {"kind": "unitary", "dim": 2, "params": {"seed": 1.7}},
    {"kind": "identity", "dim": 2.9},
    {"kind": "identity", "dim": "2"},
    {"kind": "depolarizing", "dim": 2, "params": {"P": 0.5}},
    {"kind": "transpose", "dim": 2, "params": {"p": 0.5}},
    {"kind": "unitary", "dim": 2, "params": {"sigma_re": [[1, 0], [0, 1]]}},
    {"kind": "mix", "dim": 2, "params": {"re": [[1, 0], [0, 1]]}},
    {"kind": "unitary", "dim": 2, "params": {"re": [[1, 0], [0, "1"]]}},
    {"kind": "depolarizing", "dim": 2, "param": {"p": 0.5}},
    {"kind": "depolarizing", "dim": 2, "params": [["p", 0.5]]},
    {"dim": 2},
    [{"kind": "identity", "dim": 2}],
])
def test_classify_bad_spec_is_an_input_error(spec, capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out_file = tmp_path / "c.json"
    code, _, err = run_cli(["classify", "--map", path, "--trials", 10, "--out", out_file], capsys)
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert not out_file.exists()


@pytest.mark.parametrize("matrix", [
    {"dim": 2.5, "re": [[0.5, 0.0], [0.0, 0.5]]},
    {"dim": "2", "re": [[0.5, 0.0], [0.0, 0.5]]},
    {"re": [[0.5, 0.0], [0.0, 0.5]]},
    {"dim": 2, "re": [[0.5, 0.0], [0.0, None]]},
    {"dim": 2, "re": [[0.5, 0.0], [0.0]]},
    {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "imag": [[0.0, 0.1], [-0.1, 0.0]]},
    [[0.5, 0.0], [0.0, 0.5]],
])
def test_fidelity_bad_matrix_file_is_an_input_error(matrix, capsys, tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(matrix))
    code, out, err = run_cli(["fidelity", "--a", path, "--b", FIXTURES / "diag_05_05.json"],
                             capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}:") and "Traceback" not in err


def test_fidelity_non_psd_matrix_file_is_an_input_error(capsys, tmp_path):
    """A matrix from outside is validated: an eigenvalue of -0.2 exits 1."""
    path = tmp_path / "a.json"
    path.write_text(json.dumps(matrix_to_dict(np.diag([1.2, -0.2]))))
    code, out, err = run_cli(["fidelity", "--a", path, "--b", FIXTURES / "diag_05_05.json"],
                             capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}:") and err.rstrip().endswith("below tolerance band")


def test_fidelity_huge_non_psd_matrix_file_is_an_input_error(capsys, tmp_path):
    """So is an eigenvalue of -1e160, whose band scale would overflow as a
    sum of squares; it is not clipped to 0 and scored."""
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"dim": 2, "re": [[1e160, 0], [0, -1e160]]}))
    code, out, err = run_cli(["fidelity", "--a", path, "--b", FIXTURES / "diag_05_05.json"],
                             capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}:") and err.rstrip().endswith("below tolerance band")


def test_fidelity_tiny_non_psd_matrix_file_is_an_input_error(capsys, tmp_path):
    """So is 1e-12 diag(1, -0.5): the tolerance band scales with the matrix,
    so a tiny one is not clipped to 1e-12 diag(1, 0) and scored."""
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"dim": 2, "re": [[1e-12, 0], [0, -0.5e-12]]}))
    code, out, err = run_cli(["fidelity", "--a", path, "--b", FIXTURES / "diag_05_05.json"],
                             capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}:") and err.rstrip().endswith("below tolerance band")


def test_classify_mix_sigma_not_psd_is_an_input_error(capsys, tmp_path):
    """So is a mix spec's sigma grid: unit trace, but an eigenvalue of -0.2."""
    spec = tmp_path / "mix_d2.json"
    spec.write_text(json.dumps({"kind": "mix", "dim": 2,
                                "params": {"p": 0.5, "sigma_re": [[1.2, 0.0], [0.0, -0.2]]}}))
    out_file = tmp_path / "c.json"
    code, _, err = run_cli(["classify", "--map", spec, "--out", out_file], capsys)
    assert code == 1
    assert err.startswith("error:") and "below tolerance band" in err
    assert not out_file.exists()


def test_reconstruct_zero_trials_is_an_input_error(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    code, _, err = run_cli(
        ["reconstruct", "--map", FIXTURES / "transpose_d2.json", "--trials", "0",
         "--out", out_file],
        capsys,
    )
    assert code == 1
    assert err.startswith("error:")
    assert not out_file.exists()


@pytest.fixture
def nothing_downstream(monkeypatch):
    """Fail the test if input past the dim check reaches the code that
    would allocate dim x dim matrices."""
    def reached(*args, **kwargs):
        raise AssertionError("input passed the dim check")

    monkeypatch.setattr("fidsym.cli.json_grid", reached)
    monkeypatch.setattr("fidsym.mapzoo.make_map", reached)
    monkeypatch.setattr("fidsym.mapzoo.verify_theorem", reached)


@pytest.mark.parametrize("dim", [65, 10**6])
@pytest.mark.parametrize("command", ["fidelity", "classify", "reconstruct", "verify"])
def test_dim_above_cap_is_an_input_error(command, dim, capsys, tmp_path, nothing_downstream):
    path = tmp_path / "in.json"
    out_file = tmp_path / "out.json"
    if command == "fidelity":
        path.write_text(json.dumps({"dim": dim, "re": [[1.0]]}))
        args = ["fidelity", "--a", path, "--b", path]
    elif command == "verify":
        args = ["verify", "--dim", dim, "--out", out_file]
    else:
        path.write_text(json.dumps({"kind": "antiunitary", "dim": dim, "params": {"seed": 3}}))
        args = [command, "--map", path, "--out", out_file]
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "dim must be in 1..64" in err
    assert not out_file.exists()


@pytest.fixture
def nothing_past_trials(monkeypatch):
    """Fail the test if a command reads its map spec, or runs any stage,
    after a --trials outside 1..MAX_TRIALS."""
    def reached(*args, **kwargs):
        raise AssertionError("input passed the trials check")

    for target in ("fidsym.cli.load_map_spec", "fidsym.mapzoo.make_map",
                   "fidsym.mapzoo.classify_map", "fidsym.mapzoo.verify_theorem",
                   "fidsym.wigner.reconstruct"):
        monkeypatch.setattr(target, reached)


@pytest.mark.parametrize("trials", [0, MAX_TRIALS + 1, 10**11])
@pytest.mark.parametrize("command", ["classify", "reconstruct", "verify"])
def test_trials_outside_the_cap_are_an_input_error(command, trials, capsys, tmp_path,
                                                   nothing_past_trials):
    """--trials is bounded like dim: 10**11 trials would have reconstruct
    draw 16 bytes per trial up front, and classify and verify of a
    preserving map would run for hours."""
    out_file = tmp_path / "out.json"
    if command == "verify":
        args = ["verify", "--dim", 2]
    else:
        args = [command, "--map", FIXTURES / "transpose_d2.json"]
    code, out, err = run_cli(args + ["--trials", trials, "--out", out_file], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"trials must be in 1..{MAX_TRIALS}" in err
    assert not out_file.exists()


@pytest.mark.parametrize("command", ["fidelity", "classify"])
def test_deeply_nested_json_is_an_input_error(command, capsys, tmp_path):
    """A file with 100,000 nested arrays, too deep for the JSON parser, is
    an input error, not a RecursionError traceback."""
    nested = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.json"
    out_file = tmp_path / "out.json"
    if command == "fidelity":
        path.write_text(f'{{"dim": 2, "re": {nested}}}')
        args = ["fidelity", "--a", path, "--b", FIXTURES / "diag_05_05.json"]
    else:
        path.write_text(f'{{"kind": "mix", "dim": 2, "params": {{"sigma_re": {nested}}}}}')
        args = ["classify", "--map", path, "--out", out_file]
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}:") and "recursion" in err
    assert not out_file.exists()


@pytest.mark.parametrize("target", ["missing", "directory"])
@pytest.mark.parametrize("command", [
    ["classify", "--map", FIXTURES / "transpose_d2.json", "--trials", 10],
    ["reconstruct", "--map", FIXTURES / "transpose_d2.json", "--trials", 4],
    ["verify", "--dim", 2, "--trials", 10],
], ids=["classify", "reconstruct", "verify"])
def test_unwritable_out_is_an_input_error(command, target, capsys, tmp_path):
    """An --out in a missing directory, or naming a directory, exits 1 with an
    error line and leaves no temp file behind."""
    out = tmp_path / "missing" / "r.json"
    if target == "directory":
        out = tmp_path / "r.json"
        out.mkdir()
    code, _, err = run_cli(command + ["--out", out], capsys)
    assert code == 1
    assert err.startswith("error:") and str(out) in err and "Traceback" not in err
    assert list(tmp_path.rglob("*.tmp")) == []


def test_dim_at_cap_is_accepted(capsys, tmp_path):
    matrix = tmp_path / "a.json"
    matrix.write_text(json.dumps(matrix_to_dict(np.eye(64) / 64)))
    code, out, _ = run_cli(["fidelity", "--a", matrix, "--b", matrix], capsys)
    assert code == 0 and out == "1.000000000000\n"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "antiunitary", "dim": 64, "params": {"seed": 3}}))
    out_file = tmp_path / "r.json"
    code, _, _ = run_cli(["reconstruct", "--map", spec, "--out", out_file], capsys)
    assert code == 0
    assert json.loads(out_file.read_text())["report"]["status"] == "certified"


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



def test_report_mode_follows_umask(capsys, tmp_path):
    """A report gets the mode open(path, "w") would create, 0o666 & ~umask,
    not the 0o600 of the temp file it is renamed from."""
    old = os.umask(0o022)
    try:
        for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
            os.umask(umask)
            out_file = tmp_path / f"r{umask:o}.json"
            code, _, _ = run_cli(["reconstruct", "--map", FIXTURES / "transpose_d2.json",
                                  "--out", out_file], capsys)
            assert code == 0
            assert out_file.stat().st_mode & 0o777 == mode
    finally:
        os.umask(old)


def test_report_mode_needs_no_umask_call(capsys, tmp_path, monkeypatch):
    """The kernel applies the umask to the temp file as it is created, so
    write_report never reads the umask: a call to os.umask, which sets the
    process umask for a moment and races with other threads, would raise
    here."""
    def no_umask(mask):
        raise AssertionError("os.umask called")

    old = os.umask(0o027)
    try:
        out_file = tmp_path / "r.json"
        with monkeypatch.context() as patch:
            patch.setattr(os, "umask", no_umask)
            code, _, _ = run_cli(["reconstruct", "--map", FIXTURES / "transpose_d2.json",
                                  "--out", out_file], capsys)
        assert code == 0
        assert out_file.stat().st_mode & 0o777 == 0o666 & ~0o027
        assert list(tmp_path.iterdir()) == [out_file]
    finally:
        os.umask(old)


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


def usage_exit(args, capsys):
    """The exit code and stderr of a command that argparse ends."""
    with pytest.raises(SystemExit) as info:
        main([str(a) for a in args])
    return info.value.code, capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["classify", "--map", FIXTURES / "transpose_d2.json", "--trials", "abc", "--out", "c.json"],
    ["classify", "--out", "c.json"],
    ["frobnicate"],
], ids=["bad-int", "missing-map", "unknown-command"])
def test_usage_error_is_an_input_error(args, capsys):
    """A usage error exits 1, not argparse's 2, which a rejected map exits."""
    code, err = usage_exit(args, capsys)
    assert code == EXIT_INPUT_ERROR == 1
    assert "error:" in err


def test_reconstruct_has_no_tol_option(capsys, tmp_path):
    """Reconstruct certifies against CERTIFY_TOL alone: --tol is an unknown
    option, a usage error, and no report is written."""
    out_file = tmp_path / "r.json"
    code, err = usage_exit(["reconstruct", "--map", FIXTURES / "transpose_d2.json",
                            "--tol", "1e-3", "--out", out_file], capsys)
    assert code == EXIT_INPUT_ERROR == 1
    assert "--tol" in err
    assert not out_file.exists()


@pytest.mark.parametrize("args", [["--help"], ["--version"], ["classify", "--help"]])
def test_help_and_version_exit_0(args, capsys):
    code, _ = usage_exit(args, capsys)
    assert code == 0


@pytest.mark.parametrize("value", ["-1", "-2", "1.5", "x"])
@pytest.mark.parametrize("command", [
    ["classify", "--map", FIXTURES / "transpose_d2.json"],
    ["reconstruct", "--map", FIXTURES / "transpose_d2.json"],
    ["verify", "--dim", 2],
], ids=["classify", "reconstruct", "verify"])
def test_seed_must_be_a_non_negative_integer(command, value, capsys, tmp_path):
    out_file = tmp_path / "out.json"
    code, err = usage_exit(command + ["--seed", value, "--out", out_file], capsys)
    assert code == 1
    assert "--seed" in err and "non-negative integer" in err
    assert not out_file.exists()


def test_seed_zero_is_accepted(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    code, _, _ = run_cli(["reconstruct", "--map", FIXTURES / "transpose_d2.json",
                          "--seed", 0, "--out", out_file], capsys)
    assert code == 0


def test_negative_digits_is_an_input_error(capsys):
    code, err = usage_exit(["fidelity", "--a", FIXTURES / "diag_05_05.json",
                            "--b", FIXTURES / "diag_09_01.json", "--digits", "-1"], capsys)
    assert code == 1
    assert "--digits" in err and "non-negative integer" in err


def test_digits_at_cap_is_accepted(capsys):
    """MAX_DIGITS decimals reach the last nonzero one a double can have."""
    code, out, _ = run_cli(["fidelity", "--a", FIXTURES / "diag_05_05.json",
                            "--b", FIXTURES / "diag_05_05.json", "--digits", MAX_DIGITS], capsys)
    assert code == 0 and MAX_DIGITS == 1074
    assert out == "1." + "0" * MAX_DIGITS + "\n"


@pytest.mark.parametrize("digits", [MAX_DIGITS + 1, 2 * 10**9])
def test_digits_above_cap_is_an_input_error(digits, capsys):
    """A --digits past the last decimal a double can have would print a
    line of zeros as long as memory allows."""
    code, out, err = run_cli(["fidelity", "--a", FIXTURES / "diag_05_05.json",
                              "--b", FIXTURES / "diag_05_05.json", "--digits", digits], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"digits must be in 0..{MAX_DIGITS}" in err
    assert "Traceback" not in err


def test_parser_is_built_once_on_first_use(src_env):
    assert build_parser() is build_parser()
    result = subprocess.run(
        [sys.executable, "-c",
         "import fidsym.cli as c; print(c.build_parser.cache_info().currsize)"],
        capture_output=True, text=True, env=src_env,
    )
    assert result.returncode == 0 and result.stdout.strip() == "0"


def test_cli_entry_point_subprocess(src_env):
    result = subprocess.run(
        [sys.executable, "-m", "fidsym.cli", "fidelity",
         "--a", str(FIXTURES / "diag_05_05.json"), "--b", str(FIXTURES / "diag_05_05.json")],
        capture_output=True, text=True, env=src_env,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "1.000000000000"
