"""CLI smoke checks, run in process: each command run twice writes the same
bytes, with its exit code and report fields pinned; and the library answers
at the dimensions and scales the CLI reaches but no other test pins."""
import functools
import json
import operator
from pathlib import Path

import numpy as np
import pytest

from fidsym import tolerances
from fidsym.charact import order_totality_probe
from fidsym.cli import main
from fidsym.fidelity import is_leq
from fidsym.matcore import DensityOperator, validate_density
from fidsym.sampling import random_density

FIXTURES = Path(__file__).parent / "fixtures"
TRANSPOSE_D2 = FIXTURES / "transpose_d2.json"
DEPOLARIZING_D2 = FIXTURES / "depolarizing_p05_d2.json"
AU64 = {"kind": "antiunitary", "dim": 64, "params": {"seed": 3}}
U8 = {"kind": "unitary", "dim": 8, "params": {"seed": 5}}

# Runs keyed by test id: the arguments (a dict is a map spec, written to a
# file first), the exit code, and report fields by dotted path.
RUNS = {
    # a certified map at d = 64 costs d + 2 probes plus 64 verification
    # trials, and its report states the one tolerance table the code reads
    "reconstruct-antiunitary-d64": (["reconstruct", "--map", AU64], 0, {
        "report.status": "certified", "report.probes_used": 130,
        "tolerances": tolerances.table()}),
    # the identity reconstructs as U = I exactly: every column is a basis
    # image times the phase 1, so no residual is left
    "reconstruct-identity-d64": (["reconstruct", "--map", {"kind": "identity", "dim": 64}], 0,
                                 {"report.residual_max": 0.0}),
    # the 64 verification inputs are drawn in four stacks of 16 and scored in
    # groups of 16, 32 and 16
    "reconstruct-unitary-d8": (["reconstruct", "--map", U8], 0, {"report.probes_used": 74}),
    # a stack holds 256 verification inputs, so 300 take two stacks
    "reconstruct-transpose-d2-300": (["reconstruct", "--map", TRANSPOSE_D2, "--trials", 300], 0,
                                     {"report.probes_used": 304}),
    # one pair per block, each scored against the certified candidate
    **{f"classify-{kind}-d64": (["classify", "--map", {**AU64, "kind": kind}, "--trials", 200], 0,
                                {"report.reconstruction.status": "certified"})
       for kind in ("antiunitary", "unitary")},
    # 13 whole blocks of 16 pairs, the last cut to 8
    "classify-unitary-d8": (["classify", "--map", U8, "--trials", 200], 0,
                            {"report.reconstruction.status": "certified"}),
    # one pair per block: most blocks hold no mixed pair, so the Wishart
    # sampler draws an empty stack, with no RuntimeWarning
    "classify-unitary-d32": (["classify", "--map", {"kind": "unitary", "dim": 32,
                                                    "params": {"seed": 7}}, "--trials", 20], 0,
                             {"report.reconstruction.status": "certified"}),
    # 300 trials ask for two stacks of up to 256 pairs, but the rejection
    # stops at the first, which holds a witness, and reports its 256 trials
    "classify-depolarizing-d2-300": (["classify", "--map", DEPOLARIZING_D2, "--trials", 300,
                                      "--seed", 3], 2,
                                     {"report.trials": 256, "report.witness_pair.a.dim": 2}),
    # rejected after the first stack of 16 pairs, keeping the reconstruction
    # that ran first, whose first basis probe failed
    "classify-depolarizing-d8": (["classify", "--map", {"kind": "depolarizing", "dim": 8,
                                                        "params": {"p": 0.5}},
                                  "--trials", 200, "--seed", 5], 2,
                                 {"report.trials": 16,
                                  "report.reconstruction.status": "failed_projection_probe"}),
    # stacks of 16 trial pairs, across stack boundaries
    "verify-d8": (["verify", "--dim", 8, "--trials", 200, "--seed", 5], 0, {}),
}


def two_runs(args, code, tmp_path):
    """The report ``args`` writes, after two runs that exit ``code`` and
    write the same bytes."""
    spec = tmp_path / "spec.json"
    for a in args:
        if isinstance(a, dict):
            spec.write_text(json.dumps(a))
    argv = [str(spec if isinstance(a, dict) else a) for a in args]
    written = []
    for name in ("a.json", "b.json"):
        assert main(argv + ["--out", str(tmp_path / name)]) == code
        written.append((tmp_path / name).read_bytes())
    assert written[0] == written[1]
    return json.loads(written[0])


@pytest.mark.parametrize("name", RUNS)
def test_two_runs_write_the_same_bytes(name, tmp_path):
    args, code, fields = RUNS[name]
    report = two_runs(args, code, tmp_path)
    assert {path: functools.reduce(operator.getitem, path.split("."), report)
            for path in fields} == fields


def test_verify_d4_certifies_identity_and_transpose_within_half_classify_tol(tmp_path):
    """d = 4, which neither the d = 2 golden file nor the d = 8 run reaches:
    the worst violation of a preserving kind, the largest bound against the
    certified symmetry, is within CLASSIFY_TOL / 2."""
    summary = two_runs(["verify", "--dim", 4, "--trials", 200, "--seed", 5], 0, tmp_path)
    results = {e["kind"]: e for e in summary["summary"]["results"]}
    for kind in ("identity", "transpose"):
        assert results[kind]["preserving"], kind
        assert results[kind]["worst_violation"] <= tolerances.CLASSIFY_TOL / 2, kind


def test_order_probe_beyond_the_rank_one_workload():
    """At d = 8, its default seed, 2 samples (the lowest pair only) and 200
    (that pair, then the other 198 in one call): False for a rank-two
    operator, True for a rank-one one. The minorants come from their Wishart
    factor with no eigensolve of their own: at d = 64 for random operators
    of rank one and two, and at d = 8 at traces 1e-6 and 1e6 too."""
    two = validate_density(np.diag([0.5, 0.5] + [0.0] * 6))
    one = validate_density(np.diag([1.0] + [0.0] * 7))
    assert [(order_totality_probe(two, samples=n), order_totality_probe(one, samples=n))
            for n in (2, 200)] == [(False, True)] * 2
    rng = np.random.default_rng(0)
    got = [order_totality_probe(random_density(rng, 64, rank=k, trace=1.0)) for k in (1, 2)]
    got += [order_totality_probe(random_density(rng, 8, rank=k, trace=t))
            for t in (1e-6, 1e6) for k in (1, 2)]
    assert got == [True, False] * 3


def test_is_leq_of_diagonal_pairs_at_1e_minus_300_and_1e300():
    """One Cholesky factorization of B - A with its band on the diagonal,
    each row scaled by a power of two: diag(s, 0) and diag(0, s) are
    incomparable both ways at s = 1e300, and diag(s, 0) <= s I at both
    scales. At s = 1e-300 the band's absolute floor orders the pair both
    ways: this pins today's answer, which ROADMAP item 12's relative band
    turns into the 1e300 one."""
    def op(*v):
        return DensityOperator(matrix=np.diag(v).astype(complex))

    assert [(is_leq(op(s, 0.0), op(0.0, s)), is_leq(op(0.0, s), op(s, 0.0)),
             is_leq(op(s, 0.0), op(s, s))) for s in (1e-300, 1e300)] == [
        (True, True, True), (False, False, True)]
