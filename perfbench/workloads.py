"""The three benchmark workloads: seeded inputs, one timed op, and the gate
that decides whether the op's output is correct.

Inputs come from the benchmark's own numpy code, never from fidsym, so a
change to the program cannot change what it is given. Each workload keeps a
pool of ops made of ``blocks`` repetitions of a fixed mix (``block`` ops);
the timed loop cycles through the pool, the traced run repeats the first
block.

Each workload provides:
  run(op)          the timed call into fidsym; returns its raw result
  settle(op, raw)  untimed: the output as a comparable tuple
  check(op, out)   untimed: True when the output passes the gate
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

import fidsym
from fidsym import charact, cli, mapzoo, matcore, wigner

# Tolerances of the output gate, the same as the acceptance suite uses.
WITNESS_REPLAY_TOL = 1e-12
SYMMETRY_DISTANCE_TOL = 1e-8
RESIDUAL_TOL = 1e-7


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def op_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# -- zoo-cli --------------------------------------------------------------


@dataclass(frozen=True)
class ZooOp:
    kind: str
    dim: int
    params: tuple
    spec_path: str
    seed: int


class ZooCli:
    """``fidsym classify`` run in-process over the map zoo at small d.

    Per-call Python overhead dominates here, not LAPACK: every trial pair
    goes through validate_density, sqrtm_psd and fidelity one matrix at a
    time, and preserving kinds go on to reconstruct. Half the kinds are
    rejected after the trials, half are classified and reconstructed.
    """

    name = "zoo-cli"
    REFERENCE = "small"  # shape of the reference pass in run.py
    DIMS = (2, 4, 8)
    TRIALS = 200
    BLOCKS = 8
    # The zoo as in mapzoo.zoo_specs, copied so that the inputs stay fixed.
    KINDS = (
        ("identity", ()),
        ("unitary", ()),
        ("antiunitary", ()),
        ("transpose", ()),
        ("depolarizing", (("p", 0.5),)),
        ("mix", (("p", 0.5),)),
        ("dephase", ()),
        ("spectral_scramble", ()),
    )
    EXPECTED_PARITY = {
        "identity": "unitary",
        "unitary": "unitary",
        "antiunitary": "antiunitary",
        "transpose": "antiunitary",
    }

    def __init__(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.report_path = os.path.join(workdir, "report.json")
        configs = []
        for d in self.DIMS:
            for kind, params in self.KINDS:
                path = os.path.join(workdir, f"{kind}-d{d}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"kind": kind, "dim": d, "params": dict(params)}, fh)
                configs.append((kind, d, params, path))
        self.block = len(configs)
        self.ops = [
            ZooOp(*configs[i], seed=op_seed(rng))
            for _ in range(self.BLOCKS)
            for i in rng.permutation(len(configs))
        ]

    def run(self, op: ZooOp) -> int:
        return cli.main(["classify", "--map", op.spec_path, "--trials", str(self.TRIALS),
                         "--seed", str(op.seed), "--out", self.report_path])

    def settle(self, op: ZooOp, code: int) -> tuple:
        try:
            with open(self.report_path, "rb") as fh:
                text = fh.read()
        except FileNotFoundError:
            return code, None
        os.remove(self.report_path)
        return code, text

    def check(self, op: ZooOp, out: tuple) -> bool:
        code, text = out
        if text is None:
            return False
        report = json.loads(text)["report"]
        if op.kind in self.EXPECTED_PARITY:
            rec = report.get("reconstruction", {})
            return (code == cli.EXIT_OK and report["preserving"]
                    and rec.get("status") == wigner.STATUS_CERTIFIED
                    and rec.get("parity") == self.EXPECTED_PARITY[op.kind])
        if code != cli.EXIT_REJECTED or report["preserving"] or "witness_pair" not in report:
            return False
        pair = report["witness_pair"]
        a, b = (matcore.DensityOperator.from_psd(_matrix(pair[k])) for k in ("a", "b"))
        oracle = mapzoo.make_map(mapzoo.MapSpec(op.kind, op.dim, dict(op.params)), seed=op.seed)
        replay = abs(fidsym.fidelity(oracle.evaluate(a), oracle.evaluate(b))
                     - fidsym.fidelity(a, b))
        return abs(replay - report["worst_violation"]) <= WITNESS_REPLAY_TOL


def _matrix(m: dict) -> np.ndarray:
    return np.asarray(m["re"], dtype=float) + 1j * np.asarray(m["im"], dtype=float)


# -- reconstruct-large ----------------------------------------------------


@dataclass(frozen=True)
class ReconstructOp:
    dim: int
    parity: str
    u: np.ndarray
    seed: int


class ReconstructLarge:
    """Library ``reconstruct(symmetry_oracle(truth))`` at d = 32 and 64.

    LAPACK-bound: at d = 64 most of an op is ``eigh`` on probe images, and
    fidelity is never called, so this is the workload a fidelity-kernel
    change should leave alone. The mix is three d = 32 ops to one d = 64 op
    so that the median lies among the d = 32 ops and p90 among the d = 64
    ops, well away from the boundary between them.
    """

    name = "reconstruct-large"
    REFERENCE = "mixed"
    MIX = ((32, "unitary"), (32, "antiunitary"), (32, "unitary"), (64, "unitary"),
           (32, "antiunitary"), (32, "unitary"), (32, "antiunitary"), (64, "antiunitary"))
    BLOCKS = 4

    def __init__(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.block = len(self.MIX)
        self.ops = [
            ReconstructOp(d, parity, haar_unitary(rng, d), op_seed(rng))
            for _ in range(self.BLOCKS)
            for d, parity in self.MIX
        ]

    def run(self, op: ReconstructOp) -> wigner.ReconstructionReport:
        truth = wigner.SymmetryOperator(parity=op.parity, u=op.u)
        return wigner.reconstruct(wigner.symmetry_oracle(truth), seed=op.seed)

    def settle(self, op: ReconstructOp, report: wigner.ReconstructionReport) -> tuple:
        sym = report.symmetry
        return (report.status, report.residual_max, report.probes_used,
                None if sym is None else sym.parity,
                None if sym is None else sym.u.tobytes())

    def check(self, op: ReconstructOp, out: tuple) -> bool:
        status, residual, _, parity, u_bytes = out
        if status != wigner.STATUS_CERTIFIED or parity != op.parity or u_bytes is None:
            return False
        u = np.frombuffer(u_bytes, dtype=complex).reshape(op.dim, op.dim)
        # distance up to a global phase, as wigner.symmetry_distance defines it
        t = np.trace(op.u.conj().T @ u)
        distance = float(np.linalg.norm(u - (t / abs(t)) * op.u)) if t != 0 else math.inf
        return distance <= SYMMETRY_DISTANCE_TOL and residual <= RESIDUAL_TOL


# -- rank-one -------------------------------------------------------------


@dataclass(frozen=True)
class RankOneOp:
    dim: int
    rank: int
    matrix: np.ndarray
    seed: int


class RankOne:
    """Operators of rank 1..d at d = 2, 3, 4 through all three charact routes.

    ``order_totality_probe`` scans every one of its 19,900 minorant pairs on
    a rank-one input but stops at the first incomparable chunk otherwise, so
    the rank-one third of the ops sets p90 and the rest set the median.
    """

    name = "rank-one"
    REFERENCE = "mixed"
    DIMS = (2, 3, 4)
    SAMPLES = 200
    BLOCKS = 8

    def __init__(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        configs = [(d, r) for d in self.DIMS for r in range(1, d + 1)]
        self.block = len(configs)
        self.ops = []
        for _ in range(self.BLOCKS):
            for i in rng.permutation(len(configs)):
                d, r = configs[i]
                g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
                m = g @ g.conj().T
                m *= rng.uniform(0.5, 2.0) / np.trace(m).real
                self.ops.append(RankOneOp(d, r, m, op_seed(rng)))

    def run(self, op: RankOneOp) -> tuple:
        a = matcore.validate_density(op.matrix)
        return (charact.is_rank_one(a), charact.rank_one_certificate(a),
                charact.order_totality_probe(a, samples=self.SAMPLES, seed=op.seed))

    def settle(self, op: RankOneOp, raw: tuple) -> tuple:
        spectral, cert, probe = raw
        if isinstance(cert, charact.OrthogonalCertificate):
            cert_out = ("certificate", tuple(w.matrix.tobytes() for w in cert.witnesses))
        else:
            cert_out = ("failure", cert.rank)
        return spectral, cert_out, probe

    def check(self, op: RankOneOp, out: tuple) -> bool:
        spectral, (cert_kind, evidence), probe = out
        if op.rank == 1:
            cert_ok = cert_kind == "certificate" and len(evidence) == op.dim - 1
        else:
            cert_ok = cert_kind == "failure" and evidence == op.rank
        return spectral == (op.rank == 1) and cert_ok and probe == (op.rank == 1)


WORKLOADS = {w.name: w for w in (ZooCli, ReconstructLarge, RankOne)}
