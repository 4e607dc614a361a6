"""Tests of the benchmark itself (not collected by the repository's test run).

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402
import run  # noqa: E402
from run import passes, run_op  # noqa: E402

ALL = sorted(workloads.WORKLOADS)


def leftover_wrappers() -> list[str]:
    """Names in fidsym modules or numpy.linalg still bound to a wrapper."""
    found = [f"{mod.__name__}.{attr}"
             for mod in tracer.fidsym_modules() + [sys.modules["numpy.linalg"]]
             for attr, value in vars(mod).items() if hasattr(value, "_traced")]
    if hasattr(sys.modules["fidsym.wigner"].DensityMapOracle.__init__, "_traced"):
        found.append("fidsym.wigner.DensityMapOracle.__init__")
    return found


def unpatched_references() -> list[str]:
    """Names in fidsym modules still bound to an original target while the
    tracer is installed: each is a call path the spans would miss."""
    originals = set()
    for t in tracer.TARGETS:
        fn = getattr(sys.modules[t.module], t.attr)
        originals.add(id(getattr(fn, "_traced", fn)))
    return [f"{mod.__name__}.{attr}" for mod in tracer.fidsym_modules()
            for attr, value in vars(mod).items() if id(value) in originals]


def _fingerprint(op) -> tuple:
    fields = []
    for f in dataclasses.fields(op):
        value = getattr(op, f.name)
        if isinstance(value, np.ndarray):
            value = value.tobytes()
        elif f.name == "spec_path":
            value = os.path.basename(value)
        fields.append(value)
    return tuple(fields)


@pytest.mark.parametrize("name", ALL)
def test_same_seed_gives_same_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    dirs = [tmp_path / str(i) for i in range(3)]
    for d in dirs:
        d.mkdir()
    a, b, c = cls(7, str(dirs[0])), cls(7, str(dirs[1])), cls(8, str(dirs[2]))
    assert [_fingerprint(op) for op in a.ops] == [_fingerprint(op) for op in b.ops]
    assert [_fingerprint(op) for op in a.ops] != [_fingerprint(op) for op in c.ops]
    assert len(a.ops) % a.block == 0
    if name == "zoo-cli":
        for op in a.ops[: a.block]:
            other = dirs[1] / os.path.basename(op.spec_path)
            assert open(op.spec_path).read() == other.read_text()


def _first_ops(wl, kinds):
    """The first op of the first block for each key that ``kinds`` gives."""
    seen = {}
    for op in wl.ops[: wl.block]:
        key = kinds(op)
        if key is not None and key not in seen:
            seen[key] = op
    return list(seen.values())


SAMPLE = {
    "zoo-cli": lambda op: (op.kind in workloads.ZooCli.EXPECTED_PARITY) if op.dim == 2 else None,
    "reconstruct-large": lambda op: op.parity if op.dim == 32 else None,
    "rank-one": lambda op: op.rank == 1,
}

EXPECTED_LAYERS = {
    "zoo-cli": ("cli.main", "cli.write_report", "mapzoo.make_map", "mapzoo.classify_map",
                "fidelity.fidelity", "matcore.sqrtm_psd", "matcore.eig_hermitian",
                "kernel.eigh", "sampling.random_density", "oracle.evaluate"),
    "reconstruct-large": ("wigner.reconstruct", "wigner.apply_symmetry", "oracle.evaluate",
                          "charact.is_rank_one_projection", "matcore.eig_hermitian",
                          "sampling.random_density", "kernel.eigh"),
    "rank-one": ("charact.is_rank_one", "charact.rank_one_certificate",
                 "charact.order_totality_probe", "kernel.eigvalsh", "matcore.validate_density"),
}


@pytest.mark.parametrize("name", ALL)
def test_traced_op_matches_untraced_and_unpatches(name, tmp_path):
    wl = workloads.WORKLOADS[name](3, str(tmp_path))
    t = tracer.Tracer()
    for op in _first_ops(wl, SAMPLE[name]):
        _, plain = run_op(wl, op)
        with t:
            assert unpatched_references() == []
            assert leftover_wrappers() != []
            _, traced = run_op(wl, op)
        assert leftover_wrappers() == []
        assert plain is not None and traced == plain
        assert passes(wl, op, traced)
    for layer in EXPECTED_LAYERS[name]:
        assert t.calls.get(layer, 0) > 0, layer
    # every span closed, parents point backwards, top-level time within the ops
    assert all(s is not None for s in t.spans)
    assert all(s[3] is None or s[3] < i for i, s in enumerate(t.spans))
    assert t.top_s > 0.0


def test_spans_reach_names_imported_by_value(tmp_path):
    """wigner calls eig_hermitian and random_density through names it
    imported; the tracer must see those calls too."""
    wl = workloads.ReconstructLarge(5, str(tmp_path))
    op = next(op for op in wl.ops if op.dim == 32)
    t = tracer.Tracer()
    with t:
        wl.run(op)
    spans = t.spans
    parents = {i: s[3] for i, s in enumerate(spans)}

    def under(i, name):
        p = parents[i]
        while p is not None and spans[p][0] != name:
            p = parents[p]
        return p is not None

    eig = [i for i, s in enumerate(spans) if s[0] == "matcore.eig_hermitian"]
    dens = [i for i, s in enumerate(spans) if s[0] == "sampling.random_density"]
    assert any(under(i, "wigner.reconstruct") for i in eig)
    assert len(dens) == 64 and all(under(i, "wigner.reconstruct") for i in dens)


def test_gate_fails_wrong_truth(tmp_path):
    wl = workloads.ReconstructLarge(4, str(tmp_path))
    op = wl.ops[0]
    out = wl.settle(op, wl.run(op))
    assert wl.check(op, out)
    wrong_u = dataclasses.replace(op, u=workloads.haar_unitary(np.random.default_rng(0), op.dim))
    assert not wl.check(wrong_u, out)
    flipped = "antiunitary" if op.parity == "unitary" else "unitary"
    assert not wl.check(dataclasses.replace(op, parity=flipped), out)


def test_gate_fails_wrong_rank(tmp_path):
    wl = workloads.RankOne(4, str(tmp_path))
    op = next(op for op in wl.ops if op.rank == 1)
    out = wl.settle(op, wl.run(op))
    assert wl.check(op, out)
    assert not wl.check(dataclasses.replace(op, rank=2), out)


def test_gate_fails_wrong_kind_and_tampered_witness(tmp_path):
    wl = workloads.ZooCli(4, str(tmp_path))
    rejected = next(op for op in wl.ops if op.kind == "depolarizing" and op.dim == 2)
    code, text = wl.settle(rejected, wl.run(rejected))
    assert wl.check(rejected, (code, text))
    # the same report claimed for a preserving kind has the wrong exit code
    assert not wl.check(dataclasses.replace(rejected, kind="unitary"), (code, text))
    payload = json.loads(text)
    payload["report"]["worst_violation"] += 1e-9
    assert not wl.check(rejected, (code, json.dumps(payload).encode()))
    assert not wl.check(rejected, (code, None))


def test_benchmark_json_matches_metric_tables():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracer.PER_LAYER)
    assert sorted(w["name"] for w in bench["workloads"]) == ALL
    metrics = tracer.layer_metrics(tracer.Tracer(), reps=1, ops=1, plain_s=1.0, traced_s=1.0)
    assert list(metrics) == [name for name, _ in tracer.PER_LAYER]
