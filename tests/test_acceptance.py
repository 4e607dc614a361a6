"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (run with -s to see them)."""
import numpy as np
import pytest

from fidsym.charact import is_rank_one, order_totality_probe, rank_one_certificate, OrthogonalCertificate
from fidsym.fidelity import fidelity
from fidsym.mapzoo import MapSpec, classify_map, make_map
from fidsym.matcore import validate_density
from fidsym.sampling import haar_unitary, random_density, random_pure_state
from fidsym.wigner import (
    ANTIUNITARY,
    UNITARY,
    DensityMapOracle,
    SymmetryOperator,
    apply_symmetry,
    extend_normalized,
    reconstruct,
    symmetry_distance,
    symmetry_oracle,
)


def report(criterion, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


@pytest.mark.parametrize("d", [2, 4, 8])
def test_criterion_1_fidelity_identities(d):
    rng = np.random.default_rng(1000 + d)
    ok = True
    for _ in range(1000):
        a = random_density(rng, d)
        b = random_density(rng, d)
        x = random_pure_state(rng, d)
        p = random_pure_state(rng, d).projection()
        q = random_pure_state(rng, d).projection()
        ok &= abs(fidelity(a, a) - a.trace) <= 1e-9
        ok &= abs(fidelity(a, b) - fidelity(b, a)) <= 1e-8
        quad = np.sqrt(np.vdot(x.amplitudes, a.matrix @ x.amplitudes).real.clip(0))
        ok &= abs(fidelity(a, x.projection()) - quad) <= 1e-9
        tr_pq = np.trace(p.matrix @ q.matrix).real
        ok &= abs(fidelity(p, q) ** 2 - tr_pq) <= 1e-9
        if not ok:
            break
    report(f"1. fidelity identities (d={d}, 1000 instances)", ok)


def test_criterion_2_monotonicity_suite():
    rng = np.random.default_rng(2000)
    dims = [2, 4, 8]
    ok = True
    for t in range(1000):
        d = dims[t % 3]
        a = random_density(rng, d)
        diff = random_density(rng, d)
        b = validate_density(a.matrix + diff.matrix)
        c = random_density(rng, d)
        ok &= fidelity(a, c) <= fidelity(b, c) + 1e-9
        wa = np.linalg.eigvalsh(a.matrix)[::-1]
        wb = np.linalg.eigvalsh(b.matrix)[::-1]
        ok &= bool(np.all(wa <= wb + 1e-9))
        chain = [fidelity(a, c, m) for m in range(1, d + 1)]
        ok &= all(hi - lo >= -1e-12 for lo, hi in zip(chain, chain[1:]))
        ok &= abs(chain[-1] - fidelity(a, c)) <= 1e-12
        if not ok:
            break
    report("2. monotonicity suite (1000 triples, d in {2,4,8})", ok)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_criterion_3_invariance(d):
    rng = np.random.default_rng(3000 + d)
    ok = True
    for _ in range(500):
        a = random_density(rng, d)
        b = random_density(rng, d)
        f = fidelity(a, b)
        u = haar_unitary(rng, d)
        au = validate_density(u @ a.matrix @ u.conj().T)
        bu = validate_density(u @ b.matrix @ u.conj().T)
        ok &= abs(fidelity(au, bu) - f) <= 1e-9
        ac = validate_density(a.matrix.conj())
        bc = validate_density(b.matrix.conj())
        ok &= abs(fidelity(ac, bc) - f) <= 1e-9
        if not ok:
            break
    report(f"3. invariance under unitaries and conjugation (d={d}, 500 trials)", ok)


@pytest.mark.parametrize("d", range(2, 9))
def test_criterion_4_reconstruction_round_trip(d):
    rng = np.random.default_rng(4000 + d)
    ok = True
    for parity in (UNITARY, ANTIUNITARY):
        for _ in range(50):
            truth = SymmetryOperator(parity=parity, u=haar_unitary(rng, d))
            rep = reconstruct(symmetry_oracle(truth))
            ok &= rep.certified
            ok &= rep.symmetry is not None and rep.symmetry.parity == parity
            ok &= symmetry_distance(rep.symmetry, truth) <= 1e-8
            ok &= rep.residual_max <= 1e-7
            if not ok:
                break
    report(f"4. reconstruction round-trip (d={d}, 50 per parity)", ok)


@pytest.mark.parametrize("d", [32, 64])
@pytest.mark.parametrize("parity", [UNITARY, ANTIUNITARY])
def test_criterion_4_reconstruction_round_trip_large_d(d, parity):
    rng = np.random.default_rng(4100 + d)
    truth = SymmetryOperator(parity=parity, u=haar_unitary(rng, d))
    rep = reconstruct(symmetry_oracle(truth))
    ok = (rep.certified and rep.symmetry.parity == parity
          and symmetry_distance(rep.symmetry, truth) <= 1e-8 and rep.residual_max <= 1e-7)
    report(f"4. reconstruction round-trip (d={d}, {parity})", ok)


@pytest.mark.parametrize("d", [2, 4])
def test_criterion_5_rejection(d):
    specs = [
        MapSpec(kind="depolarizing", dim=d, params={"p": 0.1}),
        MapSpec(kind="depolarizing", dim=d, params={"p": 0.5}),
        MapSpec(kind="depolarizing", dim=d, params={"p": 1.0}),
        MapSpec(kind="mix", dim=d, params={"p": 0.5}),
        MapSpec(kind="dephase", dim=d),
        MapSpec(kind="spectral_scramble", dim=d),
    ]
    seeds = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    ok = True
    for spec in specs:
        oracle = make_map(spec, seed=0)
        for seed in seeds:
            cls = classify_map(oracle, trials=200, seed=seed)
            ok &= not cls.preserving
            ok &= cls.witness_pair is not None
            if cls.witness_pair is not None:
                a, b = cls.witness_pair
                replay = abs(
                    fidelity(oracle.evaluate(a), oracle.evaluate(b)) - fidelity(a, b)
                )
                ok &= abs(replay - cls.worst_violation) <= 1e-12
            if spec.kind == "depolarizing" and spec.params["p"] == 0.5 and d == 2:
                ok &= cls.worst_violation >= 0.86
            if not ok:
                break
    report(f"5. non-preserving maps rejected with witnesses (d={d}, 10 seeds)", ok)


def test_criterion_6_characterization_agreement():
    d = 8
    rng = np.random.default_rng(6000)
    ok = True
    for rank in range(1, d + 1):
        for _ in range(500):
            a = random_density(rng, d, rank=rank)
            cert_ok = isinstance(rank_one_certificate(a), OrthogonalCertificate)
            if is_rank_one(a) != cert_ok:
                ok = False
                break
    report("6a. is_rank_one iff certificate success (500 per rank, d=8)", ok)

    agree = 0
    trials = 500
    for t in range(trials):
        dd = int(rng.integers(2, 5))
        a = random_density(rng, dd, rank=int(rng.integers(1, dd + 1)))
        if order_totality_probe(a, samples=200, seed=t) == is_rank_one(a):
            agree += 1
    report(f"6b. totality probe agreement {agree}/{trials} >= 99%", agree / trials >= 0.99)


def test_criterion_7_normalized_extension():
    rng = np.random.default_rng(7000)
    d = 4
    truth = SymmetryOperator(parity=UNITARY, u=haar_unitary(rng, d))

    def restricted(a):
        assert abs(a.trace - 1.0) <= 1e-6
        return apply_symmetry(truth, a)

    extended = extend_normalized(DensityMapOracle.from_evaluate(d, restricted))
    rep_ext = reconstruct(extended)
    rep_full = reconstruct(symmetry_oracle(truth))
    ok = rep_ext.certified and rep_full.certified
    ok &= symmetry_distance(rep_ext.symmetry, rep_full.symmetry) <= 1e-8
    ok &= symmetry_distance(rep_ext.symmetry, truth) <= 1e-8
    report("7. normalized-map extension reconstructs the same symmetry", ok)


def test_criterion_8_phase_uniqueness():
    rng = np.random.default_rng(8000)
    d = 5
    truth = SymmetryOperator(parity=ANTIUNITARY, u=haar_unitary(rng, d))
    oracle = symmetry_oracle(truth)
    r1 = reconstruct(oracle, seed=101)
    r2 = reconstruct(oracle, seed=202)
    ok = r1.certified and r2.certified
    ok &= r1.symmetry.parity == r2.symmetry.parity
    ok &= symmetry_distance(r1.symmetry, r2.symmetry) <= 1e-8
    report("8. independent reconstructions agree up to phase", ok)


def test_criterion_9_cli_golden_files():
    # delegated to the golden-file tests in test_cli.py; re-run the stdout
    # goldens here so the acceptance log carries the result
    import contextlib
    import io
    from pathlib import Path

    from fidsym.cli import main

    fixtures = Path(__file__).parent / "fixtures"
    golden = Path(__file__).parent / "golden"
    ok = True
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["fidelity", "--a", str(fixtures / "diag_05_05.json"),
                     "--b", str(fixtures / "diag_09_01.json")])
    ok &= code == 0 and buf.getvalue() == (golden / "fidelity.txt").read_text()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify", "--dim", "2", "--trials", "100", "--seed", "42"])
    ok &= code == 0 and buf.getvalue() == (golden / "verify_d2.json").read_text()
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        with contextlib.redirect_stdout(io.StringIO()):
            main(["reconstruct", "--map", str(fixtures / "transpose_d2.json"),
                  "--out", str(out)])
        ok &= out.read_bytes() == (golden / "reconstruct_transpose_d2.json").read_bytes()
        with contextlib.redirect_stdout(io.StringIO()):
            main(["classify", "--map", str(fixtures / "depolarizing_p05_d2.json"),
                  "--trials", "100", "--seed", "1", "--out", str(out)])
        ok &= out.read_bytes() == (golden / "classify_depolarizing_p05_d2.json").read_bytes()
    report("9. CLI golden files byte-identical", ok)
