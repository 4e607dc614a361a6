"""Fidelity values, partial fidelities, and the order/orthogonality
predicates, with the numeric identities they must satisfy."""
import warnings

import numpy as np
import pytest

from fidsym.fidelity import (
    BadM,
    fidelity,
    is_leq,
    is_orthogonal,
    partial_fidelity,
)
from fidsym.matcore import (
    DensityOperator,
    DimensionMismatch,
    pure_state,
    validate_density,
)
from fidsym.sampling import haar_unitary, random_density, random_pure_state


def dens(diag):
    return validate_density(np.diag(diag).astype(float))


def diag_fidelity(a, b):
    """Independent oracle for commuting diagonal operators: sum of
    sqrt(a_i * b_i)."""
    return float(np.sum(np.sqrt(np.asarray(a) * np.asarray(b))))


def test_self_fidelity_is_trace():
    a = dens([0.3, 0.2])
    assert fidelity(a, a) == pytest.approx(0.5, abs=1e-12)


def test_commuting_diagonal_example():
    a, b = dens([0.5, 0.5]), dens([0.9, 0.1])
    expected = diag_fidelity([0.5, 0.5], [0.9, 0.1])
    assert expected == pytest.approx(np.sqrt(0.45) + np.sqrt(0.05))
    assert fidelity(a, b) == pytest.approx(expected, abs=1e-10)


def test_orthogonal_projections_zero():
    p = pure_state(np.eye(2)[0]).projection()
    q = pure_state(np.eye(2)[1]).projection()
    assert fidelity(p, q) == pytest.approx(0.0, abs=1e-12)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fidelity(dens([1.0]), dens([0.5, 0.5]))


def test_partial_fidelity_m1_example():
    a = dens([0.5, 0.5])
    assert partial_fidelity(a, a, 1) == pytest.approx(0.5, abs=1e-12)


def test_partial_fidelity_full_equals_fidelity():
    rng = np.random.default_rng(11)
    a = random_density(rng, 4)
    b = random_density(rng, 4)
    assert partial_fidelity(a, b, 4) == pytest.approx(fidelity(a, b), abs=1e-12)


def test_partial_fidelity_zero_on_orthogonal():
    p = pure_state(np.eye(2)[0]).projection()
    q = pure_state(np.eye(2)[1]).projection()
    assert partial_fidelity(p, q, 1) == pytest.approx(0.0, abs=1e-12)


def test_partial_fidelity_bad_m():
    a = dens([0.5, 0.5])
    with pytest.raises(BadM):
        partial_fidelity(a, a, 0)
    with pytest.raises(BadM):
        partial_fidelity(a, a, 3)


def test_pure_fidelity_overlap():
    x = pure_state(np.eye(2)[0])
    y = pure_state([1.0, 1.0])
    f = fidelity(x.projection(), y.projection())
    assert f == pytest.approx(abs(np.vdot(x.amplitudes, y.amplitudes))) == 1 / np.sqrt(2)


def test_pure_fidelity_extremes():
    for x, y, want in [(pure_state([1.0, 1j]), pure_state([1.0, 1j]), 1.0),
                       (pure_state(np.eye(2)[0]), pure_state(np.eye(2)[1]), 0.0)]:
        f = fidelity(x.projection(), y.projection())
        assert f == pytest.approx(abs(np.vdot(x.amplitudes, y.amplitudes))) == want


def test_pure_fidelity_matches_projections():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = random_pure_state(rng, 3)
        y = random_pure_state(rng, 3)
        f = fidelity(x.projection(), y.projection())
        assert f == pytest.approx(abs(np.vdot(x.amplitudes, y.amplitudes)), abs=1e-8)


def test_is_leq_examples():
    assert is_leq(dens([1.0, 0.0]), dens([1.0, 1.0]))
    a = dens([0.5, 0.5])
    assert is_leq(a, a)
    p = pure_state(np.eye(2)[0]).projection()
    q = pure_state([1.0, 1.0]).projection()
    assert not is_leq(p, q)
    assert not is_leq(q, p)


@pytest.mark.parametrize("scale", [1e150, 1e160, 1e300])
def test_is_leq_decides_huge_operators(scale):
    """diag(s, 0) and diag(0, s) are incomparable at any scale s: the band
    is scaled by the 2-norm of the spectrum of the difference, which stays
    finite where its sum of squares overflows."""
    a, b = dens([scale, 0.0]), dens([0.0, scale])
    assert not is_leq(a, b) and not is_leq(b, a)
    assert is_leq(a, dens([scale, scale]))


@pytest.mark.parametrize("scale", [1e150, 1e-150, 1e160, 1e-160, 1e300, 1e-300])
def test_fidelity_is_scale_free(scale):
    """F(sA, sB) = s F(A, B), with no warning, where the unscaled core
    X*BX would hold entries of order s^2: overflowing above about 1e154,
    subnormal or zero below about 1e-154."""
    a = np.array([[0.7, 0.2], [0.2, 0.3]])
    b = np.array([[0.5, 0.1j], [-0.1j, 0.5]])
    f = fidelity(validate_density(a), validate_density(b))
    p = partial_fidelity(validate_density(a), validate_density(b), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sa, sb = validate_density(scale * a), validate_density(scale * b)
        assert fidelity(sa, sb) / scale == pytest.approx(f, rel=1e-12, abs=0.0)
        assert partial_fidelity(sa, sb, 1) / scale == pytest.approx(p, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_is_leq_rejects_non_finite_input(bad):
    """A non-finite operator raises as fidelity does, on either side, and
    so does the orthogonality test."""
    x = DensityOperator(matrix=np.full((2, 2), bad + 0j))
    eye = dens([1.0, 1.0])
    for a, b in ((x, eye), (eye, x)):
        with pytest.raises(ValueError, match="finite"):
            is_leq(a, b)
        with pytest.raises(ValueError, match="finite"):
            fidelity(a, b)
        with pytest.raises(ValueError, match="finite"):
            is_orthogonal(a, b)


def test_is_leq_runs_no_eigensolver(monkeypatch):
    """The order is decided by a Cholesky factorization: with both
    eigensolvers made to fail, is_leq still answers."""
    def no_eigensolver(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_eigensolver)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolver)
    a = DensityOperator(matrix=np.diag([0.5, 0.5]).astype(complex))
    b = DensityOperator(matrix=np.diag([1.0, 0.5]).astype(complex))
    p = DensityOperator(matrix=np.diag([1.0, 0.0]).astype(complex))
    q = DensityOperator(matrix=np.full((2, 2), 0.5 + 0j))
    assert is_leq(a, a) and is_leq(a, b) and not is_leq(b, a)
    assert not is_leq(p, q) and not is_leq(q, p)


def test_is_orthogonal_examples():
    assert is_orthogonal(pure_state(np.eye(2)[0]).projection(), pure_state(np.eye(2)[1]).projection())
    assert is_orthogonal(dens([1.0, 0.0, 0.0]), dens([0.0, 2.0, 1.0]))
    assert not is_orthogonal(
        pure_state(np.eye(2)[0]).projection(), pure_state([1.0, 1.0]).projection()
    )


@pytest.mark.parametrize("scale", [1e-300, 1e-9, 1e-6, 1.0, 1e150, 1e160])
def test_is_orthogonal_is_scale_free(scale):
    """sP is not orthogonal to itself and is orthogonal to sQ at every scale
    s, with no warning: the band is relative, so a small operator is not
    orthogonal to everything, and the products of huge ones do not
    overflow."""
    p, q = dens([1.0, 0.0, 0.0]), dens([0.0, 0.6, 0.4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sp, sq = (DensityOperator(matrix=scale * x.matrix) for x in (p, q))
        assert not is_orthogonal(sp, sp)
        assert is_orthogonal(sp, sq) and is_orthogonal(sq, sp)


def test_zero_operator_conventions():
    zero = validate_density(np.zeros((2, 2)))
    b = dens([0.5, 0.5])
    assert fidelity(zero, b) == pytest.approx(0.0, abs=1e-12)
    assert is_orthogonal(zero, b)


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_symmetry_property(d):
    rng = np.random.default_rng(d)
    for _ in range(10):
        a = random_density(rng, d)
        b = random_density(rng, d)
        assert abs(fidelity(a, b) - fidelity(b, a)) <= 1e-8


@pytest.mark.parametrize("d", [2, 4, 8])
def test_projection_quadratic_form(d):
    rng = np.random.default_rng(20 + d)
    for _ in range(10):
        a = random_density(rng, d)
        x = random_pure_state(rng, d)
        expected = np.sqrt(
            np.vdot(x.amplitudes, a.matrix @ x.amplitudes).real.clip(0)
        )
        assert fidelity(a, x.projection()) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_monotonicity_property(d):
    rng = np.random.default_rng(30 + d)
    for _ in range(10):
        a = random_density(rng, d)
        diff = random_density(rng, d)
        b = validate_density(a.matrix + diff.matrix)
        c = random_density(rng, d)
        assert fidelity(a, c) <= fidelity(b, c) + 1e-9


@pytest.mark.parametrize("d", [2, 4, 8])
def test_unitary_and_conjugation_invariance(d):
    rng = np.random.default_rng(40 + d)
    for _ in range(10):
        a = random_density(rng, d)
        b = random_density(rng, d)
        f = fidelity(a, b)
        u = haar_unitary(rng, d)
        au = validate_density(u @ a.matrix @ u.conj().T)
        bu = validate_density(u @ b.matrix @ u.conj().T)
        assert abs(fidelity(au, bu) - f) <= 1e-9
        ac = validate_density(a.matrix.conj())
        bc = validate_density(b.matrix.conj())
        assert abs(fidelity(ac, bc) - f) <= 1e-9


@pytest.mark.parametrize("d", [2, 4, 8])
def test_partial_chain(d):
    rng = np.random.default_rng(50 + d)
    a = random_density(rng, d)
    b = random_density(rng, d)
    values = [partial_fidelity(a, b, m) for m in range(1, d + 1)]
    assert all(hi - lo >= -1e-12 for lo, hi in zip(values, values[1:]))
    assert values[-1] == pytest.approx(fidelity(a, b), abs=1e-12)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_weyl_monotonicity(d):
    rng = np.random.default_rng(60 + d)
    for _ in range(10):
        a = random_density(rng, d)
        diff = random_density(rng, d)
        b = validate_density(a.matrix + diff.matrix)
        wa = np.linalg.eigvalsh(a.matrix)[::-1]
        wb = np.linalg.eigvalsh(b.matrix)[::-1]
        assert np.all(wa <= wb + 1e-9)


def test_orthogonality_iff_zero_fidelity():
    rng = np.random.default_rng(70)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        if rng.uniform() < 0.5:
            # disjoint-support pair: orthogonal by construction
            k = int(rng.integers(1, d))
            a = validate_density(np.diag(np.concatenate([rng.uniform(0.1, 1, k), np.zeros(d - k)])))
            b = validate_density(np.diag(np.concatenate([np.zeros(k), rng.uniform(0.1, 1, d - k)])))
        else:
            a = random_density(rng, d)
            b = random_density(rng, d)
        assert is_orthogonal(a, b) == (fidelity(a, b) <= 1e-8)


def test_order_via_projection_probes():
    rng = np.random.default_rng(80)
    d = 3
    probes = [random_pure_state(rng, d).projection() for _ in range(50 * d)]
    for trial in range(10):
        a = random_density(rng, d)
        if trial % 2 == 0:
            b = validate_density(a.matrix + random_density(rng, d).matrix)
        else:
            b = random_density(rng, d)
        probe_leq = all(
            fidelity(a, p) <= fidelity(b, p) + 1e-9 for p in probes
        )
        if is_leq(a, b):
            assert probe_leq
        if not probe_leq:
            assert not is_leq(a, b)
