"""Tests for the Hermitian substrate: eigendecomposition, PSD square roots,
density validation, phase canonicalization."""
import dataclasses

import numpy as np
import pytest

from fidsym.matcore import (
    DensityOperator,
    NotNormalized,
    NotPositive,
    eig_hermitian,
    from_psd_stack,
    hermitize,
    normalize_phase,
    pure_state,
    sqrtm_psd,
    validate_density,
)

# accuracy bound on eigendecompositions
EIG_TOL = 1e-9


def test_eig_diagonal_sorted_descending():
    spec = eig_hermitian(np.diag([1.0, 3.0]))
    assert np.allclose(spec.eigenvalues, [3.0, 1.0])
    # eigenvectors paired with the sorted eigenvalues: e2 first, then e1
    assert np.allclose(np.abs(spec.eigenvectors[:, 0]), [0.0, 1.0])
    assert np.allclose(np.abs(spec.eigenvectors[:, 1]), [1.0, 0.0])


def test_eig_pauli_x():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    spec = eig_hermitian(m)
    assert np.allclose(spec.eigenvalues, [1.0, -1.0])
    rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
    assert np.linalg.norm(rebuilt - m) <= EIG_TOL * (1 + np.linalg.norm(m))


def test_eig_identity():
    spec = eig_hermitian(np.eye(5))
    assert np.allclose(spec.eigenvalues, 1.0)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
@pytest.mark.parametrize("trial", range(5))
def test_eig_reconstruction_residual(d, trial):
    rng = np.random.default_rng(100 * d + trial)
    m = hermitize(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    spec = eig_hermitian(m)
    rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
    assert np.linalg.norm(rebuilt - m) <= EIG_TOL * (1 + np.linalg.norm(m))
    v = spec.eigenvectors
    assert np.linalg.norm(v.conj().T @ v - np.eye(d)) <= EIG_TOL
    assert np.all(np.diff(spec.eigenvalues) <= 0)


def test_sqrt_diagonal():
    a = validate_density(np.diag([4.0, 9.0]))
    r = sqrtm_psd(a.matrix)
    assert np.allclose(r, np.diag([2.0, 3.0]))


def test_sqrt_projection_is_fixed_point():
    p = pure_state([1.0, 1j]).projection()
    r = sqrtm_psd(validate_density(p.matrix).matrix)
    assert np.allclose(r, p.matrix)


def test_sqrt_hand_example():
    a = validate_density(np.array([[2.0, 1.0], [1.0, 2.0]]))
    r = sqrtm_psd(a.matrix)
    assert np.linalg.norm(r @ r - a.matrix) <= 1e-8 * (1 + a.norm())
    w = np.sort(np.linalg.eigvalsh(r))
    assert np.allclose(w, [1.0, np.sqrt(3.0)])


def test_sqrt_monotone_on_commuting_diagonals():
    a = validate_density(np.diag([0.1, 0.4, 0.9]))
    b = validate_density(np.diag([0.3, 0.5, 1.6]))
    ra, rb = sqrtm_psd(a.matrix), sqrtm_psd(b.matrix)
    assert np.all(np.diag(ra).real <= np.diag(rb).real + 1e-12)


def test_validate_accepts_unit_trace():
    d = validate_density(np.diag([0.5, 0.5]), require_unit_trace=True)
    assert d.trace == pytest.approx(1.0)


def test_validate_rejects_negative():
    with pytest.raises(NotPositive):
        validate_density(np.diag([1.0, -0.2]))


def test_validate_clips_tolerance_band():
    d = validate_density(np.diag([1.0 + 1e-15, -1e-15]), require_unit_trace=True)
    w = np.linalg.eigvalsh(d.matrix)
    assert w[0] >= 0.0


def test_validate_unit_trace_check():
    with pytest.raises(NotNormalized):
        validate_density(np.diag([0.5, 0.4]), require_unit_trace=True)


def test_hermitize_zeroes_diagonal_imag():
    m = hermitize(np.array([[1.0 + 0.5j, 2.0], [0.0, 3.0 - 1j]]))
    assert np.all(np.diag(m).imag == 0.0)
    assert np.array_equal(m, m.conj().T)


def test_phase_canonicalization_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        once = normalize_phase(v / np.linalg.norm(v))
        twice = normalize_phase(once)
        assert np.array_equal(once, twice)


def test_pure_state_leading_component_real_positive():
    s = pure_state([1j, 1.0])
    lead = s.amplitudes[0]
    assert lead.imag == pytest.approx(0.0, abs=1e-15)
    assert lead.real > 0
    assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0)


def test_density_operator_holds_only_its_matrix():
    assert tuple(f.name for f in dataclasses.fields(DensityOperator)) == ("matrix",)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
def test_trace_is_the_matrix_trace_bit_for_bit(d):
    """Whatever built the operator, its trace is np.trace(matrix).real."""
    rng = np.random.default_rng(d)
    g = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
    psd = g @ g.conj().swapaxes(-1, -2)
    ops = [DensityOperator.from_psd(psd[0]), *from_psd_stack(psd),
           validate_density(psd[1]), DensityOperator(matrix=psd[2])]
    for a in ops:
        assert isinstance(a.trace, float)
        assert a.trace.hex() == float(np.trace(a.matrix).real).hex()
