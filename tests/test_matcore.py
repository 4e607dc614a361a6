"""Tests for the Hermitian substrate: eigendecomposition, PSD square roots,
density validation, phase canonicalization."""
import dataclasses
import warnings

import numpy as np
import pytest

from fidsym.charact import numerical_rank, rank_one_certificate
from fidsym.fidelity import fidelity
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
    validate_stack,
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
    assert np.linalg.norm(r @ r - a.matrix) <= 1e-8 * (1 + np.linalg.norm(a.matrix))
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


@pytest.mark.parametrize("scale", [1e150, 1e160, 1e300])
def test_validate_rejects_a_huge_negative_eigenvalue(scale):
    """The band is scaled by the 2-norm of the spectrum, which stays finite
    where the sum of squares overflows, so the check is not switched off."""
    with pytest.raises(NotPositive):
        validate_density(np.diag([scale, -scale]))


@pytest.mark.parametrize("scale", [1e150, 1e160, 1e300])
def test_validate_accepts_a_huge_psd_matrix_without_warning(scale):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = validate_density(scale * np.eye(2))
    assert np.allclose(a.matrix, scale * np.eye(2), rtol=1e-12, atol=0.0)


def test_validate_clips_tolerance_band():
    d = validate_density(np.diag([1.0 + 1e-15, -1e-15]), require_unit_trace=True)
    w = np.linalg.eigvalsh(d.matrix)
    assert w[0] >= 0.0


SCALES = [1e-300, 1e-200, 1e-100, 1e-12, 1e-9, 1.0, 1e9, 1e100, 1e200, 1e300]


@pytest.mark.parametrize("scale", SCALES)
def test_validate_band_is_relative_at_every_scale(scale):
    """The band is PSD_TOL times the spectrum's own norm, with no absolute
    floor: s * diag(1, -0.5) is rejected and the rounding-sized
    s * diag(1 + 1e-15, -1e-15) is clipped, at every s."""
    with pytest.raises(NotPositive):
        validate_density(scale * np.diag([1.0, -0.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = validate_density(scale * np.diag([1.0 + 1e-15, -1e-15]))
    assert np.linalg.eigvalsh(a.matrix)[0] >= 0.0


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


def test_every_runtime_warning_is_an_error():
    """pyproject.toml turns every RuntimeWarning into an error for the whole
    suite, so the overflow and underflow tests here and in test_kernel.py
    need no marker of their own, and every DeprecationWarning and
    FutureWarning too, so a deprecated numpy call fails before it breaks;
    this fails if one of those filters is lost."""
    with pytest.raises(RuntimeWarning, match="overflow"):
        np.float64(1e308) * 10
    for category in (DeprecationWarning, FutureWarning):
        with pytest.raises(category, match="deprecated"):
            warnings.warn("deprecated", category)


def test_pure_state_normalizes_a_vector_whose_norm_overflows():
    """A finite vector whose norm overflows still gives a unit state, the
    one of the same vector scaled into range."""
    for v in ([1e308, 1e308], [1.7e308, -1.7e308j, 1.0], [1e200, 1e300j]):
        s = pure_state(v)
        assert np.all(np.isfinite(s.amplitudes)), v
        assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-15), v
        assert np.allclose(s.amplitudes, pure_state(np.array(v) * 1e-300).amplitudes,
                           rtol=0.0, atol=1e-15), v


@pytest.mark.parametrize("v", [[np.nan, 1.0], [1.0, np.inf], [1.0, complex(0.0, -np.inf)],
                               [np.nan, 1e308]])
def test_pure_state_rejects_non_finite_entries(v):
    with pytest.raises(ValueError, match="finite"):
        pure_state(v)


def test_pure_state_keeps_the_bits_of_a_finite_norm():
    """Away from overflow pure_state is normalize_phase(v / ||v||), bit for bit."""
    rng = np.random.default_rng(8)
    for scale in (1.0, 1e-3, 1e150):
        v = (rng.normal(size=5) + 1j * rng.normal(size=5)) * scale
        want = normalize_phase(v / np.linalg.norm(v))
        assert pure_state(v).amplitudes.tobytes() == want.tobytes()


def test_pure_state_is_scale_free():
    """pure_state(s v) is pure_state(v) for s from 1e-300 to 1e300, also
    where the sum of squares underflows to zero or to a subnormal."""
    rng = np.random.default_rng(9)
    for d in (1, 2, 5):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        want = pure_state(v).amplitudes
        for k in range(-300, 301):
            got = pure_state(v * 10.0 ** k).amplitudes
            assert np.max(np.abs(got - want)) <= 1e-15, (d, k)


@pytest.mark.parametrize("v", [[1e-13, 0.0], [1e-200, 1e-200], [0.0, 5e-324j], [1e-160, -1e-170j]])
def test_pure_state_normalizes_a_tiny_nonzero_vector(v):
    s = pure_state(v)
    assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-15), v
    assert np.allclose(s.amplitudes, pure_state(np.array(v) * 1e150).amplitudes,
                       rtol=0.0, atol=1e-15), v


@pytest.mark.parametrize("v", [[0.0], [0.0, 0.0], [0.0, -0.0j, 0.0], []])
def test_pure_state_rejects_the_zero_vector(v):
    with pytest.raises(ValueError, match="zero vector"):
        pure_state(v)


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


M3 = np.array([[0.5, 0.1j, 0.1], [-0.1j, 0.3, 0.0], [0.1, 0.0, 0.2]])
V3 = np.array([1.0, 1j, 2.0])

# every array that matcore hands out frozen, keyed by where it comes from
READ_ONLY = {
    "hermitize": lambda: hermitize(M3),
    "from_psd": lambda: DensityOperator.from_psd(M3).matrix,
    "from_psd_stack": lambda: from_psd_stack(np.stack([M3, M3.T]))[1].matrix,
    "validate_density": lambda: validate_density(M3).matrix,
    "validate_stack": lambda: validate_stack(np.stack([M3, M3.T]))[1].matrix,
    "projection": lambda: pure_state(V3).projection().matrix,
    "witness": lambda: rank_one_certificate(pure_state(V3).projection()).witnesses[1].matrix,
    "eigenvalues": lambda: eig_hermitian(M3).eigenvalues,
    "eigenvectors": lambda: eig_hermitian(M3).eigenvectors,
}


@pytest.mark.parametrize("make", READ_ONLY.values(), ids=READ_ONLY)
def test_arrays_stay_read_only(make):
    """An entry cannot be written, and the array cannot be made writeable
    again: it is a row of an array that was frozen where it was made."""
    x = make()
    with pytest.raises(ValueError):
        x[(0,) * x.ndim] = 0.0
    with pytest.raises(ValueError):
        x.flags.writeable = True


SINGLE_MATRIX = {
    "hermitize": hermitize,
    "from_psd": DensityOperator.from_psd,
    "eig_hermitian": eig_hermitian,
    "validate_density": validate_density,
    "sqrtm_psd": sqrtm_psd,
}


@pytest.mark.parametrize("m", [np.ones((3, 4)), np.ones(3), np.eye(3)[None]],
                         ids=["3x4", "vector", "stack_of_one"])
@pytest.mark.parametrize("f", SINGLE_MATRIX.values(), ids=SINGLE_MATRIX)
def test_single_matrix_functions_reject_other_shapes(f, m):
    with pytest.raises(ValueError, match="square"):
        f(m)


def test_a_zero_by_zero_matrix_is_an_input_error():
    """d = 0 holds no operator: each path through the one shape check raises
    its ValueError, not an IndexError or an empty spectrum."""
    empty = np.zeros((0, 0))
    op = DensityOperator(matrix=empty.astype(complex))
    for call in (lambda: validate_density(empty), lambda: eig_hermitian(empty),
                 lambda: numerical_rank(op), lambda: fidelity(op, op)):
        with pytest.raises(ValueError, match="dim >= 1"):
            call()
