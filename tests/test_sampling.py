"""Random density operators are PSD by construction: random_density wraps
the drawn GG* without an eigendecomposition, and what it returns must still
pass everything validation would check."""
import numpy as np
import pytest

from fidsym.charact import spectral_rank
from fidsym.matcore import hermitize
from fidsym.sampling import (
    density_stack,
    ginibre,
    haar_stack,
    haar_unitary,
    random_density,
)
from fidsym.tolerances import PSD_TOL, TRACE_TOL


def reference_density(rng, d, rank=None, trace=None):
    """One GG* built alone, in random_density's draw order: the rank (if
    None), then a (d, rank) Ginibre block; rescaled to ``trace`` if given."""
    if rank is None:
        rank = int(rng.integers(1, d + 1))
    g = ginibre(rng, (d, rank))
    a = g @ g.conj().T
    return a if trace is None else a * (trace / np.trace(a).real)


@pytest.mark.parametrize("shape", [5, (0, 3, 3), (1, 32, 16), (7, 2, 3), (200, 4, 4)])
@pytest.mark.parametrize("seed", range(4))
def test_ginibre_is_real_block_plus_i_times_imaginary_block(shape, seed):
    """The same bytes, dtype and shape as the sum of the two normal blocks,
    and the generator left in the same state."""
    rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    got = ginibre(rng, shape)
    want = ref_rng.normal(size=shape) + 1j * ref_rng.normal(size=shape)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("d", [1, 2, 3, 8, 32, 64])
def test_random_density_is_psd_by_construction(d):
    for rank in range(1, d + 1):
        for k, trace in enumerate((None, 1.0, 1e-3, 2.0)):
            seed = 1000 * d + 10 * rank + k
            drawn = np.random.default_rng(seed)
            raw = reference_density(drawn, d, rank, trace)
            rng = np.random.default_rng(seed)
            a = random_density(rng, d, rank, trace)
            case = (d, rank, trace)
            assert rng.bit_generator.state == drawn.bit_generator.state, case
            m = a.matrix
            assert np.array_equal(m, m.conj().T), case
            w = np.linalg.eigvalsh(m)[::-1]
            assert w[-1] >= -PSD_TOL * np.linalg.norm(m), case
            target = np.trace(raw).real if trace is None else trace
            assert abs(a.trace - target) <= TRACE_TOL, case
            assert a.trace == np.trace(m).real, case
            if rank < d:
                assert spectral_rank(w) == rank, case


def test_random_density_draws_rank_when_none():
    """With rank None the rank is drawn first, from the same stream."""
    drawn = np.random.default_rng(7)
    raw = reference_density(drawn, 5)
    rng = np.random.default_rng(7)
    a = random_density(rng, 5)
    assert rng.bit_generator.state == drawn.bit_generator.state
    assert np.array_equal(a.matrix, (raw + raw.conj().T) / 2)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 32, 64])
def test_haar_stack_rows_equal_haar_unitary(d):
    """haar_unitary is the n = 1 case of haar_stack; a stack of Ginibre
    matrices drawn one by one gives the unitaries haar_unitary draws."""
    one = np.random.default_rng(d)
    expected = [haar_unitary(one, d) for _ in range(5)]
    rng = np.random.default_rng(d)
    got = haar_stack(np.stack([ginibre(rng, (d, d)) for _ in range(5)]))
    assert rng.bit_generator.state == one.bit_generator.state
    for u, w in zip(got, expected):
        assert u.tobytes() == w.tobytes()


@pytest.mark.parametrize("d", [3, 8, 32, 64])
@pytest.mark.parametrize("n", [0, 1, 7])
def test_haar_stack_of_two_columns_is_first_two_of_full(d, n):
    """_trial_pairs orthonormalises only the first two columns of its
    Ginibre block: the same bits as the first two columns of the full
    block's Haar unitaries, also for an empty block."""
    z = ginibre(np.random.default_rng(d + n), (n, d, d))
    got = haar_stack(z[..., :2])
    want = haar_stack(z)[..., :2]
    assert got.shape == want.shape == (n, d, 2)
    assert got.tobytes() == want.tobytes()


def reference_stack(rng, traces, ranks, d):
    """density_stack's rows built one at a time from its (n, d, r) Ginibre
    block, r the largest rank: each row's columns past its rank are zeroed,
    then GG* is rescaled to its trace, or left as drawn if ``traces`` is None."""
    g = ginibre(rng, (len(ranks), d, ranks.max(initial=1)))
    rows = []
    for k, (x, rank) in enumerate(zip(g, ranks)):
        x = x.copy()
        x[:, rank:] = 0.0
        a = x @ x.conj().T
        rows.append(a if traces is None else a * (traces[k] / np.trace(a).real))
    return rows


@pytest.mark.parametrize("d", [1, 2, 3, 8, 32])
@pytest.mark.parametrize("n", [0, 1, 2, 7])
@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("traced", [False, True])
def test_density_stack_matches_rows_built_alone(d, n, full, traced):
    """Row by row the bits of single-matrix code on the same Ginibre block,
    with mixed ranks (zeroed columns) or every rank d (every column kept),
    rescaled to the drawn traces or left as drawn; n = 0 draws nothing and
    gives an empty stack."""
    seed = 100 * d + 10 * n + 2 * full + traced
    rng = np.random.default_rng(seed)
    traces = rng.uniform(0.0, 2.0, size=n)
    ranks = rng.integers(1, d + 1, size=n)
    if full:
        ranks[:] = d
    if not traced:
        traces = None
    before = rng.bit_generator.state
    one = np.random.default_rng()
    one.bit_generator.state = before
    got = density_stack(rng, traces, ranks, d)
    want = reference_stack(one, traces, ranks, d)
    assert rng.bit_generator.state == one.bit_generator.state
    assert (rng.bit_generator.state == before) == (n == 0)
    assert got.shape == (n, d, d)
    for row, a in zip(got, want):
        assert row.tobytes() == a.tobytes()
    if traced:
        assert np.allclose(np.trace(got, axis1=-2, axis2=-1).real, traces, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 32, 64])
def test_random_density_is_the_one_row_case_of_density_stack(d):
    """random_density's matrix is the hermitized row of a one-row
    density_stack, bit for bit, and both leave the generator in the same
    state; with rank None the rank is drawn first."""
    for k, (rank, trace) in enumerate([(None, None), (None, 1.0), (1, 0.5), (d, None), (d, 2.0)]):
        rng = np.random.default_rng(10 * d + k)
        a = random_density(rng, d, rank, trace)
        one = np.random.default_rng(10 * d + k)
        if rank is None:
            rank = int(one.integers(1, d + 1))
        traces = None if trace is None else np.array([trace])
        raw = density_stack(one, traces, np.array([rank]), d)
        assert rng.bit_generator.state == one.bit_generator.state, (d, k)
        assert a.matrix.tobytes() == hermitize(raw[0]).tobytes(), (d, k)


@pytest.mark.parametrize("rank", [2.5, 2.0, True])
def test_random_density_rejects_a_rank_that_is_no_integer_before_any_draw(rank):
    """A float, even an integral one, or a bool is no rank: a ValueError that
    leaves the generator untouched, not a draw of another rank."""
    rng, fresh = np.random.default_rng(4), np.random.default_rng(4)
    with pytest.raises(ValueError, match="rank must be an integer, got"):
        random_density(rng, 4, rank)
    assert rng.bit_generator.state == fresh.bit_generator.state


def test_random_density_reads_a_numpy_integer_rank_as_its_int():
    got = random_density(np.random.default_rng(5), 4, np.int64(2), 1.0)
    assert got.matrix.tobytes() == random_density(np.random.default_rng(5), 4, 2, 1.0).matrix.tobytes()


@pytest.mark.parametrize("rank, trace", [(5, None), (0, 1.0), (2, -1.0)])
def test_random_density_rejects_bad_arguments_before_any_draw(rank, trace):
    """A rank outside 1..dim (5 at d = 3 would give rank 3, 0 a division by
    zero) or a negative trace (negative eigenvalues) raises ValueError and
    leaves the generator untouched, so the next valid call keeps its
    stream."""
    rng, fresh = np.random.default_rng(4), np.random.default_rng(4)
    with pytest.raises(ValueError, match=rf"^(rank must be in 1\.\.3, got {rank}"
                                         rf"|trace must be >= 0, got {trace})$"):
        random_density(rng, 3, rank, trace)
    assert rng.bit_generator.state == fresh.bit_generator.state
    assert random_density(rng, 3).matrix.tobytes() == random_density(fresh, 3).matrix.tobytes()
