"""Random density operators are PSD by construction: random_density wraps
the drawn GG* without an eigendecomposition, and what it returns must still
pass everything validation would check."""
import numpy as np
import pytest

from fidsym.charact import spectral_rank
from fidsym.sampling import draw_density, random_density
from fidsym.tolerances import PSD_TOL, TRACE_TOL


@pytest.mark.parametrize("d", [1, 2, 3, 8, 32, 64])
def test_random_density_is_psd_by_construction(d):
    for rank in range(1, d + 1):
        for k, trace in enumerate((None, 1.0, 1e-3, 2.0)):
            seed = 1000 * d + 10 * rank + k
            drawn = np.random.default_rng(seed)
            raw = draw_density(drawn, d, rank, trace)
            rng = np.random.default_rng(seed)
            a = random_density(rng, d, rank, trace)
            case = (d, rank, trace)
            assert rng.bit_generator.state == drawn.bit_generator.state, case
            m = a.matrix
            assert np.array_equal(m, m.conj().T), case
            w = np.linalg.eigvalsh(m)[::-1]
            assert w[-1] >= -PSD_TOL * max(np.linalg.norm(m), 1.0), case
            target = np.trace(raw).real if trace is None else trace
            assert abs(a.trace - target) <= TRACE_TOL, case
            assert a.trace == np.trace(m).real, case
            if rank < d:
                assert spectral_rank(w) == rank, case


def test_random_density_draws_rank_when_none():
    """With rank None the rank is drawn first, from the same stream."""
    drawn = np.random.default_rng(7)
    raw = draw_density(drawn, 5)
    rng = np.random.default_rng(7)
    a = random_density(rng, 5)
    assert rng.bit_generator.state == drawn.bit_generator.state
    assert np.array_equal(a.matrix, (raw + raw.conj().T) / 2)
