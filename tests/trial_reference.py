"""References for mapzoo._trial_pairs and for wigner.reconstruct's
verification inputs: make the draws in their RNG order, then build and wrap
one matrix or pair at a time with single-matrix code, so that the stacked
construction and its indexing are checked bit for bit; and the sizes of the
calls in which both scans hand their inputs to the oracle, computed from
the stated schedule alone."""
import numpy as np

from fidsym import mapzoo
from fidsym.matcore import DensityOperator


def stack_size(d):
    """Trial pairs per classify_map block, and matrices per side of one
    stack, at dimension d; read at call time, so a monkeypatched
    mapzoo.TRIAL_STACK_ENTRIES applies."""
    return max(1, mapzoo.TRIAL_STACK_ENTRIES // (d * d))


def group_calls(count, d, through=None):
    """The inputs (for classify_map, the pairs) that each scoring group of
    ``count`` hands the oracle at dimension d: draw blocks of stack_size(d),
    scored in groups of 1, 2, 4, ... blocks, each group at most
    4 * TRIAL_STACK_ENTRIES entries per side but at least one block, the last
    cut to what is left. With ``through``, only the groups up to the one
    that holds input ``through`` (from 1)."""
    size = stack_size(d)
    cap = max(1, 4 * mapzoo.TRIAL_STACK_ENTRIES // (size * d * d))
    calls, blocks = [], 1
    while sum(calls) < min(count, through or count):
        calls.append(min(blocks * size, count - sum(calls)))
        blocks = min(2 * blocks, cap)
    return calls


def reference_trial_pairs(rng, d, count):
    """``count`` trial pairs as a list of (DensityOperator, DensityOperator)."""
    kinds = rng.uniform(size=count)
    n_mixed = int(np.sum(kinds < 0.4))
    n_pure = int(np.sum((kinds >= 0.4) & (kinds < 0.8)))
    traces = rng.uniform(0.0, 2.0, size=(n_mixed, 2))
    ranks = rng.integers(1, d + 1, size=(n_mixed, 2))
    # every Ginibre block draws all its real parts, then all imaginary parts
    re = rng.normal(size=(n_mixed, 2, d, ranks.max(initial=1)))
    mixed = re + 1j * rng.normal(size=re.shape)
    re = rng.normal(size=(n_pure, 2, d))
    pure = re + 1j * rng.normal(size=re.shape)
    re = rng.normal(size=(count - n_mixed - n_pure, d, d))
    square = re + 1j * rng.normal(size=re.shape)

    def density(g, rank, trace):
        g = g.copy()
        g[:, rank:] = 0.0
        a = g @ g.conj().T
        return DensityOperator.from_psd(a * ((float(trace) or 1.0) / np.trace(a).real))

    def projection(v):
        return DensityOperator.from_psd(np.outer(v, v.conj()))

    def haar(z):
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r)
        return q * (diag / np.abs(diag))

    pairs, m, p, o = [], 0, 0, 0
    for r in kinds:
        if r < 0.4:
            pairs.append(tuple(density(mixed[m, j], ranks[m, j], traces[m, j]) for j in range(2)))
            m += 1
        elif r < 0.8:
            pairs.append(tuple(projection(v / np.linalg.norm(v, axis=-1)) for v in pure[p]))
            p += 1
        else:
            u = haar(square[o])
            pairs.append((projection(u[:, 0]), projection(u[:, 1])))
            o += 1
    return pairs


def reference_verification_inputs(seed, d, trials):
    """The ``trials`` verification inputs of ``reconstruct(oracle,
    trials, seed)`` at dimension d, as a (trials, d, d) array: every trace,
    then every rank, then per stack of stack_size(d) one Ginibre block of
    (d, r_max) columns, r_max the stack's largest rank; each row is then
    built alone from its zero-padded slice."""
    rng = np.random.default_rng(seed + 1)
    traces = rng.uniform(0.0, 2.0, size=trials)
    ranks = rng.integers(1, d + 1, size=trials)
    size = stack_size(d)
    inputs = []
    for start in range(0, trials, size):
        stack_ranks = ranks[start:start + size]
        re = rng.normal(size=(len(stack_ranks), d, stack_ranks.max()))
        block = re + 1j * rng.normal(size=re.shape)
        for x, rank, trace in zip(block, stack_ranks, traces[start:start + size]):
            x = x.copy()
            x[:, rank:] = 0.0
            a = x @ x.conj().T
            inputs.append(DensityOperator.from_psd(
                a * ((float(trace) or 1.0) / np.trace(a).real)).matrix)
    return np.array(inputs)
