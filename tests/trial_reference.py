"""References for wigner._trial_pairs, whose pairs verify a candidate in
reconstruct and classify_map alike: make the draws in their RNG order, then
build and wrap one pair at a time with single-matrix code, so that the
stacked construction and its indexing are checked bit for bit; and the
sizes of the calls in which the scan hands its inputs to the oracle,
computed from the stated schedule alone."""
import numpy as np

from fidsym import wigner
from fidsym.matcore import DensityOperator


def stack_size(d):
    """Trial pairs per classify_map block, and matrices per side of one
    stack, at dimension d; read at call time, so a monkeypatched
    wigner.TRIAL_STACK_ENTRIES applies."""
    return max(1, wigner.TRIAL_STACK_ENTRIES // (d * d))


def group_calls(count, d, through=None):
    """The pairs that each scoring group of ``count`` pairs hands the oracle
    at dimension d: draw blocks of stack_size(d),
    scored in groups of 1, 2, 4, ... blocks, each group at most
    4 * TRIAL_STACK_ENTRIES entries per side but at least one block, the last
    cut to what is left. With ``through``, only the groups up to the one
    that holds pair ``through`` (from 1)."""
    size = stack_size(d)
    cap = max(1, 4 * wigner.TRIAL_STACK_ENTRIES // (size * d * d))
    calls, blocks = [], 1
    while sum(calls) < min(count, through or count):
        calls.append(min(blocks * size, count - sum(calls)))
        blocks = min(2 * blocks, cap)
    return calls


def reference_trial_pairs(rng, d, count):
    """``count`` trial pairs as a list of (DensityOperator, DensityOperator);
    at d = 1 every pair is mixed, and no kinds are drawn."""
    kinds = rng.uniform(size=count) if d > 1 else np.zeros(count)
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


def input_calls(count, d, through=None):
    """The inputs that each scoring group hands the oracle when a scan reads
    the first ``count`` inputs A_1, B_1, A_2, ... at dimension d: two per
    pair of group_calls(ceil(count / 2), d), the last group cut to the
    inputs left. With ``through``, only the groups up to the one that holds
    input ``through`` (from 1)."""
    calls = [2 * n for n in group_calls(-(-count // 2), d, through and -(-through // 2))]
    calls[-1] -= max(0, sum(calls) - count)
    return calls


def reference_inputs(seed, d, count):
    """The first ``count`` inputs A_1, B_1, A_2, ... of the trial pairs of
    ``default_rng(seed)`` at dimension d, drawn in whole blocks of
    stack_size(d) pairs, as a (count, d, d) array: the inputs on which
    ``reconstruct(oracle, count, seed)`` verifies its candidate."""
    rng, pairs = np.random.default_rng(seed), []
    while 2 * len(pairs) < count:
        pairs += reference_trial_pairs(rng, d, stack_size(d))
    return np.array([x.matrix for pair in pairs for x in pair][:count])
