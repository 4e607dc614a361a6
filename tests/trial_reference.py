"""References for wigner._trial_pairs, whose pairs verify a candidate in
reconstruct and classify_map alike: make the draws in their RNG order, then
build and wrap one pair at a time with single-matrix code, so that the
stacked construction and its indexing are checked bit for bit; and the
sizes of the calls in which the scan hands its inputs to the oracle,
computed from the stated schedule alone; and the image that verification
expects of each input."""
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


def reference_trial_pairs(rng, d, count, vectors=False):
    """``count`` trial pairs as a list of (DensityOperator, DensityOperator);
    at d = 1 every pair is mixed, and no kinds are drawn. With ``vectors``,
    also the list of their (v_A, v_B): the unit vector v of a pure input
    vv*, None for a mixed one."""
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

    pairs, units, m, p, o = [], [], 0, 0, 0
    for r in kinds:
        if r < 0.4:
            pairs.append(tuple(density(mixed[m, j], ranks[m, j], traces[m, j]) for j in range(2)))
            units.append((None, None))
            m += 1
        elif r < 0.8:
            units.append(tuple(v / np.linalg.norm(v, axis=-1) for v in pure[p]))
            pairs.append(tuple(projection(v) for v in units[-1]))
            p += 1
        else:
            u = haar(square[o])
            units.append((u[:, 0], u[:, 1]))
            pairs.append(tuple(projection(v) for v in units[-1]))
            o += 1
    return (pairs, units) if vectors else pairs


def reference_expected(s, x, v):
    """The image that verification expects of trial input ``x`` under the
    symmetry ``s``, one matrix at a time: for a pure input with unit vector
    ``v``, (P + P*)/2 for P = yy* and y = Uv (U conj(v) if antiunitary); for
    a mixed one (``v`` None), apply_symmetry's."""
    if v is None:
        return wigner.apply_symmetry(s, x).matrix
    y = s.u @ (v.conj() if s.parity == wigner.ANTIUNITARY else v)
    p = np.outer(y, y.conj())
    return (p + p.conj().T) / 2


def input_calls(count, d, through=None):
    """The inputs that each scoring group hands the oracle when a scan reads
    the first ``count`` inputs A_1, B_1, A_2, ... at dimension d: two per
    pair of group_calls(ceil(count / 2), d), the last group cut to the
    inputs left. With ``through``, only the groups up to the one that holds
    input ``through`` (from 1)."""
    calls = [2 * n for n in group_calls(-(-count // 2), d, through and -(-through // 2))]
    calls[-1] -= max(0, sum(calls) - count)
    return calls


def reference_inputs(seed, d, count, vectors=False):
    """The first ``count`` inputs A_1, B_1, A_2, ... of the trial pairs of
    ``default_rng(seed)`` at dimension d, drawn in whole blocks of
    stack_size(d) pairs, as a (count, d, d) array: the inputs on which
    ``reconstruct(oracle, count, seed)`` verifies its candidate. With
    ``vectors``, also the list of their unit vectors, None for a mixed input."""
    rng, pairs, units = np.random.default_rng(seed), [], []
    while 2 * len(pairs) < count:
        block, block_units = reference_trial_pairs(rng, d, stack_size(d), vectors=True)
        pairs, units = pairs + block, units + block_units
    inputs = np.array([x.matrix for pair in pairs for x in pair][:count])
    return (inputs, [v for pair in units for v in pair][:count]) if vectors else inputs
