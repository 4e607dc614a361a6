"""Images that no density operator of dimension 3 is, keyed by test id: the
one table from which the reconstruct and classify_map tests build
misbehaving oracles at d = 3. Each entry maps an input to its bad image;
BAD_STACKS below derives from it the bad returns of a stacked oracle."""
import numpy as np

from fidsym.matcore import DensityOperator

BAD_IMAGES = {
    "ones3x4": lambda a: DensityOperator(matrix=np.ones((3, 4), dtype=complex)),
    "eye3x4": lambda a: DensityOperator(matrix=np.eye(3, 4, dtype=complex)),
    "1d": lambda a: DensityOperator(matrix=np.ones(3, dtype=complex)),
    "ndarray": lambda a: a.matrix,
    "none": lambda a: None,
    "1e200": lambda a: DensityOperator(matrix=1e200 * a.matrix),
    "nan": lambda a: DensityOperator(matrix=np.full((3, 3), np.nan, dtype=complex)),
    "proj2x2": lambda a: DensityOperator(matrix=np.diag([1.0, 0.0]).astype(complex)),
    "list": lambda a: DensityOperator(matrix=a.matrix.tolist()),
    "float": lambda a: DensityOperator(matrix=0.5),
    "str": lambda a: DensityOperator(matrix=a.matrix.astype(str)),
    "object": lambda a: DensityOperator(matrix=a.matrix.astype(object)),
    # an ndarray subclass whose * is a matrix product and whose rows stay 2-D
    "matrix": lambda a: DensityOperator(matrix=a.matrix.view(np.matrix)),
}


def _whole_stack(bad):
    """evaluate_stack that applies ``bad`` to a whole (n, 3, 3) stack as if it
    were one matrix and returns the array, or whatever else, it gives."""
    def evaluate_stack(m):
        out = bad(DensityOperator(matrix=m))
        return out.matrix if isinstance(out, DensityOperator) else out
    return evaluate_stack


# Returns of evaluate_stack that no stack of dimension-3 images is, keyed by
# test id: every bad image above applied to the whole stack, except the two
# that are no bad return there (a bare ndarray is the stack rule's good
# return, and np.matrix has no 3-D form), for which a DensityOperator and a
# flattened np.matrix stand in; and a stack one row short.
BAD_STACKS = {
    **{name: _whole_stack(bad) for name, bad in BAD_IMAGES.items()
       if name not in ("ndarray", "matrix")},
    "operator": lambda m: DensityOperator(matrix=m),
    "matrix": lambda m: m.reshape(-1, 3).view(np.matrix),
    "short": lambda m: m[1:],
}
