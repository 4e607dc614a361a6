"""Images that no density operator of dimension 3 is, keyed by test id: the
one table from which the reconstruct and classify_map tests build
misbehaving oracles at d = 3. Each entry maps an input to its bad image."""
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
