"""Fidelity on density operators and reconstruction of fidelity-preserving
symmetries."""

from .matcore import (
    DensityOperator,
    DimensionMismatch,
    NotPositive,
    PureState,
    SolverFailure,
    eig_hermitian,
    pure_state,
    validate_density,
)
from .fidelity import fidelity, is_leq, is_orthogonal
from .charact import (
    OrthogonalCertificate,
    CertificateFailure,
    is_rank_one,
    is_rank_one_projection,
    order_totality_probe,
    rank_one_certificate,
)
from .wigner import (
    DensityMapOracle,
    ReconstructionReport,
    SymmetryOperator,
    apply_symmetry,
    extend_normalized,
    reconstruct,
    symmetry_distance,
    symmetry_oracle,
)
from .mapzoo import ClassificationReport, MapSpec, classify_map, make_map, verify_theorem

__version__ = "0.1.0"
