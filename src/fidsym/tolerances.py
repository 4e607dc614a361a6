"""Every numerical tolerance of fidsym, defined once.

The library modules import their tolerances from here, and every CLI report
writes this table under lower-case names, so a report states the tolerances
that produced it. The rule that decides a verdict has less than one digit of
headroom at d = 64: on 12 certified Haar symmetries (U from seeds 100-105,
both parities, 200 trials) residual_max is at most 0.26 of
wigner.residual_bound(64), and worst_violation at most 0.31 of CLASSIFY_TOL.
"""
from __future__ import annotations

# eigenvalues down to -PSD_TOL * ||M||_F, a band relative at every scale, are rounding: clipped to 0
PSD_TOL = 1e-10
# a trace within TRACE_TOL of 1 is a unit trace
TRACE_TOL = 1e-9
# vector components of modulus at most PHASE_TOL are zero when picking the phase pivot
PHASE_TOL = 1e-12
# eigenvalues below EIG_FLOOR times the largest are rounding noise; sqrt would amplify them to ~1e-8
EIG_FLOOR = 1e-14
# eigenvalues above RANK_TOL times the largest count toward the numerical rank
RANK_TOL = 1e-8
# A <= B when B - A + ORDER_TOL * (1 + ||B - A||_F) I, B - A shifted by the band on its
# diagonal, is positive definite: B - A may dip that far below zero
ORDER_TOL = 1e-8
# ||AB||_F at most ORTH_TOL * ||A||_F ||B||_F counts as AB = 0, a band relative at every scale
ORTH_TOL = 1e-8
# ||U*U - 1||_F at most UNITARY_TOL makes a map spec's U unitary
UNITARY_TOL = 1e-9
# the largest |F(phi A, phi B) - F(A, B)| a fidelity-preserving map may show, measured by
# fidelity_stack or bounded by wigner.violation_bound; wigner.residual_bound derives the image rule
CLASSIFY_TOL = 1e-6


def table() -> dict[str, float]:
    """The tolerances by lower-case name, as written into reports."""
    return {name.lower(): value for name, value in globals().items() if name.isupper()}
