"""Every numerical tolerance of fidsym, defined once.

The library modules import their tolerances from here, and every CLI report
writes this table under lower-case names, so a report states the tolerances
that produced it. Double precision with d <= 64 leaves at least five digits
of headroom under each of them.
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
# an operator whose trace or largest eigenvalue is at most CERT_TOL is numerically zero
CERT_TOL = 1e-12
# A <= B when B - A + ORDER_TOL * (1 + ||B - A||_F) I, B - A shifted by the band on its
# diagonal, is positive definite: B - A may dip that far below zero
ORDER_TOL = 1e-8
# ||AB||_F at most ORTH_TOL * ||A||_F ||B||_F counts as AB = 0, a band relative at every scale
ORTH_TOL = 1e-8
# a residual ||phi(A) - S(A)||_F against the candidate symmetry S may reach
# CERTIFY_TOL * (1 + ||A||_F): on verification inputs and, at ||vv*||_F = 1, on every probe vv*
CERTIFY_TOL = 1e-7
# ||U*U - 1||_F at most UNITARY_TOL makes a map spec's U unitary
UNITARY_TOL = 1e-9
# the largest |F(phi A, phi B) - F(A, B)| a fidelity-preserving map may show: measured by
# fidelity_stack, or, for a map that certifies, bounded by mapzoo.violation_bound
CLASSIFY_TOL = 1e-6


def table() -> dict[str, float]:
    """The tolerances by lower-case name, as written into reports."""
    return {name.lower(): value for name, value in globals().items() if name.isupper()}
