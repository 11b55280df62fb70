"""Exact Tate spectral sequence engine and duality shift calculator at
height n = p - 1."""

from .chart_render import ChartSpec, diff_overlay, render
from .duality_shifts import (
    ShiftReport,
    periodicity,
    shift_det_route,
    shift_dual_route,
    shifts_table,
    verify_tate_vanishing,
)
from .errors import (
    InvalidInput,
    ResourceGuard,
    RouteDisagreement,
    TatedualError,
    VerificationFailure,
)
from .mod_arith import (
    HeightParams,
    congruence_check,
    det_tau_exponent,
    height_params,
    invariant_delta_exponent,
    invariant_delta_residue,
)
from .tate_engine import (
    DualSequence,
    MonomialClass,
    Page,
    SequenceRecord,
    e2_page,
    hfpss_view,
    hoss_view,
    run_to_einfty,
    turn_page,
)

__version__ = "0.1.0"

# cp_rep loads numpy; these names are resolved on first access, so the
# commands that do no linear algebra start without it
_CP_REP_NAMES = (
    "CpModule", "JordanProfile", "TateDims", "freeness_by_degree", "freeness_check",
    "jordan_decompose", "symmetric_power", "tate_cohomology", "u_k_module",
)


def __getattr__(name):
    if name in _CP_REP_NAMES:
        from . import cp_rep

        return getattr(cp_rep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
