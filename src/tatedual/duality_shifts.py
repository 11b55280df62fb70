"""End-to-end computation of the duality suspension shifts.

For each group the shift is read off the dual spectral sequence, whose
differential D(y) -> c D(x) is the recorded pair x -> c y reversed: find the
zero-line cycles for the first differential, check they are spaced one
periodicity apart, and subtract the monochromatic-layer offset n.  For the
semidirect-product groups an independent arithmetic route goes through the
determinant twist: the invariant power of delta identifies the twisted
module with a plain suspension, and periodicity normalizes the answer.

The two routes must agree exactly; a mismatch raises rather than
reconciling silently.
"""

from __future__ import annotations

from collections import namedtuple

from . import tate_engine as eng
from .errors import RouteDisagreement, VerificationFailure
from .mod_arith import GROUPS, HeightParams, invariant_delta_exponent


# Normalized duality shift for one group, with its certificate: the
# zero-line generator class and its internal degree; route is "dual",
# "det" or "both".
ShiftReport = namedtuple("ShiftReport", "group p route shift periodicity certificate certificate_degree")


def periodicity(group: str, params: HeightParams) -> int:
    """Internal degree of the pure periodicity translation of the page
    lattice, the p-th power of delta (resp. of Delta): p t_d."""
    return params.p * eng.grading(eng._family(group), params)[2]


def shift_dual_route(group: str, params: HeightParams) -> ShiftReport:
    """Shift via the dual sequence, read off the recorded run.

    The cycles of the first differential on the dual zero line are
    enumerated over several periods, their spacing is checked, and the
    generator's internal degree t0 gives the shift t0 - n.
    """
    p, n = params.p, params.n
    record = eng.run_to_einfty(group, params)
    per = periodicity(group, params)
    r1 = eng.first_diff_index(params)

    # D(x) sits at (n - 1 - s, 2n - t) for x at (s, t), so the dual zero line
    # holds the duals of the classes at s = n - 1, eps = 1 and i = n/2 - 1;
    # D(x) is a d_r1-cycle iff x is no d_r1-target, and distinct j give
    # distinct internal degrees 2n - t
    cycles = {}
    for j in range(-2 * p, 2 * p):
        x = eng.MonomialClass(1, n // 2 - 1, j, record.family)
        if record.partner(r1, "target", x) is None:
            cycles[2 * n - eng.bidegree(x, params)[1]] = x
    if not cycles:
        raise VerificationFailure("no zero-line cycle found in the dual sequence")

    degrees = sorted(cycles)
    shifts = {(t0 - n) % per for t0 in degrees}
    if len(shifts) != 1:
        raise VerificationFailure(f"ambiguous zero-line generator: shifts {sorted(shifts)}")
    spacings = {b - a for a, b in zip(degrees, degrees[1:])}
    if spacings != {per}:
        raise VerificationFailure(f"zero-line cycles not spaced by the periodicity: {sorted(spacings)}")
    shift = shifts.pop()

    cert_degree = shift + n
    certificate = cycles.get(cert_degree)
    if certificate is None:
        raise VerificationFailure("no certificate class in the enumeration window")
    # the generator is the dual of a class supporting the second differential
    if record.partner(eng.second_diff_index(params), "source", certificate) is None:
        raise VerificationFailure("certificate base does not support the second differential")
    return ShiftReport(
        group=group,
        p=p,
        route="dual",
        shift=shift,
        periodicity=per,
        certificate=f"D({certificate.label()})",
        certificate_degree=cert_degree,
    )


def shift_det_route(group: str, params: HeightParams) -> ShiftReport:
    """Shift via the determinant twist, for the groups that see it.

    The twisted page is free of rank one on the invariant generator d^k y,
    k the invariant power of delta, in internal degree 2p*k; one
    periodicity step 2p*n^2 brings the exponent into normal position and
    the monochromatic offset subtracts n.
    """
    p, n = params.p, params.n
    k = invariant_delta_exponent(params)
    per = periodicity(group, params)
    return ShiftReport(
        group=group,
        p=p,
        route="det",
        shift=(2 * p * n * n + 2 * p * k - n) % per,
        periodicity=per,
        certificate=f"d^{k} y",
        certificate_degree=2 * p * k,
    )


def shift_report(group: str, params: HeightParams, route: str = "both") -> ShiftReport:
    """A single group's report on the requested route(s)."""
    if route == "dual" or group == "Cp":
        return shift_dual_route(group, params)
    if route == "det":
        return shift_det_route(group, params)
    via_dual = shift_dual_route(group, params)
    via_det = shift_det_route(group, params)
    if via_dual.shift != via_det.shift:
        raise RouteDisagreement(
            "shift routes disagree for {}/p={}: dual gives {} via {} (t={}), "
            "det gives {} via {} (t={})".format(
                group,
                params.p,
                via_dual.shift,
                via_dual.certificate,
                via_dual.certificate_degree,
                via_det.shift,
                via_det.certificate,
                via_det.certificate_degree,
            ),
            first=via_dual,
            second=via_det,
        )
    return via_dual._replace(route="both")


def shifts_table(params: HeightParams, route: str = "both") -> dict[str, ShiftReport]:
    """All three groups; both routes where defined, agreement asserted."""
    out: dict[str, ShiftReport] = {}
    for group in GROUPS:
        if group == "Cp" and route == "det":
            continue
        out[group] = shift_report(group, params, route)
    return out
