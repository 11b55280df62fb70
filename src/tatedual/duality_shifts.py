"""End-to-end computation of the duality suspension shifts.

For each group the shift is read off the dual spectral sequence: find the
zero-line cycles for the first differential, check they are spaced one
periodicity apart, and subtract the monochromatic-layer offset n.  For the
semidirect-product groups an independent arithmetic route goes through the
determinant twist: the invariant power of delta identifies the twisted
module with a plain suspension, and periodicity normalizes the answer.

The two routes must agree exactly; a mismatch raises rather than
reconciling silently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import tate_engine as eng
from .errors import InvalidInput, RouteDisagreement, VerificationFailure
from .mod_arith import HeightParams, invariant_delta_exponent


@dataclass(frozen=True)
class ShiftReport:
    """Normalized duality shift for one group, with its certificate: the
    zero-line generator class and its internal degree."""

    group: str
    p: int
    route: str  # "dual" | "det" | "both"
    shift: int
    periodicity: int
    certificate: str
    certificate_degree: int


def periodicity(group: str, params: HeightParams) -> int:
    """Internal degree of the pure periodicity translation of the page
    lattice (the p-th power of delta, resp. of Delta)."""
    page = eng.e2_page(group, params)
    (_, _, _), (di, dj, _) = page.lattice()
    assert di == 0
    probe = eng.MonomialClass(0, 0, 0, page.family)
    _, t0 = eng.bidegree(probe, params)
    _, t1 = eng.bidegree(probe.translate(0, dj), params)
    return t1 - t0


def shift_dual_route(group: str, params: HeightParams) -> ShiftReport:
    """Shift via the dual sequence.

    Zero-line classes of the dual are duals of classes in filtration n - 1;
    the cycles among them (those not hit by the first differential) are
    enumerated over several periods, their spacing is checked, and the
    generator's internal degree t0 gives the shift t0 - n.
    """
    p, n = params.p, params.n
    record = eng.run_to_einfty(group, params)
    dual = eng.DualSequence(record)
    per = periodicity(group, params)
    r1 = eng.first_diff_index(params)

    window = range(-2 * p, 2 * p)
    candidates = dual.zero_line_classes(window.start, window.stop)
    cycles = [c for c in candidates if dual.is_cycle(c, r1)]
    if not cycles:
        raise VerificationFailure("no zero-line cycle found in the dual sequence")

    degrees = sorted(dual.bidegree(c)[1] for c in cycles)
    shifts = {(t0 - n) % per for t0 in degrees}
    if len(shifts) != 1:
        raise VerificationFailure(f"ambiguous zero-line generator: shifts {sorted(shifts)}")
    spacings = {b - a for a, b in zip(degrees, degrees[1:])}
    if spacings != {per}:
        raise VerificationFailure(f"zero-line cycles not spaced by the periodicity: {sorted(spacings)}")
    shift = shifts.pop()

    cert_degree = shift + n
    certificate = None
    for c in cycles:
        if dual.bidegree(c)[1] == cert_degree:
            certificate = c
            break
    if certificate is None:
        raise VerificationFailure("no certificate class in the enumeration window")
    # the generator is the dual of a class supporting the second differential
    base = certificate.base
    if base.eps != 1 or base.i != n // 2 - 1:
        raise VerificationFailure("certificate is not the expected dual class")
    if not record.pages[1].contains(base) or eng.d_second(base, params) is None:
        raise VerificationFailure("certificate base does not support the second differential")
    return ShiftReport(
        group=group,
        p=p,
        route="dual",
        shift=shift,
        periodicity=per,
        certificate=certificate.label(),
        certificate_degree=cert_degree,
    )


def shift_det_route(group: str, params: HeightParams) -> ShiftReport:
    """Shift via the determinant twist, for the groups that see it.

    The twisted page is free of rank one on the invariant generator d^k y,
    k the invariant power of delta, in internal degree 2p*k; one
    periodicity step 2p*n^2 brings the exponent into normal position and
    the monochromatic offset subtracts n.
    """
    if group == "Cp":
        raise InvalidInput("determinant route undefined for Cp; use the dual route")
    if group not in eng.GROUPS:
        raise InvalidInput(f"unknown group {group!r}")
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
    if route not in ("dual", "det", "both"):
        raise InvalidInput(f"unknown route {route!r}")
    if route == "dual" or group == "Cp":
        if route == "det":
            raise InvalidInput("determinant route undefined for Cp")
        return shift_dual_route(group, params)
    if route == "det":
        return shift_det_route(group, params)
    via_dual = shift_dual_route(group, params)
    via_det = shift_det_route(group, params)
    if via_dual.shift != via_det.shift or via_dual.periodicity != via_det.periodicity:
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
    return replace(via_dual, route="both")


def shifts_table(params: HeightParams, route: str = "both") -> dict[str, ShiftReport]:
    """All three groups; both routes where defined, agreement asserted."""
    out: dict[str, ShiftReport] = {}
    for group in eng.GROUPS:
        if group == "Cp" and route == "det":
            continue
        out[group] = shift_report(group, params, route)
    return out
