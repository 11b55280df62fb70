from __future__ import annotations

import pytest

from tatedual import duality_shifts as ds
from tatedual import tate_engine as eng
from tatedual.errors import InvalidInput, RouteDisagreement
from tatedual.mod_arith import height_params

EXPECTED_SHIFTS = {
    3: {"Cp": 4, "F": 22, "G": 22},
    5: {"Cp": 16, "F": 116, "G": 116},
    7: {"Cp": 36, "F": 330, "G": 330},
}

EXPECTED_PERIODICITY = {
    (3, "Cp"): 18,
    (3, "F"): 72,
    (5, "Cp"): 50,
    (5, "F"): 800,
    (5, "G"): 800,
    (7, "Cp"): 98,
    (7, "G"): 3528,
}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_dual_route_cp(p):
    pa = height_params(p)
    report = ds.shift_dual_route("Cp", pa)
    n = pa.n
    assert report.shift == n * n == EXPECTED_SHIFTS[p]["Cp"]
    assert report.certificate_degree == n * p
    assert report.route == "dual"


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("group", ["F", "G"])
def test_dual_route_fg(p, group):
    pa = height_params(p)
    n = pa.n
    report = ds.shift_dual_route(group, pa)
    assert report.shift == n * p * p + n * n == EXPECTED_SHIFTS[p][group]
    assert report.certificate_degree == 2 * n * p + n * n * p


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("group", ["F", "G"])
def test_det_route(p, group):
    pa = height_params(p)
    report = ds.shift_det_route(group, pa)
    assert report.shift == EXPECTED_SHIFTS[p][group]
    assert report.route == "det"


def test_det_route_rejects_cp(params5):
    with pytest.raises(InvalidInput):
        ds.shift_det_route("Cp", params5)
    with pytest.raises(InvalidInput):
        ds.shift_report("Cp", params5, route="det")


@pytest.mark.parametrize("p", [3, 5, 7])
def test_routes_agree(p):
    pa = height_params(p)
    for group in ("F", "G"):
        combined = ds.shift_report(group, pa, route="both")
        for route in (ds.shift_det_route(group, pa), ds.shift_dual_route(group, pa)):
            assert (combined.shift, combined.periodicity) == (route.shift, route.periodicity)
        assert combined.route == "both"
        assert combined.shift == EXPECTED_SHIFTS[p][group]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_shifts_table(p):
    table = ds.shifts_table(height_params(p))
    assert list(table) == ["Cp", "F", "G"]
    got = {g: r.shift for g, r in table.items()}
    assert got == EXPECTED_SHIFTS[p]


@pytest.mark.parametrize("case,expected", sorted(EXPECTED_PERIODICITY.items()))
def test_periodicity(case, expected):
    p, group = case
    assert ds.periodicity(group, height_params(p)) == expected


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("group", eng.GROUPS)
def test_tate_vanishing(group, p):
    assert ds.verify_tate_vanishing(group, height_params(p)) is True


@pytest.mark.parametrize("p", [3, 5])
def test_shift_below_periodicity(p):
    for group, report in ds.shifts_table(height_params(p)).items():
        assert 0 <= report.shift < report.periodicity


def test_certificate_is_dual_cycle(params5):
    # the certificate class is a cycle on the zero line of the dual and its
    # underlying class supports the long differential
    report = ds.shift_dual_route("Cp", params5)
    rec = eng.run_to_einfty("Cp", params5)
    dual = eng.DualSequence(rec)
    n = params5.n
    base = eng.MonomialClass(1, n // 2 - 1, 1 - n // 2, "Cp")
    cert = eng.DualClass(base)
    assert report.certificate == cert.label()
    assert dual.bidegree(cert) == (0, report.certificate_degree)
    assert dual.is_cycle(cert, eng.first_diff_index(params5))
    assert not dual.is_boundary(cert, eng.first_diff_index(params5))
    assert eng.d_second(base, params5) is not None


def test_zero_line_cycle_spacing(params5):
    # cycles on the dual zero line sit exactly one periodicity apart
    rec = eng.run_to_einfty("F", params5)
    dual = eng.DualSequence(rec)
    r1 = eng.first_diff_index(params5)
    cycles = [c for c in dual.zero_line_classes(-15, 15) if dual.is_cycle(c, r1)]
    degrees = sorted(dual.bidegree(c)[1] for c in cycles)
    per = ds.periodicity("F", params5)
    assert {b - a for a, b in zip(degrees, degrees[1:])} == {per}


def test_route_disagreement_is_loud(monkeypatch, params3):
    real = ds.shift_det_route

    def skewed(group, params):
        report = real(group, params)
        return ds.ShiftReport(
            group=report.group,
            p=report.p,
            route="det",
            shift=(report.shift + 2) % report.periodicity,
            periodicity=report.periodicity,
            certificate=report.certificate,
            certificate_degree=report.certificate_degree,
        )

    monkeypatch.setattr(ds, "shift_det_route", skewed)
    with pytest.raises(RouteDisagreement) as info:
        ds.shift_report("F", params3, route="both")
    assert info.value.first.shift == 22
    assert info.value.second.shift == 24
    assert "dual gives 22" in str(info.value)


def test_unknown_route(params3):
    with pytest.raises(InvalidInput):
        ds.shift_report("F", params3, route="sideways")
