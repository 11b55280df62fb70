from __future__ import annotations

import pytest

from tatedual import duality_shifts as ds
from tatedual import tate_engine as eng
from tatedual.errors import InvalidInput, VerificationFailure
from tatedual.mod_arith import height_params

import oracles

ALL_CASES = [(g, p) for g in eng.GROUPS for p in (3, 5, 7)]


def cls_cp(eps, i, j):
    return eng.MonomialClass(eps, i, j, "Cp")


def cls_f(eps, i, j):
    return eng.MonomialClass(eps, i, j, "F")


class TestBidegrees:
    def test_cp_generators(self, params5):
        assert eng.bidegree(cls_cp(1, 0, 0), params5) == (1, -2)
        assert eng.bidegree(cls_cp(0, 1, 0), params5) == (2, 0)
        assert eng.bidegree(cls_cp(0, 0, 1), params5) == (0, 10)

    def test_f_generators(self, params5):
        n = params5.n
        assert eng.bidegree(cls_f(1, 0, 0), params5) == (1, 2 * n)
        assert eng.bidegree(cls_f(0, 1, 0), params5) == (2, 2 * 5 * n)
        assert eng.bidegree(cls_f(0, 0, 1), params5) == (0, 2 * 5 * n * n)

    def test_e2_page_examples(self, params5, params3):
        page = eng.e2_page("Cp", params5)
        assert page.contains(cls_cp(1, 0, 0))
        assert eng.bidegree(cls_cp(1, 0, 0), params5) == (1, -2)
        pf = eng.e2_page("F", params5)
        assert pf.contains(cls_f(1, 0, 0))
        assert eng.bidegree(cls_f(1, 0, 0), params5) == (1, 8)
        pg = eng.e2_page("G", params3)
        assert pg.contains(cls_f(0, 0, 1))
        assert eng.bidegree(cls_f(0, 0, 1), params3) == (0, 24)
        assert pg.coeff_field_degree == 1
        assert pf.coeff_field_degree == 4

    def test_labels(self):
        assert cls_cp(1, 2, -1).label() == "a b^2 d^-1"
        assert cls_cp(0, 0, 0).label() == "1"
        assert cls_f(1, 1, 3).label() == "a b D^3"

    def test_invalid_group(self, params3):
        with pytest.raises(InvalidInput):
            eng.e2_page("Q8", params3)


class TestDifferentials:
    def test_seed_on_delta_p3(self, params3):
        page = eng.e2_page("Cp", params3)
        out = eng.differential(page, cls_cp(0, 0, 1), r=5)
        assert out == (cls_cp(1, 2, 2), 1)

    def test_delta_cubed_is_cycle(self, params3):
        page = eng.e2_page("Cp", params3)
        assert eng.differential(page, cls_cp(0, 0, 3), r=5) is None

    def test_second_differential_on_a(self, params3):
        page = eng.e2_page("Cp", params3)
        mid = eng.turn_page(page, eng.differential_map(page))
        out = eng.differential(mid, cls_cp(1, 0, 0), r=9)
        assert out == (cls_cp(0, 5, 1), 1)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_a_classes_are_first_cycles(self, p):
        pa = height_params(p)
        page = eng.e2_page("Cp", pa)
        for i in range(-3, 4):
            for j in range(-3, 4):
                assert eng.differential(page, cls_cp(1, i, j)) is None

    def test_f_seed(self, params5):
        page = eng.e2_page("F", params5)
        out = eng.differential(page, cls_f(0, 0, 1))
        # d(Delta) = alpha beta^n Delta^0
        assert out == (cls_f(1, 4, 0), 1)

    def test_f_second_seed(self, params5):
        page = eng.e2_page("F", params5)
        mid = eng.turn_page(page, eng.differential_map(page))
        n = params5.n
        out = eng.differential(mid, cls_f(1, 0, n))
        # d(alpha Delta^n) = beta^(n^2+1)
        assert out == (cls_f(0, n * n + 1, 0), 1)

    def test_non_survivor_rejected(self, params3):
        page = eng.e2_page("Cp", params3)
        mid = eng.turn_page(page, eng.differential_map(page))
        with pytest.raises(InvalidInput):
            eng.differential(mid, cls_cp(0, 0, 1))

    def test_unsupported_page_index(self, params3):
        page = eng.e2_page("Cp", params3)
        with pytest.raises(InvalidInput):
            eng.differential(page, cls_cp(0, 0, 1), r=9)
        rec = eng.run_to_einfty("Cp", params3)
        with pytest.raises(InvalidInput):
            eng.differential(rec.einfty(), cls_cp(0, 0, 0))

    def test_weight_preserved_by_second(self, params5):
        # source and target of the second differential have the same weight
        pa = params5
        page = eng.e2_page("Cp", pa)
        mid = eng.turn_page(page, eng.differential_map(page))
        for src, tgt, _ in eng.differential_map(mid).pairs:
            assert (src.j + src.i) % 5 == (tgt.j + tgt.i) % 5 == 0


class TestTurnPage:
    def test_survivors_after_first_p3(self, params3):
        page = eng.e2_page("Cp", params3)
        mid = eng.turn_page(page, eng.differential_map(page))
        # exactly the classes of weight 0 mod 3, over a 3-period window
        for eps in (0, 1):
            for i in range(-4, 5):
                for j in range(-4, 5):
                    cls = cls_cp(eps, i, j)
                    assert mid.contains(cls) == ((i + j) % 3 == 0)

    def test_empty_after_second(self, params3):
        rec = eng.run_to_einfty("Cp", params3)
        assert rec.einfty().is_empty()

    def test_empty_page_turn(self, params3):
        rec = eng.run_to_einfty("Cp", params3)
        empty = rec.einfty()
        with pytest.raises(InvalidInput):
            eng.differential_map(empty)

    @pytest.mark.parametrize("group,p", ALL_CASES)
    def test_rank_route_agrees(self, group, p):
        pa = height_params(p)
        page = eng.e2_page(group, pa)
        d1 = eng.differential_map(page)
        assert eng.turn_page(page, d1).survivors == oracles.turn_page_rank_route(page, d1).survivors
        mid = eng.turn_page(page, d1)
        d2 = eng.differential_map(mid)
        assert eng.turn_page(mid, d2).survivors == oracles.turn_page_rank_route(mid, d2).survivors

    def test_mismatched_differential(self, params3):
        page = eng.e2_page("Cp", params3)
        d1 = eng.differential_map(page)
        mid = eng.turn_page(page, d1)
        with pytest.raises(InvalidInput):
            eng.turn_page(mid, d1)


class TestRunToEinfty:
    @pytest.mark.parametrize("group,p", ALL_CASES)
    def test_full_cancellation(self, group, p):
        rec = eng.run_to_einfty(group, height_params(p))
        assert rec.einfty().is_empty()
        assert all(f != "survives" for f in rec.fates.values())

    @pytest.mark.parametrize("group,p", ALL_CASES)
    def test_fates_reconcile_with_pairings(self, group, p):
        rec = eng.run_to_einfty(group, height_params(p))
        page2 = rec.pages[0]
        for dmap in rec.diffs:
            for src, tgt, _ in dmap.pairs:
                assert rec.fates[page2.canonical(src)] == "source"
                assert rec.fates[page2.canonical(tgt)] == "target"

    def test_fate_description(self, params3):
        # at p = 3 classes die at both differentials, d_5 and d_9
        rec = eng.run_to_einfty("Cp", params3)
        assert [dmap.r for dmap in rec.diffs] == [5, 9]
        assert all(dmap.pairs for dmap in rec.diffs)


class TestPropertySuites:
    @pytest.mark.parametrize("group,p", ALL_CASES)
    def test_all_invariants(self, group, p):
        rec = eng.run_to_einfty(group, height_params(p))
        for dmap in rec.diffs:
            eng.verify_bidegree_law(dmap, rec.params)
        oracles.verify_d_squared(rec)
        oracles.verify_lattice_equivariance(rec)
        oracles.verify_coefficient_law(group, rec.params)
        oracles.verify_duality_involution(rec)

    def test_bidegree_law_catches_corruption(self, params3):
        page = eng.e2_page("Cp", params3)
        d1 = eng.differential_map(page)
        bad = eng.DifferentialMap(
            r=d1.r, group=d1.group, pairs=((cls_cp(0, 0, 1), cls_cp(1, 0, 2), 1),)
        )
        with pytest.raises(VerificationFailure):
            eng.verify_bidegree_law(bad, params3)


class TestDualize:
    def test_example_class(self, params5):
        rec = eng.run_to_einfty("Cp", params5)
        dual = eng.DualSequence(rec)
        eps_class = eng.DualClass(cls_cp(1, 1, -1))
        assert eng.bidegree(eps_class.base, params5) == (3, -12)
        assert dual.bidegree(eps_class) == (0, 20)

    @pytest.mark.parametrize("group,p", ALL_CASES)
    def test_involution(self, group, p):
        # reversing the reversed pairings gives back the recorded ones
        rec = eng.run_to_einfty(group, height_params(p))
        dual = eng.DualSequence(rec)
        for stage, dmap in enumerate(rec.diffs):
            back = tuple((dtgt.base, dsrc.base, c) for dsrc, dtgt, c in oracles.dual_pairs(dual, stage))
            assert back == dmap.pairs

    def test_dual_differential_reverses(self, params3):
        rec = eng.run_to_einfty("Cp", params3)
        dual = eng.DualSequence(rec)
        src, tgt, coeff = rec.diffs[0].pairs[0]
        got = dual.differential(eng.DualClass(tgt), rec.diffs[0].r)
        assert got is not None
        assert got[0].base == src and got[1] == coeff

    def test_dual_spans_bidegree_law(self, params5):
        rec = eng.run_to_einfty("F", params5)
        dual = eng.DualSequence(rec)
        for stage, dmap in enumerate(rec.diffs):
            for dsrc, dtgt, coeff in oracles.dual_pairs(dual, stage):
                s0, t0 = dual.bidegree(dsrc)
                s1, t1 = dual.bidegree(dtgt)
                assert (s1 - s0, t1 - t0) == (dmap.r, dmap.r - 1)

    def test_boundary_detection(self, params3):
        rec = eng.run_to_einfty("Cp", params3)
        dual = eng.DualSequence(rec)
        r1 = eng.first_diff_index(params3)
        # delta supports d_5, so D(delta) is a boundary; a is a first-cycle
        assert oracles.is_boundary(dual, eng.DualClass(cls_cp(0, 0, 1)), r1)
        assert not oracles.is_boundary(dual, eng.DualClass(cls_cp(1, 0, 0)), r1)


class TestViews:
    def test_cp_zero_line(self, params3):
        rec = eng.run_to_einfty("Cp", params3)
        view = oracles.hfpss_view(rec)
        assert view.zero_line_einfty_exponents(-9, 10) == [-9, -6, -3, 0, 3, 6, 9]

    def test_f_zero_line_p5(self, params5):
        rec = eng.run_to_einfty("F", params5)
        view = oracles.hfpss_view(rec)
        assert view.zero_line_einfty_exponents(-10, 11) == [-10, -5, 0, 5, 10]

    def test_composed_views_are_empty(self, params3):
        rec = eng.run_to_einfty("Cp", params3)
        both = oracles.hoss_view(oracles.hfpss_view(rec))
        assert both.classes_in_window(-40, 40, -12, 12) == []
        assert both.zero_line_einfty_exponents(-5, 5) == []

    def test_hoss_regrading(self, params3):
        rec = eng.run_to_einfty("Cp", params3)
        view = oracles.hoss_view(rec)
        assert view.contains_filtration(-1)
        assert not view.contains_filtration(0)
        window = view.classes_in_window(-40, 40, -12, 12)
        assert window and all(eng.bidegree(c, params3)[0] <= -1 for c in window)

    def test_view_fates_respect_region(self, params3):
        # a class of weight 0 on the zero line is never killed in the
        # fixed-point view: its would-be attacker sits at negative s
        rec = eng.run_to_einfty("Cp", params3)
        view = oracles.hfpss_view(rec)
        assert rec.fates[rec.pages[0].canonical(cls_cp(0, 0, 0))] == "target"
        assert view.fate_in_view(cls_cp(0, 0, 0)) == "survives"

    def test_outside_view_rejected(self, params3):
        rec = eng.run_to_einfty("Cp", params3)
        view = oracles.hfpss_view(rec)
        with pytest.raises(InvalidInput):
            view.fate_in_view(cls_cp(1, -1, 0))


class TestTwisted:
    """The determinant twist: the shift route through the invariant
    generator d^k y."""

    @pytest.mark.parametrize("p,degree", [(3, 0), (5, -40), (7, -168)])
    def test_twisted_generator_degrees(self, p, degree):
        pa = height_params(p)
        report = ds.shift_det_route("F", pa)
        assert report.certificate_degree == degree
        assert report.certificate == f"d^{degree // (2 * p)} y"

    def test_g_twisted_page(self, params7):
        assert ds.shift_det_route("G", params7).certificate_degree == -168
        assert eng.e2_page("G", params7).coeff_field_degree == 1

    def test_cp_twist_rejected(self, params5):
        with pytest.raises(InvalidInput):
            ds.shift_det_route("Cp", params5)
        with pytest.raises(InvalidInput):
            ds.shift_det_route("H", params5)

    def test_twisted_differential_coefficients(self, params5):
        # the generator is untwisted: d(D^j y) has coefficient j, so D^j y
        # is a first-differential cycle exactly when p divides j
        for j in range(-6, 7):
            out = eng.d_first(eng.MonomialClass(0, 0, j, "F"), params5)
            assert (0 if out is None else out[1]) == j % 5


class TestWindows:
    def test_window_enumeration_matches_bidegree_filter(self, params5):
        page = eng.e2_page("Cp", params5)
        got = {
            (c.eps, c.i, c.j) for c in page.classes_in_window(-20, 20, -10, 10)
        }
        brute = set()
        for eps in (0, 1):
            for i in range(-30, 31):
                for j in range(-30, 31):
                    s, t = eng.bidegree(eng.MonomialClass(eps, i, j, "Cp"), params5)
                    if -20 <= t - s <= 20 and -10 <= s <= 10:
                        brute.add((eps, i, j))
        assert got == brute

    def test_mid_page_window(self, params3):
        page = eng.e2_page("Cp", params3)
        mid = eng.turn_page(page, eng.differential_map(page))
        for c in mid.classes_in_window(-30, 30, -8, 8):
            assert (c.i + c.j) % 3 == 0
