from __future__ import annotations

import itertools

import pytest

from tatedual import duality_shifts as ds
from tatedual import tate_engine as eng
from tatedual.errors import InvalidInput, VerificationFailure
from tatedual.mod_arith import GROUPS, height_params

import oracles

ALL_CASES = [(g, p) for g in GROUPS for p in (3, 5, 7)]


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
        assert oracles.contains(page, cls_cp(1, 0, 0))
        assert eng.bidegree(cls_cp(1, 0, 0), params5) == (1, -2)
        pf = eng.e2_page("F", params5)
        assert oracles.contains(pf, cls_f(1, 0, 0))
        assert eng.bidegree(cls_f(1, 0, 0), params5) == (1, 8)
        pg = eng.e2_page("G", params3)
        assert oracles.contains(pg, cls_f(0, 0, 1))
        assert eng.bidegree(cls_f(0, 0, 1), params3) == (0, 24)

    def test_labels(self):
        assert cls_cp(1, 2, -1).label() == "a b^2 d^-1"
        assert cls_cp(0, 0, 0).label() == "1"
        assert cls_f(1, 1, 3).label() == "a b D^3"


class TestDifferentials:
    """The closed forms on single classes, and the recorded pairs that
    run_to_einfty moves onto them by the lattice."""

    def test_seed_on_delta_p3(self, params3):
        assert eng.d_first(cls_cp(0, 0, 1), params3) == (cls_cp(1, 2, 2), 1)
        rec = eng.run_to_einfty("Cp", params3)
        assert rec.partner(5, "source", cls_cp(0, 0, 1)) == (cls_cp(1, 2, 2), 1)
        # moved by b d^n: d(b delta^3) = (3 + 1) a b^3 delta^4
        assert rec.partner(5, "source", cls_cp(0, 1, 3)) == (cls_cp(1, 3, 4), 1)
        assert rec.partner(5, "target", cls_cp(1, 3, 4)) == (cls_cp(0, 1, 3), 1)

    def test_delta_cubed_is_cycle(self, params3):
        assert eng.d_first(cls_cp(0, 0, 3), params3) is None
        rec = eng.run_to_einfty("Cp", params3)
        assert rec.partner(5, "source", cls_cp(0, 0, 3)) is None

    def test_second_differential_on_a(self, params3):
        assert eng.d_second(cls_cp(1, 0, 0), params3) == (cls_cp(0, 5, 1), 1)
        rec = eng.run_to_einfty("Cp", params3)
        assert rec.partner(9, "source", cls_cp(1, 0, 0)) == (cls_cp(0, 5, 1), 1)
        # a is a first-differential cycle, so it has no pair at r = 5
        assert rec.partner(5, "source", cls_cp(1, 0, 0)) is None

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_a_classes_are_first_cycles(self, p):
        pa = height_params(p)
        rec = eng.run_to_einfty("Cp", pa)
        r1 = eng.first_diff_index(pa)
        for i in range(-3, 4):
            for j in range(-3, 4):
                assert eng.d_first(cls_cp(1, i, j), pa) is None
                assert rec.partner(r1, "source", cls_cp(1, i, j)) is None

    def test_f_seed(self, params5):
        # d(Delta) = alpha beta^n Delta^0
        assert eng.d_first(cls_f(0, 0, 1), params5) == (cls_f(1, 4, 0), 1)
        rec = eng.run_to_einfty("F", params5)
        assert rec.partner(9, "source", cls_f(0, 0, 1)) == (cls_f(1, 4, 0), 1)
        # moved by beta and D^p, with the coefficient j mod p of its source
        assert rec.partner(9, "source", cls_f(0, 2, 12)) == (cls_f(1, 6, 11), 2)

    def test_f_second_seed(self, params5):
        n = params5.n
        # d(alpha Delta^n) = beta^(n^2+1)
        assert eng.d_second(cls_f(1, 0, n), params5) == (cls_f(0, n * n + 1, 0), 1)
        rec = eng.run_to_einfty("F", params5)
        assert rec.partner(2 * n * n + 1, "source", cls_f(1, 0, n)) == (cls_f(0, n * n + 1, 0), 1)

    def test_weight_preserved_by_second(self, params5):
        # source and target of the second differential have the same weight
        pa = params5
        page = eng.e2_page("Cp", pa)
        mid = eng.turn_page(page, eng.differential_map(page))
        for src, tgt, _ in eng.differential_map(mid).pairs:
            assert (src.j + src.i) % 5 == (tgt.j + tgt.i) % 5 == 0


class TestOrbit:
    """tate_engine.orbit against the lattice written out generator by
    generator in oracles.lattice_generators."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    @pytest.mark.parametrize("group", GROUPS)
    def test_orbit_is_the_lattice(self, group, p):
        params = height_params(p)
        page = eng.e2_page(group, params)
        gens = oracles.lattice_generators(page.family, params)
        # constant on each orbit: invariant under both generators, over a box
        # two periods wide in j and wider than one in i
        for eps in (0, 1):
            for i in range(-p - 1, p + 2):
                for j in range(-2 * p, 2 * p + 1):
                    cls = eng.MonomialClass(eps, i, j, page.family)
                    for di, dj in gens:
                        assert eng.orbit(cls.translate(di, dj), params) == eng.orbit(cls, params), (cls, di, dj)
        # and separating: the 2p classes i = 0, 0 <= j < p of the fundamental
        # domain, one per orbit, get 2p distinct values, which are the E_2 page
        domain = [eng.MonomialClass(eps, 0, j, page.family) for eps in (0, 1) for j in range(p)]
        orbits = [eng.orbit(cls, params) for cls in domain]
        assert len(set(orbits)) == 2 * p
        assert set(orbits) == page.survivors
        assert [eng.orbit(cls, params) for cls in page.fundamental_domain()] == sorted(page.survivors)


class TestTurnPage:
    def test_survivors_after_first_p3(self, params3):
        page = eng.e2_page("Cp", params3)
        mid = eng.turn_page(page, eng.differential_map(page))
        # exactly the classes of weight 0 mod 3, over a 3-period window
        for eps in (0, 1):
            for i in range(-4, 5):
                for j in range(-4, 5):
                    cls = cls_cp(eps, i, j)
                    assert oracles.contains(mid, cls) == ((i + j) % 3 == 0)

    def test_empty_after_second(self, params3):
        rec = eng.run_to_einfty("Cp", params3)
        assert not rec.einfty().survivors

    @pytest.mark.parametrize("group,p", ALL_CASES)
    def test_rank_route_agrees(self, group, p):
        pa = height_params(p)
        page = eng.e2_page(group, pa)
        d1 = eng.differential_map(page)
        assert eng.turn_page(page, d1).survivors == oracles.turn_page_rank_route(page, d1).survivors
        mid = eng.turn_page(page, d1)
        d2 = eng.differential_map(mid)
        assert eng.turn_page(mid, d2).survivors == oracles.turn_page_rank_route(mid, d2).survivors


class TestRunToEinfty:
    @pytest.mark.parametrize("group,p", ALL_CASES)
    def test_full_cancellation(self, group, p):
        rec = eng.run_to_einfty(group, height_params(p))
        assert not rec.einfty().survivors
        assert all(f != "survives" for f in rec.fates.values())

    @pytest.mark.parametrize("group,p", ALL_CASES)
    def test_fates_reconcile_with_pairings(self, group, p):
        rec = eng.run_to_einfty(group, height_params(p))
        for dmap in rec.diffs:
            for src, tgt, _ in dmap.pairs:
                assert rec.fates[eng.orbit(src, rec.params)] == "source"
                assert rec.fates[eng.orbit(tgt, rec.params)] == "target"

    @pytest.mark.parametrize("group,p", ALL_CASES)
    def test_fates_match_rank_route(self, group, p):
        rec = eng.run_to_einfty(group, height_params(p))
        assert list(rec.fates.items()) == list(oracles.fates_rank_route(rec).items())

    def test_page_at_stages(self, params3):
        # d_5 and d_9 at p = 3: E_2 through E_5, the middle page through
        # E_9, the final page from E_10 on
        rec = eng.run_to_einfty("Cp", params3)
        assert [rec.page_at(r).r for r in (2, 5, 6, 9, 10, 40)] == [2, 2, 6, 6, 10, 10]

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
            oracles.verify_bidegree_law(dmap, rec.params)
        oracles.verify_d_squared(rec)
        oracles.verify_lattice_equivariance(rec)
        oracles.verify_coefficient_law(group, rec.params)
        oracles.verify_duality_involution(rec)

    def test_bidegree_law_catches_corruption(self, params3):
        page = eng.e2_page("Cp", params3)
        d1 = eng.differential_map(page)
        bad = eng.DifferentialMap(r=d1.r, pairs=((cls_cp(0, 0, 1), cls_cp(1, 0, 2), 1),))
        with pytest.raises(VerificationFailure):
            oracles.verify_bidegree_law(bad, params3)


class TestDualize:
    # the dual sequence is read off the record: D(x) sits at (n - 1 - s,
    # 2n - t) for x at (s, t), and its differentials are the recorded pairs
    # reversed, SequenceRecord.partner by target
    def test_example_class(self, params5):
        # a b d^-1 lies under the dual zero line at internal degree 20
        n = params5.n
        s, t = eng.bidegree(cls_cp(1, 1, -1), params5)
        assert (s, t) == (3, -12)
        assert (n - 1 - s, 2 * n - t) == (0, 20)

    @pytest.mark.parametrize("group,p", ALL_CASES)
    def test_involution(self, group, p):
        # reversing the reversed pairings gives back the recorded ones
        rec = eng.run_to_einfty(group, height_params(p))
        for stage, dmap in enumerate(rec.diffs):
            back = tuple((dtgt, dsrc, c) for dsrc, dtgt, c in oracles.dual_pairs(rec, stage))
            assert back == dmap.pairs

    def test_dual_differential_reverses(self):
        # in every case, at every class two lattice periods either side of
        # the fundamental domain, the dual differential read off the
        # recorded pairs is the inverse of the closed form; the second one
        # only where its source survives to the middle page
        for group, p in ALL_CASES:
            params = height_params(p)
            rec = eng.run_to_einfty(group, params)
            r1, r2 = eng.first_diff_index(params), eng.second_diff_index(params)
            answered = set()
            for eps, i, j in itertools.product((0, 1), range(-2, 3), range(-2 * p, 3 * p)):
                base = eng.MonomialClass(eps, i, j, rec.family)
                for r, incoming in ((r1, oracles.d_first_incoming), (r2, oracles.d_second_incoming)):
                    want = incoming(base, params)
                    if r == r2 and want is not None and not oracles.contains(rec.pages[1], want[0]):
                        want = None
                    got = rec.partner(r, "target", base)
                    assert got == want, (group, p, base, r)
                    if got is not None:
                        answered.add(r)
            assert answered == {r1, r2}, (group, p)

    def test_boundary_detection(self, params3):
        rec = eng.run_to_einfty("Cp", params3)
        r1 = eng.first_diff_index(params3)
        # delta supports d_5, so D(delta) is a boundary; a is a first-cycle
        assert oracles.is_boundary(rec, cls_cp(0, 0, 1), r1)
        assert not oracles.is_boundary(rec, cls_cp(1, 0, 0), r1)


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
        assert rec.fates[eng.orbit(cls_cp(0, 0, 0), params3)] == "target"
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

    def test_twisted_differential_coefficients(self, params5):
        # the generator is untwisted: d(D^j y) has coefficient j, so D^j y
        # is a first-differential cycle exactly when p divides j
        for j in range(-6, 7):
            out = eng.d_first(eng.MonomialClass(0, 0, j, "F"), params5)
            assert (0 if out is None else out[1]) == j % 5


class TestWindows:
    @pytest.mark.parametrize("stage", [0, 1, 2], ids=["e2", "middle", "final"])
    @pytest.mark.parametrize(
        "group,window",
        [
            ("Cp", (-20, 20, -10, 10)),
            ("Cp", (-33, -1, -11, -3)),  # negative odd bounds
            ("Cp", (20, -20, -10, 10)),  # inverted
            ("F", (-170, 170, -9, 9)),
            ("F", (-333, -1, -11, -3)),
            ("F", (-170, 170, 9, -9)),
        ],
        ids=["cp", "cp-negative-odd", "cp-inverted", "f", "f-negative-odd", "f-inverted"],
    )
    def test_window_enumeration_matches_bidegree_filter(self, params5, group, window, stage):
        # the walk yields the brute bidegree filter of a covering box, on the
        # page, in (s, t) order by construction
        page = eng.run_to_einfty(group, params5).pages[stage]
        x_min, x_max, s_min, s_max = window
        brute = []
        for eps in (0, 1):
            for i in range(-30, 31):
                for j in range(-30, 31):
                    cls = eng.MonomialClass(eps, i, j, page.family)
                    s, t = eng.bidegree(cls, params5)
                    if x_min <= t - s <= x_max and s_min <= s <= s_max and oracles.contains(page, cls):
                        brute.append(cls)
        brute.sort(key=lambda c: eng.bidegree(c, params5))
        assert oracles.classes_in_window(page, *window) == brute
        assert brute or window[0] > window[1] or window[2] > window[3] or stage == 2
        if stage == 0:
            runs = list(eng.window_runs(group, params5, *window))
            assert sum(run[-1] for run in runs) == oracles.window_class_count(group, params5, *window) == len(brute)
            assert oracles.run_classes(runs) == [(c.eps, c.i, c.j) for c in brute]

    def test_mid_page_window(self, params3):
        page = eng.e2_page("Cp", params3)
        mid = eng.turn_page(page, eng.differential_map(page))
        for c in oracles.classes_in_window(mid, -30, 30, -8, 8):
            assert (c.i + c.j) % 3 == 0
