"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is exact; the runtime bounds are asserted
directly against wall-clock time.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from tatedual import chart_render as cr
from tatedual import cp_rep
from tatedual import duality_shifts as ds
from tatedual import mod_arith
from tatedual import tate_engine as eng
from tatedual.mod_arith import height_params

import oracles
from conftest import random_cp_module

GOLDEN = Path(__file__).parent / "golden"

PRIMES = (3, 5, 7)
EXPECTED = {
    3: {"Cp": 4, "F": 22, "G": 22},
    5: {"Cp": 16, "F": 116, "G": 116},
    7: {"Cp": 36, "F": 330, "G": 330},
}


def criterion(number: int, description: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL {description}")
        raise
    print(f"ACCEPTANCE {number} PASS {description}")


def test_criterion_1_shift_cp():
    def check():
        for p in PRIMES:
            pa = height_params(p)
            start = time.perf_counter()
            report = ds.shift_report("Cp", pa)
            elapsed = time.perf_counter() - start
            assert report.shift == pa.n * pa.n == EXPECTED[p]["Cp"]
            assert elapsed < 1.0, f"runtime {elapsed:.3f}s at p={p}"

    criterion(1, "duality shift for the cyclic group is n^2 at p=3,5,7 (<1s each)", check)


def test_criterion_2_shift_f_and_g():
    def check():
        for p in PRIMES:
            pa = height_params(p)
            for group in ("F", "G"):
                start = time.perf_counter()
                dual = ds.shift_dual_route(group, pa)
                det = ds.shift_det_route(group, pa)
                combined = ds.shift_report(group, pa, route="both")
                elapsed = time.perf_counter() - start
                expected = pa.n * p * p + pa.n * pa.n
                assert dual.shift == det.shift == combined.shift == expected == EXPECTED[p][group]
                assert dual.periodicity == det.periodicity == combined.periodicity
                assert elapsed < 1.0, f"runtime {elapsed:.3f}s at {group}/p={p}"

    criterion(2, "duality shift for the extended groups is np^2+n^2, both routes agree", check)


def test_criterion_3_full_cancellation():
    def check():
        for p in PRIMES:
            pa = height_params(p)
            for group in eng.GROUPS:
                record = eng.run_to_einfty(group, pa)
                assert record.einfty().survivors == frozenset()
                assert eng.run_to_einfty(group, pa).einfty().is_empty()

    criterion(3, "the last page is empty for all three groups at p=3,5,7", check)


def test_criterion_4_survivor_pattern_p3():
    def check():
        pa = height_params(3)
        page = eng.e2_page("Cp", pa)
        mid = eng.turn_page(page, eng.differential_map(page))
        got = set()
        expected = set()
        for eps in (0, 1):
            for i in range(0, 9):
                for j in range(0, 9):
                    cls = eng.MonomialClass(eps, i, j, "Cp")
                    if mid.contains(cls):
                        got.add((eps, i, j))
                    if (i + j) % 3 == 0:
                        expected.add((eps, i, j))
        assert got == expected

    criterion(4, "survivors after the first differential at p=3 are the weight-0 classes", check)


def test_criterion_5_nilpotence_and_freeness_suite():
    def check():
        start = time.perf_counter()
        suite = {3: {1: 27}, 5: {1: 20, 2: 25, 3: 25}}
        for p, caps in suite.items():
            pa = height_params(p)
            assert set(caps) == set(range(1, pa.n))
            for k, max_deg in caps.items():
                assert cp_rep.nilpotence_report(pa, k, max_deg).holds is True
                degrees = [d for d in range(1, max_deg + 1) if k + 1 <= d % p <= p - 1]
                for deg in degrees:
                    assert oracles.freeness_check(pa, k, deg) is True, (p, k, deg)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"

    criterion(5, "nilpotence of the invariant multiplier and the freeness pattern (<60s)", check)


def test_criterion_6_congruence_suite():
    def check():
        start = time.perf_counter()
        primes = [p for p in range(3, 102) if mod_arith.is_odd_prime(p)]
        assert len(primes) == 25
        for p in primes:
            pa = height_params(p)
            assert mod_arith.congruence_check(pa) is True
            k = mod_arith.invariant_delta_exponent(pa)
            assert (-p * k + mod_arith.det_tau_exponent(pa)) % (pa.n ** 2) == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"runtime {elapsed:.3f}s"

    criterion(6, "the invariance congruence holds for every odd prime up to 101 (<1s)", check)


def test_criterion_7_property_suites():
    def check():
        # structural invariants on every produced page
        for p in PRIMES:
            pa = height_params(p)
            for group in eng.GROUPS:
                record = eng.run_to_einfty(group, pa)
                eng.verify_bidegree_law(record.diffs[0], pa)
                eng.verify_bidegree_law(record.diffs[1], pa)
                oracles.verify_d_squared(record)
                oracles.verify_lattice_equivariance(record)
                oracles.verify_coefficient_law(group, pa)
                oracles.verify_duality_involution(record)
        # freeness <=> vanishing Tate cohomology on 200 random modules
        rng = np.random.default_rng(20260810)
        for trial in range(200):
            p = int(rng.choice(PRIMES))
            module, blocks = random_cp_module(rng, p, max_dim=40)
            assert module.dim <= 40
            free = cp_rep.jordan_decompose(module).all_full(p)
            tate = cp_rep._tate_data(module).tate
            assert free == ((tate.even_dim, tate.odd_dim) == (0, 0)), (trial, blocks)

    criterion(7, "property suites: degrees, d o d, lattice, duality, coefficients, 200 random modules", check)


def test_criterion_8_periodicity():
    def check():
        for p in PRIMES:
            pa = height_params(p)
            n = pa.n
            rec = eng.run_to_einfty("Cp", pa)
            view = oracles.hfpss_view(rec)
            survivors = view.zero_line_einfty_exponents(-2 * p, 2 * p + 1)
            assert survivors == [j for j in range(-2 * p, 2 * p + 1) if j % p == 0]
            assert ds.periodicity("Cp", pa) == 2 * p * p
            for group in ("F", "G"):
                recg = eng.run_to_einfty(group, pa)
                viewg = oracles.hfpss_view(recg)
                survivors = viewg.zero_line_einfty_exponents(-2 * p, 2 * p + 1)
                assert survivors == [j for j in range(-2 * p, 2 * p + 1) if j % p == 0]
                assert ds.periodicity(group, pa) == 2 * n * n * p * p

    criterion(8, "zero-line fixed-point survivors are p-th powers; periodicities 2p^2 and 2n^2p^2", check)


def test_criterion_9_chart_goldens():
    def check():
        spec_cp = cr.ChartSpec(group="Cp", p=5, page=2, x_min=-20, x_max=20, s_min=-10, s_max=10)
        assert cr.render(spec_cp) == (GOLDEN / "chart_cp_p5_e2.txt").read_text()
        spec_f = cr.ChartSpec(group="F", p=5, page=2, x_min=-170, x_max=170, s_min=-9, s_max=9)
        assert cr.render(spec_f) == (GOLDEN / "chart_f_p5_e2.txt").read_text()
        # dot structure: towers spaced by the delta degree (Cp), the wide
        # beta/Delta lattice (F)
        doc = cr.build_document(spec_cp)
        positions = {(d["x"], d["s"]) for d in doc["dots"]}
        for x in range(-20, 21):
            for s in range(-10, 11):
                assert ((x, s) in positions) == ((x + s + 2 * (s % 2)) % 10 == 0)
        docf = cr.build_document(spec_f)
        n = 4
        posf = {(d["x"], d["s"]) for d in docf["dots"]}
        for x, s in posf:
            eps = s % 2
            i = (s - eps) // 2
            assert ((x + s) - 2 * n * eps - 40 * i) % 160 == 0

    criterion(9, "ASCII charts match the committed goldens byte for byte", check)
