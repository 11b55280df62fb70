from __future__ import annotations

import pytest

from tatedual import mod_arith
from tatedual.mod_arith import (
    HeightParams,
    InvalidPrime,
    congruence_check,
    height_params,
    invariant_delta_exponent,
    is_odd_prime,
)

from oracles import det_tau_exponent, jordan_block_module

ODD_PRIMES_TO_101 = [p for p in range(3, 102) if is_odd_prime(p)]


def test_height_params_fields():
    pa = height_params(5)
    assert (pa.p, pa.n) == (5, 4)


@pytest.mark.parametrize("bad", [2, 4, 9, 1, 0, -3, 15])
def test_rejects_non_odd_primes(bad):
    with pytest.raises(InvalidPrime):
        height_params(bad)


def test_height_params_immutable_hashable_equal_by_value():
    pa = height_params(5)
    with pytest.raises(AttributeError):
        pa.p = 7
    assert pa == HeightParams(p=5, n=4) and pa != height_params(7)
    assert hash(pa) == hash(height_params(5))
    assert {pa: 1}[height_params(5)] == 1


def test_engine_records_immutable_keep_fields_and_equality():
    import numpy as np

    from tatedual import chart_render, cp_rep, duality_shifts, linalg
    from tatedual import tate_engine as eng

    cls = eng.MonomialClass(1, 2, -1, "Cp")
    assert (cls.eps, cls.i, cls.j, cls.family) == (1, 2, -1, "Cp")
    assert cls == eng.MonomialClass(eps=1, i=2, j=-1, family="Cp") != cls.translate(0, 1)
    spec = chart_render.ChartSpec("F", 5, 2, -3, 3, 0, 4)
    assert spec.fmt == "ascii" and spec.window() == (-3, 3, 0, 4)
    assert spec == chart_render.ChartSpec(group="F", p=5, page=2, x_min=-3, x_max=3, s_min=0, s_max=4, fmt="ascii")
    report = duality_shifts.shift_report("F", height_params(5))
    assert (report.group, report.p, report.route, report.shift) == ("F", 5, "both", 116)
    assert report == duality_shifts.shift_report("F", height_params(5)) != report._replace(route="dual")
    record = eng.run_to_einfty("Cp", height_params(3))
    assert record.pages[0] == eng.e2_page("Cp", height_params(3)) != record.pages[1]
    assert record.diffs[0] == eng.differential_map(record.pages[0])
    assert cp_rep.JordanProfile((3, 2)) == cp_rep.JordanProfile(blocks=(3, 2)) != cp_rep.JordanProfile((3, 1, 1))
    assert cp_rep.TateDims(1, 1) == cp_rep.TateDims(even_dim=1, odd_dim=1)
    module = jordan_block_module(5, 3)
    data = cp_rep._tate_data(module)
    triplets = cp_rep._z_triplets(module)
    assert (module.p, module.dim, data.tate, triplets.shape) == (5, 3, (1, 1), (3, 3))
    assert isinstance(triplets, linalg.Triplets) and isinstance(data.ker_z, np.ndarray)
    for rec in (cls, spec, report, record, record.pages[0], record.diffs[0],
                cp_rep.JordanProfile((3,)), data.tate, module, data, triplets):
        with pytest.raises(AttributeError):
            rec.p = 7
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], None)


def test_report_records_keep_fields_and_equality():
    from tatedual.verdicts import DegreeSummary, NilpotenceReport

    d = DegreeSummary(3, 4, None, False)
    assert (d.deg, d.dim, d.tate, d.free) == (3, 4, None, False)
    assert d == DegreeSummary(deg=3, dim=4, tate=None, free=False)
    assert d != DegreeSummary(3, 4, 0, True)
    r = NilpotenceReport(p=5, k=1, max_deg=3, degrees=(d,), windows=2, holds=True)
    assert (r.p, r.k, r.max_deg, r.degrees, r.windows, r.holds, r.trivial) == (5, 1, 3, (d,), 2, True, False)
    assert r == NilpotenceReport(5, 1, 3, (d,), 2, True, False) != r._replace(holds=False)
    with pytest.raises(AttributeError):
        r.holds = False


@pytest.mark.parametrize("p,expected", [(3, 0), (5, 12), (7, 24)])
def test_det_tau_exponent(p, expected):
    # independent route: plain integer arithmetic
    n = p - 1
    assert (p**n - 1) // n % (n * n) == expected
    assert det_tau_exponent(height_params(p)) == expected


@pytest.mark.parametrize("p,expected", [(3, 0), (5, -4), (7, -12)])
def test_invariant_delta_exponent(p, expected):
    assert invariant_delta_exponent(height_params(p)) == expected


@pytest.mark.parametrize("p,expected", [(3, 0), (5, 12), (7, 24)])
def test_invariant_delta_residue(p, expected):
    assert invariant_delta_exponent(height_params(p)) % (p - 1) ** 2 == expected


@pytest.mark.parametrize("p", [3, 5, 7])
def test_congruence_examples(p):
    assert congruence_check(height_params(p)) is True


@pytest.mark.parametrize("p", ODD_PRIMES_TO_101)
def test_congruence_all_odd_primes_to_101(p):
    assert congruence_check(height_params(p))


@pytest.mark.parametrize("p", ODD_PRIMES_TO_101)
def test_invariant_exponent_solves_congruence(p):
    pa = height_params(p)
    n = pa.n
    k = invariant_delta_exponent(pa)
    assert (-p * k + det_tau_exponent(pa)) % (n * n) == 0


@pytest.mark.parametrize("p", ODD_PRIMES_TO_101)
def test_invariant_exponent_is_p_inverse_times_det(p):
    pa = height_params(p)
    m = pa.n * pa.n
    lhs = invariant_delta_exponent(pa) % m
    rhs = (det_tau_exponent(pa) * pow(p, -1, m)) % m
    assert lhs == rhs


@pytest.mark.parametrize("p", ODD_PRIMES_TO_101)
def test_twice_p_times_invariant_exponent_is_suspension(p):
    pa = height_params(p)
    n = pa.n
    assert 2 * p * invariant_delta_exponent(pa) == -p * n * (n - 2)


@pytest.mark.parametrize("p", ODD_PRIMES_TO_101)
def test_invariant_exponents(p):
    # brute force over two periods each side: the solutions of
    # -p*j + (p^n - 1)/n = 0 mod n^2 are exactly one residue class
    n = p - 1
    m = n * n
    tau = (p**n - 1) // n
    window = range(-2 * m, 2 * m)
    sols = [j for j in window if (-p * j + tau) % m == 0]
    residue = invariant_delta_exponent(height_params(p)) % m
    assert sols == [j for j in window if j % m == residue]


def test_trial_division_matches_known_primes():
    known = {2}
    for m in range(3, 500):
        if all(m % d for d in range(2, m)):
            known.add(m)
    for m in range(3, 500):
        assert is_odd_prime(m) == (m in known and m != 2)


def test_prime_range_guard():
    with pytest.raises(InvalidPrime):
        height_params(1009)
    assert mod_arith.MAX_PRIME == 1000
