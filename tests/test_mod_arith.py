from __future__ import annotations

import pytest

from tatedual import mod_arith
from tatedual.mod_arith import (
    HeightParams,
    InvalidPrime,
    congruence_check,
    det_tau_exponent,
    height_params,
    invariant_delta_exponent,
    invariant_delta_residue,
    is_odd_prime,
)

ODD_PRIMES_TO_101 = [p for p in range(3, 102) if is_odd_prime(p)]


def test_height_params_fields():
    pa = height_params(5)
    assert (pa.p, pa.n, pa.q) == (5, 4, 625)


@pytest.mark.parametrize("bad", [2, 4, 9, 1, 0, -3, 15])
def test_rejects_non_odd_primes(bad):
    with pytest.raises(InvalidPrime):
        height_params(bad)


def test_rejects_inconsistent_fields():
    with pytest.raises(ValueError):
        HeightParams(p=5, n=3, q=625)
    with pytest.raises(ValueError):
        HeightParams(p=5, n=4, q=125)


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
    assert invariant_delta_residue(height_params(p)) == expected


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
    residue = invariant_delta_residue(height_params(p))
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
