"""Exponent arithmetic for the determinant twist at height n = p - 1.

Everything here happens in plain integers.  The Teichmueller unit eta has
order n^2 in the units of the coefficient ring, and the determinant of the
semidirect-product generator tau acts on a twisted class delta^k by
eta^(-p*k + (p^n - 1)/n).  Finding the invariant power of delta is therefore
a congruence modulo n^2, which we solve and cross-check exactly.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvalidInput


class InvalidPrime(InvalidInput):
    """The height parameter p is not an odd prime in the supported range."""


MAX_PRIME = 1000
# the groups and chart formats, here for a parser that loads no engine
GROUPS = ("Cp", "F", "G")
FORMATS = ("ascii", "svg", "json")


def is_odd_prime(p: int) -> bool:
    """Deterministic trial division; adequate for p <= 1000."""
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class HeightParams(namedtuple("HeightParams", "p n q")):
    """The numeric setting: odd prime p, height n = p - 1, q = p^n.

    n is even and coprime to p, which is what makes the congruences below
    uniquely solvable.
    """

    __slots__ = ()

    def __new__(cls, p: int, n: int, q: int) -> HeightParams:
        if not is_odd_prime(p):
            raise InvalidPrime(f"p must be an odd prime, got {p}")
        if p > MAX_PRIME:
            raise InvalidPrime(f"p = {p} exceeds supported range ({MAX_PRIME})")
        if n != p - 1:
            raise ValueError(f"n must equal p - 1, got n={n} for p={p}")
        if q != p**n:
            raise ValueError("q must equal p^n")
        assert n % 2 == 0
        return super().__new__(cls, p, n, q)


def height_params(p: int) -> HeightParams:
    """Build and validate the parameters for an odd prime p."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise InvalidPrime(f"p must be an integer, got {p!r}")
    if not is_odd_prime(p):
        raise InvalidPrime(f"p must be an odd prime, got {p}")
    return HeightParams(p=p, n=p - 1, q=p ** (p - 1))


def det_tau_exponent(params: HeightParams) -> int:
    """The exponent of eta in the determinant action of tau, mod n^2.

    tau twists a class x by eta^((p^n - 1)/n); since eta has order n^2 only
    the residue of (p^n - 1)/n modulo n^2 matters.  Returned as the least
    nonnegative representative.
    """
    p, n = params.p, params.n
    e = (p**n - 1) // n
    return e % (n * n)


def invariant_delta_exponent(params: HeightParams) -> int:
    """The power k with delta^k invariant under the twisted tau action.

    k must solve -p*k + (p^n - 1)/n == 0 mod n^2.  The representative
    returned is k = -(n/2)(n-2); it is asserted to satisfy the congruence
    and, since gcd(p, n^2) = 1, to be the unique solution mod n^2.
    """
    n = params.n
    k = -(n // 2) * (n - 2)
    m = n * n
    assert (-params.p * k + det_tau_exponent(params)) % m == 0
    # uniqueness: p is invertible mod n^2, so the solution is a single residue
    assert k % m == (pow(params.p, -1, m) * det_tau_exponent(params)) % m
    return k


def congruence_check(params: HeightParams) -> bool:
    """Exact check of (n/2)(n-2)*p + (p^n - 1)/n == 0 mod n^2."""
    p, n = params.p, params.n
    lhs = (n // 2) * (n - 2) * p + (p**n - 1) // n
    return lhs % (n * n) == 0
