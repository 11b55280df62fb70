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


class HeightParams(namedtuple("HeightParams", "p n")):
    """The numeric setting: odd prime p and height n = p - 1.

    n is even and coprime to p, which is what makes the congruences below
    uniquely solvable.
    """

    __slots__ = ()

    def __new__(cls, p: int, n: int) -> HeightParams:
        if not is_odd_prime(p):
            raise InvalidPrime(f"p must be an odd prime, got {p}")
        if p > MAX_PRIME:
            raise InvalidPrime(f"p = {p} exceeds supported range ({MAX_PRIME})")
        return super().__new__(cls, p, n)


def height_params(p: int) -> HeightParams:
    """Build and validate the parameters for an odd prime p."""
    return HeightParams(p=p, n=p - 1)


def invariant_delta_exponent(params: HeightParams) -> int:
    """The power k with delta^k invariant under the twisted tau action.

    k must solve -p*k + (p^n - 1)/n == 0 mod n^2.  The representative
    returned is k = -(n/2)(n-2); since gcd(p, n^2) = 1 the solution is a
    single residue mod n^2, and that k lies in it is exactly
    congruence_check.  `shifts --route both` cross-checks k against the
    dual route.
    """
    n = params.n
    return -(n // 2) * (n - 2)


def congruence_check(params: HeightParams) -> bool:
    """Exact check of (n/2)(n-2)*p + (p^n - 1)/n == 0 mod n^2."""
    p, n = params.p, params.n
    lhs = (n // 2) * (n - 2) * p + (p**n - 1) // n
    return lhs % (n * n) == 0
