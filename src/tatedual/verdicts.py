"""Freeness verdicts, nilpotence reports and Jordan profiles for symmetric
powers of the height modules U_k, from exponent rows alone; this module
imports no numpy.

U_j has the variables x_0, ..., x_(v-1), v = n - j + 1, x_t = z_(n-t):
zeta x_t = x_t + x_(t+1), and x_(v-1) is invariant.
Give x^a the weight sum_t t a_t.  zeta(x^a) = prod_t (x_t + x_(t+1))^(a_t),
and each term of the expansion moves some factors x_t to x_(t+1), so z =
zeta - 1 raises the weight by at least one; its weight-one part is

    D(x^a) = sum_(t < v-1) (a_t mod p) x^(a - e_t + e_(t+1)).

Ordered by weight, z is strictly block lower triangular with the blocks
D_w, from weight w to w + 1, on its first block subdiagonal.  Without its
first block row and last block column it is block lower triangular with
the D_w on its diagonal, and rank [[A, 0], [C, B]] >= rank A + rank B
(Marsaglia and Styan, Linear and Multilinear Algebra 2, 1974), so rank z
>= sum_w rank D_w = rank D.  No Jordan block of a symmetric power of an
order-p module is larger than p, so there are at least dim/p blocks and
rank z <= dim - dim/p, with equality iff the module is free.  So rank D =
dim - dim/p proves the degree free, exactly.  D's columns stream into its
rank one exponent row at a time, so only the pivots stay live.  By the
periodicity of free_flags_by_k, the bases b < p decide every degree, and by
its induction one certificate per level, Sym^(j+1)(U_j) free, decides every
base, so the verdicts rank D on those powers alone, of dimension C(p, j +
1).  A level whose rank D falls short is not certified, and no other rank
stands in for it: its bases read as not free, and the verdict fails.  None
does: rank D = dim - dim/p on each of the 526 levels that DIM_CAP admits
for the primes up to MAX_PRIME.  The Jordan profile of a base is read off
its characteristic-0 character (jordan_profile), with no rank, so sympow
and the Tate dimensions of the nilpotence reports take no freeness pass.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import InvalidInput, ResourceGuard, VerificationFailure
from .mod_arith import HeightParams

# the largest symmetric power a walk builds or a verdict ranks
DIM_CAP = 50_000
# the largest power whose profile sympow prints, as it lists every block;
# also the largest dimension at which cp_rep makes z a dense matrix
DENSE_LIMIT = 2000


class JordanProfile(namedtuple("JordanProfile", "blocks")):
    """Multiset of Jordan block sizes of the generator, stored descending."""

    __slots__ = ()

    @property
    def total(self) -> int:
        return sum(self.blocks)

    def all_full(self, p: int) -> bool:
        return all(b == p for b in self.blocks)

    def tate_dim(self, p: int) -> int:
        """The common dimension of both Tate groups: a block of size p is
        free, and every smaller block contributes one class to each."""
        return sum(1 for b in self.blocks if b < p)

    def to_json(self) -> dict:
        return {"blocks": list(self.blocks), "total": self.total}


def symmetric_dimension(nvars: int, deg: int) -> int:
    if deg < 0:
        raise InvalidInput(f"degree must be nonnegative, got {deg}")
    return math.comb(deg + nvars - 1, nvars - 1)


def check_dim_cap(nvars: int, deg: int, context: str = "") -> int:
    """The dimension of a symmetric power; refused, prefixed by context,
    above DIM_CAP."""
    dim = symmetric_dimension(nvars, deg)
    if dim > DIM_CAP:
        raise ResourceGuard(f"{context}symmetric power dimension {dim} exceeds cap {DIM_CAP}")
    return dim


def level_vars(params: HeightParams, k: int) -> int:
    """The number of variables of U_k, z_n, ..., z_k."""
    if not 0 <= k <= params.n:
        raise InvalidInput(f"k must lie in [0, {params.n}], got {k}")
    return params.n - k + 1


def _rank_mod(columns, p: int) -> int:
    """Rank over F_p of sparse columns, each a dict {row: value in [1, p)}:
    each column is reduced on its lowest row by the pivot column kept there,
    until it is zero or its lowest row has none.  Consumes the columns."""
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            low = min(col)
            pivot = pivots.get(low)
            if pivot is None:
                inv = pow(col[low], -1, p)
                pivots[low] = {r: v * inv % p for r, v in col.items()}
                break
            c = col[low]
            for r, v in pivot.items():
                col[r] = (col.get(r, 0) - c * v) % p
                if not col[r]:
                    del col[r]
    return len(pivots)


def _weight_columns(p: int, nvars: int, deg: int):
    """The columns of D on Sym^deg of nvars variables, one per exponent row a
    in descending lex order, each yielded as soon as its row is reached.  A
    monomial's row is its exponents read as digits in base deg + 1, first
    exponent highest, so x^(a - e_t + e_(t+1)) is row(x^a) + shift[t]."""
    scale = [(deg + 1) ** (nvars - 1 - t) for t in range(nvars)]
    shift = [lo - hi for hi, lo in zip(scale, scale[1:])]
    a, row = [deg] + [0] * (nvars - 1), deg * scale[0]
    yield {row + s: e % p for s, e in zip(shift, a) if e % p}
    for _ in range(symmetric_dimension(nvars, deg) - 1):
        # the next row: move one unit from the last positive entry before
        # the end to its right neighbour, together with the whole tail; the
        # tail leaves the last digit, of scale 1, for digit t + 1
        t = max(i for i in range(nvars - 1) if a[i])
        tail, a[-1] = a[-1], 0
        a[t] -= 1
        a[t + 1] = tail + 1
        row += shift[t] + tail * (scale[t + 1] - 1)
        yield {row + s: e % p for s, e in zip(shift, a) if e % p}


def weight_rank(p: int, nvars: int, deg: int) -> int:
    """rank D on Sym^deg of nvars variables."""
    return _rank_mod(_weight_columns(p, nvars, deg), p)


def free_flags_by_k(params: HeightParams, caps: dict[int, int]) -> dict[int, list[bool]]:
    """Whether Sym^b(U_k) is free, b = 0, ..., min(p - 1, caps[k]), for every
    k of caps; degree d of U_k reads the flag of its base d mod p.

    Periodicity: for a Jordan block V_v of size v <= p, Sym^(d+p)(V_v) is
    Sym^d(V_v) plus a free module (G. Almkvist and R. Fossum, LNM 641, 1978;
    see also Hughes and Kemper, Comm. Algebra 28, 2000).  U_k is one block
    of size v = p - k <= p, so Sym^d(U_k) is free exactly when its base is.

    The flag of a base b is k < b and every level j in [k, b) certified:
    Sym^(j+1)(U_j) free.  This folds two rules into one induction on b - k.
    Dimension: by Lucas's theorem p divides C(b + p-1-k, p-1-k) exactly
    when k < b, so no b <= k is free.  Extension: for k + 1 < b, the
    invariant last variable x gives 0 -> x Sym^(b-1)(U_k) -> Sym^b(U_k) ->
    Sym^b(U_(k+1)) -> 0, z is block triangular for that split, and so when
    both ends are free rank z is at least the sum of their free ranks, dim
    - dim/p, and the middle is free.  The ends need the levels [k, b - 1)
    and [k + 1, b), and the base b = k + 1 its own level.  A level is
    certified by rank D = dim - dim/p, and one that falls short is not;
    every level DIM_CAP admits is, so the flags are k < b.  The levels are
    ranked top first, and no other power is ranked.  Before any row is
    built, each k, lowest first, is checked against its range, and the
    certified powers, lowest first, against DIM_CAP."""
    if not caps:
        return {}
    p, n = params.p, params.n
    for k in sorted(caps):
        level_vars(params, k)
    # the levels some flag reads: j < b <= caps[k] for a k <= j
    ranked = [j for j in range(min(caps), n) if any(k <= j < c for k, c in caps.items())]
    dims = {j: check_dim_cap(n - j + 1, j + 1, f"k={j} degree {j + 1}: ") for j in ranked}
    certified = {j: weight_rank(p, n - j + 1, j + 1) == dim - dim // p for j, dim in reversed(dims.items())}
    return {k: [k < b and all(certified[j] for j in range(k, b)) for b in range(min(p - 1, caps[k]) + 1)]
            for k in caps}


def _gaussian_binomial(top: int, low: int) -> list[int]:
    """The coefficients of the Gaussian binomial [top choose low]_q, the
    product of (1 - q^(top - low + i)) / (1 - q^i) over i = 1, ..., low,
    each partial product a polynomial of degree i (top - low): cut there,
    its division by 1 - q^i, low terms first, is exact."""
    low = min(low, top - low)
    poly = [1]
    for i in range(1, low + 1):
        poly += [0] * (top - low)
        for a in range(len(poly) - 1, top - low + i - 1, -1):
            poly[a] -= poly[a - top + low - i]
        for a in range(i, len(poly)):
            poly[a] += poly[a - i]
    return poly


def jordan_profile(params: HeightParams, k: int, deg: int) -> JordanProfile:
    """The Jordan profile of Sym^deg(U_k): by the periodicity that
    free_flags_by_k states, the blocks of its base Sym^b(U_k), b = deg mod
    p, and (dim_deg - dim_b)/p more of size p.

    The base, from its character: U_k is L(v - 1), the tilting (v-1)-th
    symmetric power of the natural module of SL_2, v = p - k <= p,
    restricted to a unipotent element of order p.  For b < p, Sym^b is a
    summand of the b-th tensor power, so Sym^b(L(v - 1)) is tilting
    (C. M. Ringel, Math. Z. 208, 1991; S. Donkin, Math. Z. 212, 1993), and
    T(m) restricts to one block of size m + 1 for m <= p - 2 and to a free
    module for m >= p - 1.  The species of the Green ring of C_p modulo free
    modules, V_n -> sin(n pi j/p) / sin(pi j/p), 0 < j < p (J. A. Green,
    Illinois J. Math. 6, 1962), separate the non-free part; on a tilting
    module they are its character at e^(i pi j/p), which vanishes on every
    T(m), m >= p - 1, by Donkin's tensor product theorem.  In characteristic
    0 the irreducible of dimension m + 1, m = b(v - 1) - 2a >= 0, occurs
    g_a - g_(a-1) times in Sym^b, g the coefficients of the Gaussian
    binomial [b + v - 1 choose b]_q.  Folded to x = (m + 1) mod 2p, it gives
    that many blocks of size x for x < p, none for x in {0, p}, and takes
    that many of size 2p - x away for x > p; the rest are blocks of size p
    (see also G. Almkvist and R. Fossum, LNM 641, 1978; Hughes and Kemper,
    Comm. Algebra 28, 2000)."""
    p, v, b = params.p, level_vars(params, k), deg % params.p
    g, top = _gaussian_binomial(b + v - 1, b), b * (v - 1)
    small: dict[int, int] = {}
    for a in range(top // 2 + 1):
        x, mult = (top - 2 * a + 1) % (2 * p), g[a] - (g[a - 1] if a else 0)
        if 0 < x < p:
            small[x] = small.get(x, 0) + mult
        elif x > p:
            small[2 * p - x] = small.get(2 * p - x, 0) - mult
    dim = symmetric_dimension(v, b)
    free, rest = divmod(dim - sum(size * c for size, c in small.items()), p)
    if rest or free < 0 or min(small.values(), default=0) < 0:
        raise VerificationFailure(f"the fold of Sym^{b} of a block of size {v} at p={p} is no profile")
    free += (symmetric_dimension(v, deg) - dim) // p
    return JordanProfile((p,) * free + tuple(size for size in sorted(small, reverse=True) for _ in range(small[size])))


# ---------------------------------------------------------------------------
# the nilpotence suite


# tate, the common dimension of both Tate groups
DegreeSummary = namedtuple("DegreeSummary", "deg dim tate free")


class NilpotenceReport(namedtuple("NilpotenceReport", "p k max_deg degrees windows holds trivial",
                                  defaults=(False,))):
    __slots__ = ()

    def to_json(self) -> dict:
        degrees = [{"degree": d.deg, "dimension": d.dim, "even_dim": d.tate, "odd_dim": d.tate,
                    "free": d.free} for d in self.degrees]
        return {"p": self.p, "k": self.k, "max_degree": self.max_deg, "holds": self.holds,
                "trivial": self.trivial, "windows_checked": self.windows, "degrees": degrees}


def nilpotence_reports(params: HeightParams, caps: dict[int, int], tate_dims: bool) -> list[NilpotenceReport]:
    """One report for each k of caps, in order, up to caps[k].  One pass of
    free_flags_by_k first decides every k with a verdict to find (1 <= k <
    n, caps[k] > k), whose report then comes from its flags through
    nilpotence_report.  With tate_dims, the report lists each degree up to
    caps[k], with the Tate dimension of its base from jordan_profile, once
    per base; DIM_CAP at caps[k], checked before the pass, bounds both that
    output and every base folded.  k = 0 gets the trivial report; any other
    k outside [1, n - 1], or with caps[k] < k + 1, is refused when its turn
    comes, after the pass."""
    p, n = params.p, params.n
    decided = {k: d for k, d in caps.items() if 1 <= k < n and d > k}
    if tate_dims:
        for k in sorted(decided):
            check_dim_cap(level_vars(params, k), decided[k], f"k={k} degree {decided[k]}: ")
    flags = free_flags_by_k(params, decided)
    reports = []
    for k, max_deg in caps.items():
        if k == 0:
            # p-torsion annihilates everything in positive degrees outright
            reports.append(NilpotenceReport(p=p, k=0, max_deg=max_deg, degrees=(), windows=0, holds=True,
                                            trivial=True))
        elif not 1 <= k <= n - 1:
            raise InvalidInput(f"k must lie in [0, {n - 1}], got {k}")
        elif max_deg < k + 1:
            raise InvalidInput(f"--max-degree {max_deg} is below k + 1 = {k + 1} for k={k}")
        else:
            report = nilpotence_report(params, k, flags[k], max_deg)
            if tate_dims:
                free, nvars = flags[k], level_vars(params, k)
                tate = [jordan_profile(params, k, b).tate_dim(p) for b in range(len(free))]
                report = report._replace(degrees=tuple(DegreeSummary(
                    d, symmetric_dimension(nvars, d), tate[d % p], free[d % p]) for d in range(max_deg + 1)))
            reports.append(report)
    return reports


def nilpotence_report(params: HeightParams, k: int, flags: list[bool], max_deg: int) -> NilpotenceReport:
    """Check that the (k+1)-fold multiplication by the invariant variable is
    zero on Tate cohomology of symmetric powers of U_k, 1 <= k <= n - 1, in
    all start degrees m with m + k + 1 <= max_deg, given the flags of the
    base degrees that free_flags_by_k has decided for k; it lists no degree.

    A composite vanishes when its window holds a free degree, as the
    freeness pattern (k+1 <= d mod p <= p-1) guarantees for valid inputs:
    k + 2 consecutive degrees hold one with d mod p > k.  The windows at m
    and m + p hold the same flags, so those that start in one period decide
    every window.  A window of k + 2 degrees that are not free, which only a
    level left uncertified can make, is not certified, and the report does
    not hold.
    """
    p = params.p
    holds = all(any(flags[d % p] for d in range(m, m + k + 2)) for m in range(min(p, max_deg - k)))
    return NilpotenceReport(p=p, k=k, max_deg=max_deg, degrees=(), windows=max_deg - k, holds=holds)


def default_degree_cap(params: HeightParams, k: int) -> int:
    """Default degree bound for the verification suites: at least one full
    period of p.  The verdicts read every degree off its base d mod p, so it
    costs them nothing; the recorded outputs pin its values."""
    p = params.p
    if p == 3:
        return 3 * p * p
    if p == 5:
        return 20 if k == 1 else p * p
    return 2 * p
