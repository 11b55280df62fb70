"""Freeness verdicts, nilpotence reports and Jordan profiles for symmetric
powers of the height modules U_k, from exponent rows alone; this module
imports no numpy.

U_j has the variables x_0, ..., x_(v-1), v = n - j + 1, in the order of
cp_rep.u_k_module: zeta x_t = x_t + x_(t+1), and x_(v-1) is invariant.
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
rank one exponent row at a time, so only the pivots stay live.  Only when
rank D falls short does a degree import cp_rep, for a rank of z
(cp_rep._free_by_rank).  By the periodicity of free_flags_by_k, the bases
b < p decide every degree, and by its induction one certificate per level,
Sym^(j+1)(U_j) free, decides every base, so the verdicts rank D on those
powers alone, of dimension C(p, j + 1).  One rank of D also proves the
Jordan profile of a base (jordan_profile), so sympow and the Tate
dimensions of the nilpotence reports take no freeness pass and import
cp_rep only to decompose a base that the bounds leave open.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple

from .errors import InvalidInput, ResourceGuard
from .mod_arith import HeightParams

# the largest symmetric power a walk builds or a verdict ranks
DIM_CAP = 50_000
# the largest dimension at which cp_rep makes z a dense matrix, and so the
# largest power whose profile sympow takes
DENSE_LIMIT = 2000
# the dense cells, dim^2 summed over degrees, that one nilpotence_reports may rank
TATE_CELLS = 2**23


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
    certified by rank D = dim - dim/p, or else by one rank of z, budgeted
    before it is built; every level is, so the flags are k < b.  The levels
    are ranked top first, and no other power is ranked.  Before any row is
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
    certified = {}
    for j, dim in reversed(dims.items()):
        certified[j] = weight_rank(p, n - j + 1, j + 1) == dim - dim // p
        if not certified[j]:
            from . import cp_rep, linalg

            linalg.check_rank_budget((dim, dim), p, f"k={j} degree {j + 1} has dimension {dim}: ")
            walk = cp_rep._symmetric_walk(cp_rep.u_k_module(params, j), j + 1)
            certified[j] = cp_rep._free_by_rank(deque(walk, maxlen=1)[0][1])
    return {k: [k < b and all(certified[j] for j in range(k, b)) for b in range(min(p - 1, caps[k]) + 1)]
            for k in caps}


def jordan_profile(params: HeightParams, k: int, deg: int) -> JordanProfile:
    """The Jordan profile of Sym^deg(U_k): by the periodicity that
    free_flags_by_k states, the blocks of its base Sym^b(U_k), b = deg mod
    p, and (dim_deg - dim_b)/p more of size p.

    Base: as no block is larger than p, there are at least c = ceil(dim/p)
    blocks and rank z <= dim - c, and rank z >= rank D, so rank D = dim - c
    proves exactly c blocks.  Summing to dim = q p + r, they are forced to
    be q of size p and one of size r when r = 0 (the freeness certificate:
    Sym^b(U_k) is free), c = 1 or c p - dim = 1.  U_n, degree 0 and degree 1
    are such leaves, with rank D = 0, 0 and v - 1.  Where the rank is silent,
    cp_rep decomposes Sym^b(U_k), whose dimension is at most that of
    Sym^deg(U_k); no power past degree p - 1 is built."""
    p, nvars, b = params.p, level_vars(params, k), deg % params.p
    dim = symmetric_dimension(nvars, b)
    q, r = divmod(dim, p)
    if (r == 0 or q == 0 or r == p - 1) and weight_rank(p, nvars, b) == dim - q - (r > 0):
        base = (p,) * q + ((r,) if r else ())
    else:
        from . import cp_rep

        base = cp_rep.jordan_decompose(cp_rep.symmetric_power(cp_rep.u_k_module(params, k), b)).blocks
    return JordanProfile((p,) * ((symmetric_dimension(nvars, deg) - dim) // p) + base)


# ---------------------------------------------------------------------------
# the nilpotence suite


# tate, the dimension of both Tate groups, is None where unknown
DegreeSummary = namedtuple("DegreeSummary", "deg dim tate free")


class NilpotenceReport(namedtuple("NilpotenceReport", "p k max_deg degrees windows holds trivial",
                                  defaults=(False,))):
    __slots__ = ()

    def to_json(self) -> dict:
        degrees = [{"degree": d.deg, "dimension": d.dim, "even_dim": d.tate, "odd_dim": d.tate,
                    "free": d.free} for d in self.degrees]
        return {"p": self.p, "k": self.k, "max_degree": self.max_deg, "holds": self.holds,
                "trivial": self.trivial, "windows_checked": self.windows, "degrees": degrees}


def tate_bases(params: HeightParams, caps: dict[int, int]) -> dict[int, list[int]]:
    """For each k of caps, the base degrees b <= min(k, caps[k]), which the
    verdict's pattern leaves not free, with Sym^b(U_k) dense: the bases whose
    Tate dimensions --json fills.  Refused, lowest k first, naming k and b,
    where their squared dimensions pass TATE_CELLS in total."""
    cells, bases = 0, {}
    for k in sorted(caps):
        bases[k] = []
        for b in range(min(k, caps[k]) + 1):
            dim = symmetric_dimension(level_vars(params, k), b)
            if dim > DENSE_LIMIT:
                break
            cells += dim * dim
            if cells > TATE_CELLS:
                raise ResourceGuard(f"the Tate dimensions up to k={k} degree {b} would rank {cells} dense cells, "
                                    f"over the {TATE_CELLS} budget")
            bases[k].append(b)
    return bases


def nilpotence_reports(
    params: HeightParams, caps: dict[int, int], tate_dims: bool
) -> list[NilpotenceReport]:
    """One report for each k of caps, in order, up to caps[k].  One pass of
    free_flags_by_k first decides every k with a verdict to find (1 <= k <
    n, caps[k] > k), whose report then comes from its flags through
    nilpotence_report.  With tate_dims, the report lists each degree up to
    caps[k], which DIM_CAP bounds, and every degree that is not free, with
    its base among tate_bases, gets the Tate dimension of that base from
    jordan_profile, once per base; both are checked before the pass.  k = 0
    gets the trivial report; any other k outside [1, n - 1], or with caps[k]
    < k + 1, is refused when its turn comes, after the pass."""
    p, n = params.p, params.n
    decided = {k: d for k, d in caps.items() if 1 <= k < n and d > k}
    if tate_dims:
        bases = tate_bases(params, decided)
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
            raise InvalidInput(f"k must lie in [0, {n - 1}]")
        elif max_deg < k + 1:
            raise InvalidInput(f"--max-degree {max_deg} is below k + 1 = {k + 1} for k={k}")
        else:
            report = nilpotence_report(params, k, flags[k], max_deg)
            if tate_dims:
                free, nvars = flags[k], level_vars(params, k)
                tate = {b: 0 if f else jordan_profile(params, k, b).tate_dim(p)
                        for b, f in enumerate(free) if f or b in bases[k]}
                report = report._replace(degrees=tuple(DegreeSummary(
                    d, symmetric_dimension(nvars, d), tate.get(d % p), free[d % p]) for d in range(max_deg + 1)))
            reports.append(report)
    return reports


def nilpotence_report(params: HeightParams, k: int, flags: list[bool], max_deg: int) -> NilpotenceReport:
    """Check that the (k+1)-fold multiplication by the invariant variable is
    zero on Tate cohomology of symmetric powers of U_k, 1 <= k <= n - 1, in
    all start degrees m with m + k + 1 <= max_deg, given the flags of the
    base degrees that free_flags_by_k has decided for k; it lists no degree.

    A composite vanishes when its window holds a free degree, as the
    freeness pattern (k+1 <= d mod p <= p-1) guarantees for valid inputs.
    The windows at m and m + p hold the same flags, so those that start in
    one period decide every window.  Each window of k + 2 degrees that are
    not free goes to the explicit test cp_rep._window_vanishes.
    """
    p = params.p
    open_starts = {m for m in range(min(p, max_deg - k)) if not any(flags[d % p] for d in range(m, m + k + 2))}
    holds = True
    for m in range(max_deg - k) if open_starts else ():
        if m % p in open_starts:
            from . import cp_rep

            window = deque(cp_rep._symmetric_walk(cp_rep.u_k_module(params, k), m + k + 1), maxlen=k + 2)
            holds = cp_rep._window_vanishes(p, list(window)) and holds
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
