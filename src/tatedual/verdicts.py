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
(cp_rep._free_by_rank).  The same bounds prove the Jordan profile of a
base degree b < p, and the Almkvist-Fossum periodicity adds the free blocks
of every degree b + tp (jordan_profile), so sympow and the Tate dimensions
of the nilpotence reports import cp_rep only to decompose a base degree
that the bounds leave open.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple

from .errors import InvalidInput, ResourceGuard
from .mod_arith import HeightParams

# the largest symmetric power a walk builds or a verdict ranks
DIM_CAP = 50_000
# the monomials that the weight ranks of one freeness pass read, in total
WEIGHT_ROWS = 1_000_000
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


def check_dim_cap(nvars: int, deg: int, context: str = "") -> None:
    """Refuse, prefixed by context, a symmetric power above DIM_CAP."""
    dim = symmetric_dimension(nvars, deg)
    if dim > DIM_CAP:
        raise ResourceGuard(f"{context}symmetric power dimension {dim} exceeds cap {DIM_CAP}")


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
    """Whether Sym^d(U_k) is free, d = 0, ..., caps[k], for every k of caps,
    from one pass down the levels U_n, whose powers are not free, ..., U_k
    for the lowest k.  Each level U_j is decided up to the largest caps[k]
    over k <= j, each (level, degree) at most once.

    A degree whose dimension p does not divide is not free.  One that p
    divides is free if the degree below it and the same degree of U_(j+1)
    are: the invariant last variable x gives 0 -> x Sym^(d-1)(U_j) ->
    Sym^d(U_j) -> Sym^d(U_(j+1)) -> 0, z is block triangular for that split,
    and so rank z is at least the sum of the two free ranks, dim - dim/p.
    Any other such degree, on U_j only d = j + 1 mod p, is free if rank D
    = dim - dim/p, and otherwise takes one rank of z, budgeted just before
    its level is walked that far.

    Before any row is built, each k, lowest first, is checked against its
    range and DIM_CAP at caps[k], and the ranks of D at d = j + 1 mod p, the
    pattern the verdict proves, against WEIGHT_ROWS."""
    if not caps:
        return {}
    p, n, low = params.p, params.n, min(caps)
    for k in sorted(caps):
        check_dim_cap(level_vars(params, k), caps[k], f"k={k} degree {caps[k]}: ")
    # reach[j]: the last degree of U_j that some k <= j reads
    reach = {j: max(c for k, c in caps.items() if k <= j) for j in range(low, n + 1)}
    rows = sum(symmetric_dimension(n - j + 1, d) for j in range(low, n) for d in range(j + 1, reach[j] + 1, p))
    if rows > WEIGHT_ROWS:
        raise ResourceGuard(f"the freeness ranks from k={low} read {rows} monomials, over the {WEIGHT_ROWS} budget")
    levels = {n: [False] * (reach[n] + 1)}
    for j in range(n - 1, low - 1, -1):
        upper, flags, walk, nvars = levels[j + 1], [False], None, n - j + 1
        for deg in range(1, reach[j] + 1):
            dim = symmetric_dimension(nvars, deg)
            if dim % p:
                flags.append(False)
            elif (flags[-1] and upper[deg]) or weight_rank(p, nvars, deg) == dim - dim // p:
                flags.append(True)
            else:
                from . import cp_rep, linalg

                linalg.check_rank_budget((dim, dim), p, f"k={j} degree {deg} has dimension {dim}: ")
                walk = walk or cp_rep._symmetric_walk(cp_rep.u_k_module(params, j), reach[j])
                flags.append(cp_rep._free_by_rank(next(m for d, m, _ in walk if d == deg)))
        levels[j] = flags
    return {k: levels[k][: caps[k] + 1] for k in caps}


def jordan_profile(params: HeightParams, k: int, deg: int) -> JordanProfile:
    """The Jordan profile of Sym^deg(U_k), from that of its base degree b =
    deg mod p.

    Periodicity: for a Jordan block V_v of size v <= p, Sym^(d+p)(V_v) is
    Sym^d(V_v) plus a free module (G. Almkvist and R. Fossum, LNM 641, 1978;
    see also Hughes and Kemper, Comm. Algebra 28, 2000).  U_k is one block
    of size v = p - k <= p, so Sym^deg(U_k) has the blocks of Sym^b(U_k)
    and (dim_deg - dim_b)/p more of size p.

    Base: a free Sym^b(U_k), by its freeness flag, is dim/p blocks of size
    p.  Otherwise, as no block is larger than p, there are at least c =
    ceil(dim/p) blocks and rank z <= dim - c, and rank z >= rank D, so rank
    D = dim - c proves exactly c blocks.  Summing to dim = q p + r, they are
    forced to be q of size p and one of size r when c = 1 or c p - dim = 1.
    U_n, degree 0 and degree 1 are such leaves, with rank D = 0, 0 and v -
    1.  Where both are silent, cp_rep decomposes Sym^b(U_k), whose dimension
    is at most that of Sym^deg(U_k); no power past degree p - 1 is built."""
    p = params.p
    nvars, b = level_vars(params, k), deg % p
    q, r = divmod(symmetric_dimension(nvars, b), p)
    # a free leaf, or c = q + 1 blocks, forced where c = 1 or c p - dim = p - r = 1
    if free_flags_by_k(params, {k: b})[k][b] or (r and (q == 0 or r == p - 1)
                                                 and weight_rank(p, nvars, b) == q * p + r - (q + 1)):
        base = (p,) * q + ((r,) if r else ())
    else:
        from . import cp_rep

        base = cp_rep.jordan_decompose(cp_rep.symmetric_power(cp_rep.u_k_module(params, k), b)).blocks
    return JordanProfile((p,) * ((symmetric_dimension(nvars, deg) - q * p - r) // p) + base)


# ---------------------------------------------------------------------------
# the nilpotence suite


# even_dim and odd_dim are None where unknown
DegreeSummary = namedtuple("DegreeSummary", "deg dim even_dim odd_dim free")


class NilpotenceReport(namedtuple("NilpotenceReport", "p k max_deg degrees windows holds trivial",
                                  defaults=(False,))):
    __slots__ = ()

    def to_json(self) -> dict:
        degrees = [{"degree": d.deg, "dimension": d.dim, "even_dim": d.even_dim, "odd_dim": d.odd_dim,
                    "free": d.free} for d in self.degrees]
        return {"p": self.p, "k": self.k, "max_degree": self.max_deg, "holds": self.holds,
                "trivial": self.trivial, "windows_checked": self.windows, "degrees": degrees}


def check_tate_budget(params: HeightParams, caps: dict[int, int]) -> None:
    """Refuse the Tate dimensions of every k of caps, lowest first, where the
    dense degrees that the verdict's pattern leaves not free, d <= caps[k]
    with d mod p <= k, pass TATE_CELLS in total, naming that k and degree."""
    cells = 0
    for k in sorted(caps):
        for d in range(caps[k] + 1):
            dim = symmetric_dimension(level_vars(params, k), d)
            if dim > DENSE_LIMIT:
                break
            cells += dim * dim if d % params.p <= k else 0
            if cells > TATE_CELLS:
                raise ResourceGuard(f"the Tate dimensions up to k={k} degree {d} would rank {cells} dense cells, "
                                    f"over the {TATE_CELLS} budget")


def nilpotence_reports(
    params: HeightParams, caps: dict[int, int], tate_dims: bool
) -> list[NilpotenceReport]:
    """One report for each k of caps, in order, up to caps[k].  One pass of
    free_flags_by_k first decides every k with a verdict to find (1 <= k <
    n, caps[k] > k), whose report then comes from its flags through
    nilpotence_report.  With tate_dims, check_tate_budget runs before the
    pass, and every dense degree that is not free gets the Tate dimension of
    its base degree d mod p from jordan_profile, once per base.
    k = 0 gets the trivial report; any other k outside [1, n - 1], or with
    caps[k] < k + 1, is refused when its turn comes, after the pass."""
    p, n = params.p, params.n
    decided = {k: d for k, d in caps.items() if 1 <= k < n and d > k}
    if tate_dims:
        check_tate_budget(params, decided)
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
            raise InvalidInput("max_deg must be at least k + 1")
        else:
            report = nilpotence_report(params, k, flags[k])
            if tate_dims:
                todo = {d for d in report.degrees if not d.free and d.dim <= DENSE_LIMIT}
                tate = {b: jordan_profile(params, k, b).tate_dim(p) for b in {d.deg % p for d in todo}}
                report = report._replace(degrees=tuple(
                    d._replace(even_dim=tate[d.deg % p], odd_dim=tate[d.deg % p]) if d in todo else d
                    for d in report.degrees))
            reports.append(report)
    return reports


def nilpotence_report(params: HeightParams, k: int, flags: list[bool]) -> NilpotenceReport:
    """Check that the (k+1)-fold multiplication by the invariant variable is
    zero on Tate cohomology of symmetric powers of U_k, 1 <= k <= n - 1, in
    all start degrees m with m + k + 1 <= max_deg, given the flags that
    free_flags_by_k has decided for k, one per degree d <= max_deg.

    A free degree reports Tate dimensions 0 and any other unknown ones
    (None).  A composite vanishes when its window holds a free degree, as
    the freeness pattern (k+1 <= d mod p <= p-1) guarantees for valid
    inputs; a window of k+2 degrees that are not free goes to the explicit
    test cp_rep._window_vanishes.
    """
    p, n, max_deg = params.p, params.n, len(flags) - 1
    summaries, run, holds = [], 0, True
    for deg, free in enumerate(flags):
        tate = 0 if free else None
        summaries.append(DegreeSummary(deg, symmetric_dimension(n - k + 1, deg), tate, tate, free))
        # a vanishing degree makes every composite through it zero
        run = 0 if free else run + 1
        if run >= k + 2:
            from . import cp_rep

            window = deque(cp_rep._symmetric_walk(cp_rep.u_k_module(params, k), deg), maxlen=k + 2)
            holds = cp_rep._window_vanishes(p, list(window)) and holds
    return NilpotenceReport(p=p, k=k, max_deg=max_deg, degrees=tuple(summaries), windows=max_deg - k,
                            holds=holds)


def default_degree_cap(params: HeightParams, k: int) -> int:
    """Default degree bound for the verification suites.

    Chosen to cover at least one full period of p in every residue class
    while keeping the dense-rank path fast; the one large family at p = 5
    (k = 1, dimensions up to 1771) gets the tighter bound."""
    p = params.p
    if p == 3:
        return 3 * p * p
    if p == 5:
        return 20 if k == 1 else p * p
    return 2 * p
