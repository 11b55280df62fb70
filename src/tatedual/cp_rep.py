"""Brute-force modular representation theory of the cyclic group C_p.

A module is a matrix over the prime field giving the action of a fixed
generator zeta with zeta^p = 1.  The tools here extend the action to
symmetric powers on the monomial basis and read everything else off ranks
of powers of z = zeta - 1: the Jordan profile, freeness, and the common
dimension of the two Tate cohomology groups ker(z)/im(N) and ker(N)/im(z),
where N = 1 + zeta + ... + zeta^(p-1) = z^(p-1).

Symmetric powers keep their action as coalesced linalg.Triplets at every
degree.  Freeness is ranked from the triplets of z at every dimension; z is
made a dense matrix only up to DENSE_LIMIT.  sympow takes its Tate
dimension from the Jordan profile: each block smaller than p contributes
one class to each Tate group, and a block of size p none.  The
verification suites walk the symmetric powers of a height module once,
degree by degree, and work from ranks: a module is free iff
rank(z) = dim - dim/p, and both Tate groups have dimension
dim - rank(z) - rank(N), where N is never formed: rank(N) is the rank of
its dim - rank(z) rows outside a set of independent columns of z, made by
skinny products with z.  Multiplication by the invariant bottom variable
vanishes on Tate cohomology in every window of consecutive degrees that
contains a degree with vanishing cohomology; only a window without one would
be tested with explicit subquotient bases and induced-map matrices, the one
place they are built.

Everything is computed over F_p.  Coefficient extensions to F_{p^n} only
rescale multiplicities, so dimension counts, freeness and vanishing
statements are unaffected.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import linalg
from .errors import InvalidInput, ResourceGuard
from .linalg import DENSE_LIMIT
from .mod_arith import HeightParams

# the largest symmetric power a walk builds
DIM_CAP = 50_000


@dataclass(frozen=True, eq=False)
class CpModule:
    """A finite-dimensional C_p-representation over F_p.

    gen_action is the matrix of the chosen generator: an int64 array for a
    Jordan block (and for the direct sums the tests build), coalesced
    linalg.Triplets for symmetric powers.  Its columns follow the basis
    order of the constructor: z_n, ..., z_k for u_k_module, and the
    descending-lex monomials of _monomials for symmetric powers.  The order of the action is not checked here;
    jordan_decompose raises on an action whose order is not p.
    """

    p: int
    dim: int
    gen_action: object

    def is_dense(self) -> bool:
        """Whether z is a dense matrix: always for an array action, up to
        DENSE_LIMIT for Triplets."""
        return isinstance(self.gen_action, np.ndarray) or self.dim <= DENSE_LIMIT


@dataclass(frozen=True)
class JordanProfile:
    """Multiset of Jordan block sizes of the generator, stored descending."""

    blocks: tuple[int, ...]

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


@dataclass(frozen=True, eq=False)
class TateDims:
    """Tate cohomology of a C_p-module in even and odd degrees.

    even = ker(zeta - 1)/im(N) and odd = ker(N)/im(zeta - 1); degree 2
    periodicity means these two subquotients are the whole story.  The
    basis arrays hold coset representatives as columns; the modulus arrays
    hold bases of the subspaces they are taken modulo.
    """

    even_dim: int
    odd_dim: int
    even_basis: np.ndarray
    odd_basis: np.ndarray
    even_modulus: np.ndarray
    odd_modulus: np.ndarray


def u_k_module(params: HeightParams, k: int) -> CpModule:
    """The height module on z_n, ..., z_k: zeta shifts each z_i by z_{i-1}
    and fixes z_k.  A single Jordan block of size n - k + 1."""
    n = params.n
    if not 0 <= k <= n:
        raise InvalidInput(f"k must lie in [0, {n}], got {k}")
    return jordan_block_module(params.p, n - k + 1)


def jordan_block_module(p: int, size: int) -> CpModule:
    """A single unipotent Jordan block; size must be between 1 and p."""
    if not 1 <= size <= p:
        raise InvalidInput(f"block size must lie in [1, {p}], got {size}")
    mat = np.eye(size, dtype=np.int64)
    for t in range(size - 1):
        mat[t + 1, t] = 1
    return CpModule(p=p, dim=size, gen_action=mat)


# ---------------------------------------------------------------------------
# monomial bookkeeping for symmetric powers


def _monomials(nvars: int, deg: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree deg, in descending lex order, so that
    degree one reproduces the original basis order."""
    out = []
    for combo in combinations_with_replacement(range(nvars), deg):
        expo = [0] * nvars
        for v in combo:
            expo[v] += 1
        out.append(tuple(expo))
    out.sort(reverse=True)
    return out


def symmetric_dimension(nvars: int, deg: int) -> int:
    if deg < 0:
        raise InvalidInput(f"degree must be nonnegative, got {deg}")
    return math.comb(deg + nvars - 1, nvars - 1)


class _SymmetricChain:
    """Extends a generator action degree by degree through symmetric powers.

    Keeps only the previous degree's matrix, so iterating to high degree is
    memory-safe.  Every degree's action, degree 0 included, is coalesced
    Triplets: one entry per position, values in [1, p).  Columns of the
    degree-d action are built from degree d-1: if a monomial factors as
    x_l * m', its image is the image of x_l times the image of m', and
    multiplication by a fixed variable is an index scatter between monomial
    bases.
    """

    def __init__(self, base: CpModule):
        if not isinstance(base.gen_action, np.ndarray):
            raise InvalidInput("symmetric powers need a base module with an array action")
        if base.dim == 0:
            raise InvalidInput("empty base module")
        self.base = base
        self.p = base.p
        self.nvars = base.dim
        self.deg = 0
        self.monos: list[tuple[int, ...]] = [(0,) * self.nvars]
        one = np.zeros(1, dtype=np.int64)
        self.matrix = linalg.Triplets((1, 1), one, one, one + 1)
        # index scatter of multiplication by the last (invariant-slot) variable,
        # from the previous degree into the current one
        self.last_var_embed: np.ndarray | None = None

    def current_module(self) -> CpModule:
        return CpModule(p=self.p, dim=len(self.monos), gen_action=self.matrix)

    def step(self) -> None:
        p, v = self.p, self.nvars
        prev_monos, prev = self.monos, self.matrix
        deg = self.deg + 1
        monos = _monomials(v, deg)
        index = {m: c for c, m in enumerate(monos)}
        dim = len(monos)

        # embeds[t][c]: the column of x_t times monomial c of the previous degree
        embeds = np.empty((v, len(prev_monos)), dtype=np.int64)
        # first[c]: the first variable of positive exponent in monomial c
        first = np.empty(len(prev_monos), dtype=np.int64)
        for c, m in enumerate(prev_monos):
            first[c] = next((t for t, e in enumerate(m) if e > 0), v)
            for t in range(v):
                bumped = list(m)
                bumped[t] += 1
                embeds[t, c] = index[tuple(bumped)]

        # factor each new monomial by its first variable with positive
        # exponent, x_l; the cofactor is a monomial c with first[c] >= l
        gen = self.base.gen_action
        parts = []
        for l in range(v):
            sel = first[prev.cols] >= l
            rows, cols, vals = prev.rows[sel], embeds[l][prev.cols[sel]], prev.vals[sel]
            for t in range(v):
                val = int(gen[t, l]) % p
                if val:
                    parts.append((embeds[t][rows], cols, val * vals))
        self.matrix = linalg.Triplets((dim, dim), *map(np.concatenate, zip(*parts))).coalesced(p)

        self.deg = deg
        self.monos = monos
        self.last_var_embed = embeds[v - 1]


def _symmetric_walk(base: CpModule, max_deg: int):
    """Yield (deg, module, embed) for the symmetric powers of base in degrees
    0, 1, ..., max_deg, where embed is the index scatter of multiplication by
    the last variable from degree deg - 1 (None in degree 0).

    The dimension cap is checked once, for max_deg, before any step.
    """
    final_dim = symmetric_dimension(base.dim, max_deg)
    if final_dim > DIM_CAP:
        raise ResourceGuard(f"symmetric power dimension {final_dim} exceeds cap {DIM_CAP}")
    chain = _SymmetricChain(base)
    yield 0, chain.current_module(), None
    for _ in range(max_deg):
        chain.step()
        yield chain.deg, chain.current_module(), chain.last_var_embed


def symmetric_power(m: CpModule, deg: int) -> CpModule:
    """The induced action on the monomial basis of total degree deg."""
    _, module, _ = deque(_symmetric_walk(m, deg), maxlen=1)[0]
    return m if deg == 1 else module


# ---------------------------------------------------------------------------
# Jordan decomposition and Tate cohomology


def _z_triplets(m: CpModule) -> linalg.Triplets:
    """z = zeta - 1 as Triplets: the action's entries and p - 1 on the diagonal."""
    g = m.gen_action
    if isinstance(g, np.ndarray):
        g = linalg.Triplets(g.shape, *np.nonzero(g), g[np.nonzero(g)])
    added = (np.arange(m.dim), np.arange(m.dim), np.full(m.dim, m.p - 1))
    return linalg.Triplets(g.shape, *map(np.concatenate, zip((g.rows, g.cols, g.vals), added)))


def _nilpotent_part(m: CpModule):
    """z: an int64 array for a dense module, _z_triplets beyond DENSE_LIMIT."""
    z = _z_triplets(m)
    return z.coalesced(m.p).scatter(np.int64) if m.is_dense() else z


def jordan_decompose(m: CpModule) -> JordanProfile:
    """Block sizes from the rank sequence of powers of zeta - 1.

    The number of blocks of size at least j is rank((zeta-1)^(j-1)) minus
    rank((zeta-1)^j).  Raises if the action does not have order p, which is
    detected by (zeta-1)^p being nonzero.
    """
    p = m.p
    if not m.is_dense():
        raise ResourceGuard("jordan_decompose needs a dense module; use freeness_by_degree for large ones")
    z = _nilpotent_part(m)
    ranks = [m.dim]
    power = z
    for _ in range(1, p + 1):
        r = linalg.rank_mod(power, p)
        ranks.append(r)
        if r == 0:
            break
        power = linalg.matmul_mod(power, z, p)
    if ranks[-1] != 0:
        raise InvalidInput("action of wrong order: (zeta - 1)^p is nonzero")
    ranks += [0] * (p + 2 - len(ranks))
    # blocks of size exactly s: (at least s) - (at least s + 1)
    counts = {s: ranks[s - 1] - 2 * ranks[s] + ranks[s + 1] for s in range(p, 0, -1)}
    profile = JordanProfile(blocks=tuple(s for s, c in counts.items() for _ in range(c)))
    assert profile.total == m.dim
    return profile


def _norm_matrix(m: CpModule) -> tuple[np.ndarray, np.ndarray]:
    """z = zeta - 1 and N = 1 + zeta + ... + zeta^(p-1) of a dense module, as
    int64 arrays for subquotient bases, N computed as z^(p-1): the two
    polynomials agree in F_p[x].

    z and N are polynomials in the generator, so they commute, and one
    vanishing product certifies im(N) <= ker(z) and im(z) <= ker(N)."""
    z = _nilpotent_part(m)
    norm = linalg.matrix_power_mod(z, m.p - 1, m.p)
    assert not linalg.matmul_mod(z, norm, m.p).any()
    return z, norm


@dataclass(frozen=True, eq=False)
class _CohomologyData:
    """Tate subquotients together with the matrices that cut them out."""

    tate: TateDims
    z: np.ndarray
    norm: np.ndarray


def _tate_data(m: CpModule) -> _CohomologyData:
    """Even and odd Tate cohomology with explicit subquotient bases, for the
    window test; asserts that the two parities have equal dimension."""
    if not m.is_dense():
        raise ResourceGuard(
            f"Tate subquotient bases need a dense module (dim <= {DENSE_LIMIT}); "
            "larger modules support rank-based freeness checks only"
        )
    p = m.p
    z, norm = _norm_matrix(m)
    ker_z, im_z = linalg.kernel_and_image(z, p)
    ker_n, im_n = linalg.kernel_and_image(norm, p)

    even_reps = linalg.complete_subspace(im_n, ker_z, p)
    odd_reps = linalg.complete_subspace(im_z, ker_n, p)
    even_dim = even_reps.shape[1]
    odd_dim = odd_reps.shape[1]
    assert even_dim == ker_z.shape[1] - im_n.shape[1]
    assert odd_dim == ker_n.shape[1] - im_z.shape[1]
    assert even_dim == odd_dim
    tate = TateDims(
        even_dim=even_dim,
        odd_dim=odd_dim,
        even_basis=even_reps,
        odd_basis=odd_reps,
        even_modulus=im_n,
        odd_modulus=im_z,
    )
    return _CohomologyData(tate=tate, z=z, norm=norm)


def _tate_dim_by_rank(m: CpModule) -> int:
    """The common dimension of both Tate groups of a dense module, from two
    ranks: im(N) lies in ker(z), so ker(z)/im(N) has dimension
    (dim - rank z) - rank N.  z is made in the float type of the rank
    kernel, which reads it in place, and N is never formed.

    Let J be rank-z independent columns of z and R the other indices, one
    per Jordan block.  The unit rows e_R complement the row space of z, so
    every row vector is a + b z with a in span(e_R).  Then e z^p = b z^(p+1)
    once z^p[R, :] = 0, so row(z^p) = row(z^(p+1)) = ... = 0 for nilpotent
    z; and e N = a N, so rank N = rank N[R, :].  N[R, :] = z[R] z^(p-2) is
    p - 2 skinny products; one more certifies z^p[R, :] = 0, and a strictly
    lower triangular z is nilpotent; any other z is checked by z^p = 0 in
    full.  Either way z N = z^p = 0, so im(N) <= ker(z)."""
    p = m.p
    triplets = _z_triplets(m).coalesced(p)
    z = triplets.scatter(linalg.check_rank_budget((m.dim, m.dim), p))
    indep = linalg.independent_columns(z, p)
    y = np.delete(z, indep, axis=0)
    for _ in range(p - 2):
        y = linalg.matmul_mod(y, z, p)
    assert not linalg.matmul_mod(y, z, p).any()
    if not (triplets.rows > triplets.cols).all():
        assert not linalg.matrix_power_mod(z, p, p).any()
    return m.dim - len(indep) - linalg.rank_mod(y, p)


def _free_by_rank(m: CpModule) -> bool:
    """Freeness from the rank of zeta - 1 alone: all Jordan blocks have the
    maximal size p iff the block count dim - rank equals dim / p."""
    if m.dim % m.p != 0:
        return False
    return linalg.sparse_rank_mod(_z_triplets(m), m.p) == m.dim - m.dim // m.p


def _check_rank_budgets(base: CpModule, k: int, degrees) -> None:
    """Refuse a walk before its first step if a rank it will take above
    DENSE_LIMIT, at a degree whose dimension p divides, is over the budget
    of linalg.sparse_rank_mod.  Degrees are given ascending, so the first
    refusal names the lowest such degree."""
    for deg in degrees:
        dim = symmetric_dimension(base.dim, deg)
        if dim > DENSE_LIMIT and dim % base.p == 0:
            linalg.check_rank_budget((dim, dim), base.p, f"k={k} degree {deg} has dimension {dim}: ")


def freeness_by_degree(params: HeightParams, k: int, degrees) -> dict[int, bool]:
    """Is the symmetric power of the height module free over F_p[C_p], at
    each of the given degrees?  Decided by the rank of zeta - 1 alone, dense
    or sparse, from one walk up the symmetric powers; a rank over budget is
    refused before the walk."""
    wanted = set(degrees)
    if not wanted:
        return {}
    if min(wanted) < 0:
        raise InvalidInput("degrees must be nonnegative")
    base = u_k_module(params, k)
    _check_rank_budgets(base, k, sorted(wanted))
    walk = _symmetric_walk(base, max(wanted))
    return {deg: _free_by_rank(mod) for deg, mod, _ in walk if deg in wanted}


# ---------------------------------------------------------------------------
# multiplication by the invariant variable on Tate cohomology


@dataclass(frozen=True, eq=False)
class MultiplicationMaps:
    """The maps induced on Tate cohomology by multiplying with the invariant
    variable, from one symmetric degree to the next."""

    even: np.ndarray
    odd: np.ndarray


def _induced_step(
    p: int,
    embed: np.ndarray,
    tgt_dim_total: int,
    src: _CohomologyData,
    tgt: _CohomologyData,
    deg: int,
) -> MultiplicationMaps:
    # deg, the source degree, labels the span of bench/launcher.py only
    def one_parity(src_dim, tgt_dim, src_basis, tgt_basis, tgt_modulus, check_mat):
        if src_dim == 0 or tgt_dim == 0:
            return np.zeros((tgt_dim, src_dim), dtype=np.int64)
        moved = np.zeros((tgt_dim_total, src_basis.shape[1]), dtype=np.int64)
        moved[embed] = src_basis
        assert not linalg.matmul_mod(check_mat, moved, p).any(), "induced map leaves the subspace"
        span = np.hstack([tgt_basis, tgt_modulus])
        coords = linalg.coordinates_in_span(span, moved, p)
        return coords[:tgt_dim]

    s, t = src.tate, tgt.tate
    even = one_parity(s.even_dim, t.even_dim, s.even_basis, t.even_basis, t.even_modulus, tgt.z)
    odd = one_parity(s.odd_dim, t.odd_dim, s.odd_basis, t.odd_basis, t.odd_modulus, tgt.norm)
    return MultiplicationMaps(even=even, odd=odd)


def _window_vanishes(p: int, window: list) -> bool:
    """The explicit test of one window of consecutive degrees, given as the
    (deg, module, embed) triples of _symmetric_walk: Tate data with
    subquotient bases at each degree, the maps induced by multiplication
    between them, and their composite, which must be zero."""
    if not all(mod.is_dense() for _, mod, _ in window):
        raise ResourceGuard(
            f"window {window[0][0]}..{window[-1][0]} has no vanishing degree and exceeds the dense limit"
        )
    data = [_tate_data(mod) for _, mod, _ in window]
    even = np.eye(data[0].tate.even_dim, dtype=np.int64)
    odd = np.eye(data[0].tate.odd_dim, dtype=np.int64)
    for (deg, mod, embed), src, tgt in zip(window[1:], data, data[1:]):
        step = _induced_step(p, embed, mod.dim, src, tgt, deg - 1)
        even = linalg.matmul_mod(step.even, even, p)
        odd = linalg.matmul_mod(step.odd, odd, p)
    return not (even.any() or odd.any())


# ---------------------------------------------------------------------------
# the nilpotence suite


@dataclass(frozen=True)
class DegreeSummary:
    deg: int
    dim: int
    even_dim: int | None
    odd_dim: int | None
    free: bool | None


@dataclass(frozen=True)
class NilpotenceReport:
    p: int
    k: int
    max_deg: int
    degrees: tuple[DegreeSummary, ...]
    windows: int
    holds: bool
    trivial: bool = False

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "max_degree": self.max_deg,
            "holds": self.holds,
            "trivial": self.trivial,
            "windows_checked": self.windows,
            "degrees": [
                {
                    "degree": d.deg,
                    "dimension": d.dim,
                    "even_dim": d.even_dim,
                    "odd_dim": d.odd_dim,
                    "free": d.free,
                }
                for d in self.degrees
            ],
        }


def nilpotence_report(params: HeightParams, k: int, max_deg: int) -> NilpotenceReport:
    """Check that the (k+1)-fold multiplication by the invariant variable is
    zero on Tate cohomology of symmetric powers, in all start degrees m with
    m + k + 1 <= max_deg.

    One walk up the symmetric powers.  A dense degree's Tate dimension comes
    from two ranks; above DENSE_LIMIT only freeness is computed, a rank over
    budget is refused before the walk, and a degree that is not free
    reports unknown dimensions.  A composite vanishes when
    its window contains a vanishing degree, which the freeness pattern (d is
    free when k+1 <= d mod p <= p-1) guarantees for valid inputs.  A window
    of k+2 non-vanishing degrees goes to the explicit test _window_vanishes,
    so the current run of non-vanishing degrees is kept, at most k+2 long.
    """
    p, n = params.p, params.n
    if k == 0:
        # p-torsion annihilates everything in positive degrees outright
        return NilpotenceReport(p=p, k=0, max_deg=max_deg, degrees=(), windows=0, holds=True, trivial=True)
    if not 1 <= k <= n - 1:
        raise InvalidInput(f"k must lie in [0, {n - 1}]")
    if max_deg < k + 1:
        raise InvalidInput("max_deg must be at least k + 1")

    base = u_k_module(params, k)
    _check_rank_budgets(base, k, range(max_deg + 1))
    summaries: list[DegreeSummary] = []
    run: list = []
    holds = True
    for deg, mod, embed in _symmetric_walk(base, max_deg):
        if mod.is_dense():
            dim = _tate_dim_by_rank(mod)
            summaries.append(DegreeSummary(deg, mod.dim, dim, dim, dim == 0))
        else:
            free = _free_by_rank(mod)
            summaries.append(DegreeSummary(deg, mod.dim, 0 if free else None, 0 if free else None, free))
        # a vanishing degree makes every composite through it zero
        run = [] if summaries[-1].free else (run + [(deg, mod, embed)])[-(k + 2):]
        if len(run) == k + 2 and not _window_vanishes(p, run):
            holds = False
    return NilpotenceReport(
        p=p, k=k, max_deg=max_deg, degrees=tuple(summaries), windows=max_deg - k, holds=holds
    )


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
