"""Brute-force modular representation theory of the cyclic group C_p.

A module is a matrix over the prime field giving the action of a fixed
generator zeta with zeta^p = 1.  The tools here extend the action to
symmetric powers on the monomial basis and read everything else off ranks
of powers of z = zeta - 1: the Jordan profile, freeness, and the common
dimension of the two Tate cohomology groups ker(z)/im(N) and ker(N)/im(z),
where N = 1 + zeta + ... + zeta^(p-1) = z^(p-1).

Symmetric powers keep their monomials as exponent rows, placed by an
arithmetic ranking of the descending-lex order, and their action as
coalesced linalg.Triplets at every degree, so each degree costs a few numpy
passes over its entries.  z is read off the action's triplets without a
second sort, and every rank of z is taken from those triplets.  Up to
DENSE_LIMIT, z is also made a dense matrix once, for the skinny rows
z^i[R, :], i < p, where R is the dim - rank(z) indices outside a set of
independent columns of z; the ranks of every power of z, and so the Jordan
profile and rank(N), come from stacks of these rows, and no power of z is
formed.  sympow takes its Tate dimension from the Jordan profile: each
block smaller than p contributes one class to each Tate group, and a block
of size p none.  The verification suites decide freeness level by level,
from U_n down to U_k: a degree is free by extension when the degree below
it and the same degree one level up are, and otherwise takes one rank of
z, free iff rank(z) = dim - dim/p; on U_j only the degrees d = j + 1 mod p
take one.  free_flags alone decides this, and budgets exactly those ranks
before any walk.  A free module has no Tate cohomology.  Only the report
with Tate dimensions adds, at each dense degree that is not free, rank(N),
for both Tate groups have dimension dim - rank(z) - rank(N).  Multiplication
by the invariant bottom variable vanishes on Tate cohomology in every
window of consecutive degrees that contains a free degree; only a window
without one would be tested explicitly, by the composite multiplication
from its first degree to its last and two rank comparisons against kernel
and image bases of z and N at those two degrees, the one place such bases
are built.

Everything is computed over F_p.  Coefficient extensions to F_{p^n} only
rescale multiplicities, so dimension counts, freeness and vanishing
statements are unaffected.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

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
    descending-lex monomials of _SymmetricChain.monos for symmetric powers.
    The order of the action is not checked here; the z^p = 0 certificate
    of _skinny_powers, behind every rank of a power of z, raises on it.
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


@dataclass(frozen=True)
class TateDims:
    """Dimensions of the Tate cohomology of a C_p-module in even and odd
    degrees: even = ker(zeta - 1)/im(N) and odd = ker(N)/im(zeta - 1);
    degree 2 periodicity means these two subquotients are the whole story.
    """

    even_dim: int
    odd_dim: int


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


def symmetric_dimension(nvars: int, deg: int) -> int:
    if deg < 0:
        raise InvalidInput(f"degree must be nonnegative, got {deg}")
    return math.comb(deg + nvars - 1, nvars - 1)


def _lex_positions(expo: np.ndarray, deg: int) -> np.ndarray:
    """Positions of the exponent rows of total degree deg, along the last
    axis, among all of them in descending lex order: e comes after
    sum_{i < v-1} C(D_i - e_i + v-i-2, v-i-1) monomials, where D_i = deg -
    sum_{j < i} e_j and the binomial counts those that agree with e before
    i and exceed it at i.  One table serves every row: C(a, b), a < deg + v,
    b < v, by Pascal's rule in int64, clipped at the dimension; an entry
    read is below it, and so exact, and no sum overflows."""
    v = expo.shape[-1]
    i = np.arange(v - 1)
    dim = symmetric_dimension(v, deg)
    table = np.zeros((deg + v, v), dtype=np.int64)
    table[:, 0] = 1
    for a in range(1, deg + v):
        np.minimum(table[a - 1, 1:] + table[a - 1, :-1], dim, out=table[a, 1:])
    top = deg + v - i - 2 - np.cumsum(expo[..., :-1], axis=-1)
    return table[top, v - i - 1].sum(axis=-1)


class _SymmetricChain:
    """Extends a generator action degree by degree through symmetric powers.

    Keeps only the previous degree, so iterating to high degree is
    memory-safe.  monos holds the exponent rows of the current degree's
    monomials in descending lex order, so that degree one reproduces the
    original basis order.  Every degree's action, degree 0 included, is
    coalesced Triplets: one entry per position, values in [1, p).  Columns
    of the degree-d action are built from degree d-1: if a monomial factors
    as x_l * m', its image is the image of x_l times the image of m', and
    multiplication by a fixed variable is an index scatter between monomial
    bases that keeps their order, so each part of a step comes row-major
    sorted.
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
        self.monos = np.zeros((1, self.nvars), dtype=np.int64)
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

        # embeds[t][c]: the position of x_t times monomial c of the previous degree
        products = prev_monos + np.eye(v, dtype=np.int64)[:, None]
        embeds = _lex_positions(products, deg)
        monos = np.empty((symmetric_dimension(v, deg), v), dtype=np.int64)
        monos[embeds] = products
        # first[c]: the first variable of positive exponent in monomial c
        positive = prev_monos > 0
        first = np.where(positive.any(axis=1), positive.argmax(axis=1), v)

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
        dim = len(monos)
        stacked = linalg.Triplets((dim, dim), *map(np.concatenate, zip(*parts)))
        del parts, rows, cols, vals, products  # freed before the coalescing, the step's peak
        self.matrix = stacked.coalesced(p)

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
    """z = zeta - 1 as coalesced Triplets.  A coalesced Triplets action with
    an entry at every diagonal position, as every symmetric power has, gets
    them lowered by one in place, which keeps the row-major order; any
    other action gets p - 1 added on the diagonal and is coalesced."""
    g, p = m.gen_action, m.p
    if isinstance(g, linalg.Triplets):
        diag = g.rows == g.cols
        if np.count_nonzero(diag) == m.dim:
            vals = g.vals.copy()
            vals[diag] = (vals[diag] + p - 1) % p
            keep = vals != 0
            return linalg.Triplets(g.shape, g.rows[keep], g.cols[keep], vals[keep])
    else:
        g = linalg.Triplets(g.shape, *np.nonzero(g), g[np.nonzero(g)])
    added = (np.arange(m.dim), np.arange(m.dim), np.full(m.dim, p - 1))
    return linalg.Triplets(g.shape, *map(np.concatenate, zip((g.rows, g.cols, g.vals), added))).coalesced(p)


def _skinny_powers(m: CpModule):
    """The independent columns J of z = zeta - 1, from its triplets, and an
    iterator over the rows Y_i = z^i[R, :], i = 1, ..., p - 1, R the other
    indices, one per Jordan block.  z is scattered once, in the float type
    of the rank kernel; each Y_i is one skinny product.  The iterator raises
    InvalidInput after Y_(p-1) unless z^p = 0.

    z[:, J] has full rank, so the unit rows e_R complement row(z): every
    row vector is a + b z with a in span(e_R), and row(z^j) = row(Y_j) +
    row(z^(j+1)).  So Y_(p-1) z = 0 gives row(z^p) = row(z^(p+1)) = ...,
    which is 0 for a strictly lower triangular z; any other z is checked
    by z^p = 0 in full."""
    p = m.p
    triplets = _z_triplets(m)
    z = triplets.scatter(linalg.check_rank_budget((m.dim, m.dim), p))
    indep = linalg.independent_columns(triplets, p)

    def rows():
        y = np.delete(z, indep, axis=0)
        for _ in range(p - 2):
            yield y
            y = linalg.matmul_mod(y, z, p)
        yield y
        if linalg.matmul_mod(y, z, p).any() or (
            not (triplets.rows > triplets.cols).all() and linalg.matrix_power_mod(z, p, p).any()
        ):
            raise InvalidInput("action of wrong order: (zeta - 1)^p is nonzero")

    return indep, rows()


def jordan_decompose(m: CpModule) -> JordanProfile:
    """Block sizes from the rank sequence of powers of zeta - 1.

    The number of blocks of size at least j is rank((zeta-1)^(j-1)) minus
    rank((zeta-1)^j).  rank z is the count of its independent columns, and
    rank z^j, 2 <= j < p, that of the skinny rows Y_j, ..., Y_(p-1) of
    _skinny_powers stacked, so no power is formed.  Raises InvalidInput if
    the action does not have order p, that is if (zeta-1)^p is nonzero.
    """
    p = m.p
    if not m.is_dense():
        raise ResourceGuard("jordan_decompose needs a dense module; use free_flags for large ones")
    indep, rows = _skinny_powers(m)
    ys = list(rows)
    ranks = [m.dim, len(indep), *(linalg.rank_mod(np.vstack(ys[j - 1 :]), p) for j in range(2, p)), 0, 0]
    # blocks of size exactly s: (at least s) - (at least s + 1)
    counts = {s: ranks[s - 1] - 2 * ranks[s] + ranks[s + 1] for s in range(p, 0, -1)}
    return JordanProfile(blocks=tuple(s for s, c in counts.items() for _ in range(c)))


def _norm_matrix(m: CpModule) -> tuple[np.ndarray, np.ndarray]:
    """z = zeta - 1 and N = 1 + zeta + ... + zeta^(p-1) of a dense module, as
    int64 arrays for kernel and image bases, N computed as z^(p-1): the two
    polynomials agree in F_p[x].

    z and N are polynomials in the generator, so they commute, and one
    vanishing product certifies im(N) <= ker(z) and im(z) <= ker(N)."""
    z = _z_triplets(m).scatter(np.int64)
    norm = linalg.matrix_power_mod(z, m.p - 1, m.p)
    assert not linalg.matmul_mod(z, norm, m.p).any()
    return z, norm


@dataclass(frozen=True, eq=False)
class _CohomologyData:
    """Tate dimensions together with kernel and image bases, as columns, of
    z and N."""

    tate: TateDims
    ker_z: np.ndarray
    im_z: np.ndarray
    ker_n: np.ndarray
    im_n: np.ndarray


def _tate_data(m: CpModule) -> _CohomologyData:
    """Even and odd Tate cohomology of a dense module for the window test:
    the kernel and image bases of z and N, and the dimensions
    dim ker(z) - dim im(N) and dim ker(N) - dim im(z), which must agree."""
    if not m.is_dense():
        raise ResourceGuard(
            f"Tate kernel and image bases need a dense module (dim <= {DENSE_LIMIT}); "
            "larger modules support rank-based freeness checks only"
        )
    z, norm = _norm_matrix(m)
    ker_z, im_z = linalg.kernel_and_image(z, m.p)
    ker_n, im_n = linalg.kernel_and_image(norm, m.p)
    tate = TateDims(even_dim=ker_z.shape[1] - im_n.shape[1], odd_dim=ker_n.shape[1] - im_z.shape[1])
    assert tate.even_dim == tate.odd_dim
    return _CohomologyData(tate=tate, ker_z=ker_z, im_z=im_z, ker_n=ker_n, im_n=im_n)


def _tate_dim_by_rank(m: CpModule) -> int:
    """The common dimension of both Tate groups of a dense module, from two
    ranks: im(N) lies in ker(z), so ker(z)/im(N) has dimension
    (dim - rank z) - rank N.  rank z is the count of independent columns
    of z, and rank N that of the skinny rows Y_(p-1) = N[R, :] of
    _skinny_powers, since row(N) = row(Y_(p-1)) + row(z^p) and z^p = 0;
    only the current Y_i is kept, and N is never formed."""
    indep, rows = _skinny_powers(m)
    return m.dim - len(indep) - linalg.rank_mod(deque(rows, maxlen=1).pop(), m.p)


def _free_by_rank(m: CpModule) -> bool:
    """Freeness from the rank of zeta - 1 alone: all Jordan blocks have the
    maximal size p iff the block count dim - rank equals dim / p.

    With no block larger than p there are at least dim / p blocks, so
    rank z <= dim - dim / p, with equality iff the module is free.
    Counting blocks decides freeness only when no block is larger than p,
    that is when z^p = 0, and this rank does not certify it.  It holds for
    every symmetric power of a module of order p, since Sym^d(zeta)^p =
    Sym^d(zeta^p) = 1, and these are the only modules the suites rank
    here; jordan_decompose and _tate_dim_by_rank, which rank higher powers
    of z, keep the certificate of _skinny_powers."""
    if m.dim % m.p != 0:
        return False
    return linalg.sparse_rank_mod(_z_triplets(m), m.p) == m.dim - m.dim // m.p


def free_flags(params: HeightParams, k: int, max_deg: int) -> list[bool]:
    """Whether Sym^d(U_k) is free, d = 0, ..., max_deg, decided level by
    level from U_n, whose powers (dimension 1) are not free, to U_k.  A
    degree whose dimension p divides is free if the degree below it and the
    same degree of U_(k+1) are: the invariant last variable x gives the
    exact sequence 0 -> A = x Sym^(d-1)(U_k) -> Sym^d(U_k) -> Q =
    Sym^d(U_(k+1)) -> 0, and on the monomials split by whether x divides
    them z is block triangular, so rank z >= rank z_A + rank z_Q (Marsaglia
    and Styan, 1974) = (dim A - dim A/p) + (dim Q - dim Q/p) = dim - dim/p,
    which the bound of _free_by_rank makes an equality.  Any other such
    degree takes one rank of z, on a walk of its level made at its first
    rank and advanced only that far.

    The budget assumes the pattern the verdict proves (d is free on U_j iff
    j+1 <= d mod p <= p-1): it checks the ranks at d = j + 1 mod p on each
    U_j, k <= j < n, in ascending d and before any walk or DIM_CAP, so a
    refusal names the lowest degree and its level.  A rank that ever says
    "not free" would lead to ranks not budgeted here, each still refused by
    sparse_rank_mod's own check before it allocates."""
    p, n = params.p, params.n
    top = _symmetric_walk(u_k_module(params, k), max_deg)
    for deg in range(1, max_deg + 1):
        j = deg % p - 1
        if j >= k:
            dim = symmetric_dimension(n - j + 1, deg)
            linalg.check_rank_budget((dim, dim), p, f"k={j} degree {deg} has dimension {dim}: ")
    next(top)  # degree 0: DIM_CAP is checked for U_k, the largest, before any rank
    flags = [False] * (max_deg + 1)
    for j in range(n - 1, k - 1, -1):
        upper, flags, walk = flags, [False], top if j == k else None
        for deg in range(1, max_deg + 1):
            if symmetric_dimension(n - j + 1, deg) % p:
                flags.append(False)
            elif flags[-1] and upper[deg]:
                flags.append(True)  # free by extension
            else:
                walk = walk or _symmetric_walk(u_k_module(params, j), max_deg)
                flags.append(_free_by_rank(next(m for d, m, _ in walk if d == deg)))
    return flags


# ---------------------------------------------------------------------------
# multiplication by the invariant variable on Tate cohomology


def _induced_step(
    p: int,
    embed: np.ndarray,
    tgt_dim_total: int,
    src: _CohomologyData,
    tgt: _CohomologyData,
    deg: int,
) -> bool:
    """Whether an index scatter embed, from a module of degree deg into one
    of dimension tgt_dim_total that commutes with zeta, induces zero on Tate
    cohomology: whether it sends ker(z) into im(N) and ker(N) into im(z).
    Each is one rank of [image | moved] against the width of the image
    basis.  Since the map commutes with z and N, it sends im(N) into im(N)
    and ker(z) into ker(z), and likewise im(z) and ker(N), so a Tate group
    of dimension 0 at either end needs no rank."""

    # deg labels the span of bench/launcher.py only
    def lands(src_dim, tgt_dim, kernel, image):
        if src_dim == 0 or tgt_dim == 0:
            return True
        moved = np.zeros((tgt_dim_total, kernel.shape[1]), dtype=np.int64)
        moved[embed] = kernel
        return linalg.rank_mod(np.hstack([image, moved]), p) == image.shape[1]

    s, t = src.tate, tgt.tate
    return lands(s.even_dim, t.even_dim, src.ker_z, tgt.im_n) and lands(
        s.odd_dim, t.odd_dim, src.ker_n, tgt.im_z
    )


def _window_vanishes(p: int, window: list) -> bool:
    """The explicit test of one window of consecutive degrees, given as the
    (deg, module, embed) triples of _symmetric_walk: the embeds after the
    first compose into one index scatter, the multiplication from the first
    degree to the last, whose map on Tate cohomology is the composite of
    the maps of each step and must be zero.  Only the two end degrees get
    Tate data."""
    if not all(mod.is_dense() for _, mod, _ in window):
        raise ResourceGuard(
            f"window {window[0][0]}..{window[-1][0]} has no vanishing degree and exceeds the dense limit"
        )
    (first, src_mod, _), (_, tgt_mod, _) = window[0], window[-1]
    composite = np.arange(src_mod.dim)
    for _, _, embed in window[1:]:
        composite = embed[composite]
    return _induced_step(p, composite, tgt_mod.dim, _tate_data(src_mod), _tate_data(tgt_mod), first)


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

    Each degree is decided by free_flags: one rank of z, dense or sparse,
    on each U_j, k <= j < n, at the degrees d = j + 1 mod p, none elsewhere.
    A free degree reports Tate dimensions 0 and every other degree unknown
    ones (None); nilpotence_tate_report fills in the dense ones.  A
    composite vanishes when its window contains a free degree, which the
    freeness pattern (d is free when k+1 <= d mod p <= p-1) guarantees for
    valid inputs.
    """
    return _nilpotence_walk(params, k, max_deg, tate_dims=False)


def nilpotence_tate_report(params: HeightParams, k: int, max_deg: int) -> NilpotenceReport:
    """nilpotence_report with the Tate dimension of every dense degree: a
    degree that is not free adds rank(N) to its rank of z."""
    return _nilpotence_walk(params, k, max_deg, tate_dims=True)


def _nilpotence_walk(params: HeightParams, k: int, max_deg: int, tate_dims: bool) -> NilpotenceReport:
    """The flags of free_flags, and dimensions from binomials.  With
    tate_dims, a dense degree that is not free gets its Tate dimension from
    _tate_dim_by_rank, on a walk up U_k that goes no further than the last
    such degree.  A rank over budget is refused before any power is built.
    A window of k+2 degrees that are not free goes to the explicit test
    _window_vanishes, on a walk of its own that keeps only those degrees.
    """
    p, n = params.p, params.n
    if k == 0:
        # p-torsion annihilates everything in positive degrees outright
        return NilpotenceReport(p=p, k=0, max_deg=max_deg, degrees=(), windows=0, holds=True, trivial=True)
    if not 1 <= k <= n - 1:
        raise InvalidInput(f"k must lie in [0, {n - 1}]")
    if max_deg < k + 1:
        raise InvalidInput("max_deg must be at least k + 1")

    flags = free_flags(params, k, max_deg)
    base = u_k_module(params, k)
    walk = _symmetric_walk(base, max_deg)
    summaries: list[DegreeSummary] = []
    run = 0
    holds = True
    for deg, free in enumerate(flags):
        dim = symmetric_dimension(base.dim, deg)
        tate = 0 if free else None
        if tate_dims and not free and dim <= DENSE_LIMIT:
            tate = _tate_dim_by_rank(next(mod for d, mod, _ in walk if d == deg))
        summaries.append(DegreeSummary(deg, dim, tate, tate, free))
        # a vanishing degree makes every composite through it zero
        run = 0 if free else run + 1
        if run >= k + 2 and not _window_vanishes(p, list(deque(_symmetric_walk(base, deg), maxlen=k + 2))):
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
