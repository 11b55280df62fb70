"""Brute-force modular representation theory of the cyclic group C_p.

A module is a matrix over the prime field giving the action of a fixed
generator zeta with zeta^p = 1.  The tools here decompose such modules into
Jordan blocks, extend the action to symmetric powers on the monomial basis,
and compute the two Tate cohomology groups ker(z)/im(N) and ker(N)/im(z),
where z = zeta - 1 and N = 1 + zeta + ... + zeta^(p-1) = z^(p-1).

The verification suites walk the symmetric powers of a height module once,
degree by degree, and work from ranks: a module is free iff
rank(z) = dim - dim/p, and both Tate groups have dimension
dim - rank(z) - rank(N).  Multiplication by the invariant bottom variable
vanishes on Tate cohomology in every window of consecutive degrees that
contains a degree with vanishing cohomology; only a window without one would
be tested with explicit subquotient bases and induced-map matrices.

Everything is computed over F_p.  Coefficient extensions to F_{p^n} only
rescale multiplicities, so dimension counts, freeness and vanishing
statements are unaffected.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import linalg
from .errors import InvalidInput, ResourceGuard
from .linalg import DENSE_LIMIT
from .mod_arith import HeightParams

DEFAULT_DIM_CAP = 50_000
_DIM_CAP_ENV = "TATEDUAL_MAX_DIM"


def dimension_cap() -> int:
    raw = os.environ.get(_DIM_CAP_ENV)
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InvalidInput(f"{_DIM_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise InvalidInput(f"{_DIM_CAP_ENV} must be positive")
    return cap


@dataclass(frozen=True, eq=False)
class CpModule:
    """A finite-dimensional C_p-representation over F_p.

    gen_action is the matrix of the chosen generator (dense int64 for
    dimensions up to DENSE_LIMIT, linalg.Triplets beyond).  Its columns follow
    the basis order of the constructor: z_n, ..., z_k for u_k_module, and the
    descending-lex monomials of _monomials for symmetric powers.  The order
    of the action is not checked here; jordan_decompose raises on an action
    whose order is not p.
    """

    p: int
    dim: int
    gen_action: object

    def is_dense(self) -> bool:
        return isinstance(self.gen_action, np.ndarray)


@dataclass(frozen=True)
class JordanProfile:
    """Multiset of Jordan block sizes of the generator, stored descending."""

    blocks: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.blocks)

    def all_full(self, p: int) -> bool:
        return all(b == p for b in self.blocks)

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

    def to_json(self) -> dict:
        return {"even_dim": self.even_dim, "odd_dim": self.odd_dim}


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


def direct_sum(modules: list[CpModule]) -> CpModule:
    if not modules:
        raise InvalidInput("empty direct sum")
    p = modules[0].p
    if any(m.p != p for m in modules):
        raise InvalidInput("mixed primes in direct sum")
    if not all(m.is_dense() for m in modules):
        raise InvalidInput("direct_sum supports dense modules only")
    dim = sum(m.dim for m in modules)
    mat = np.zeros((dim, dim), dtype=np.int64)
    off = 0
    for m in modules:
        mat[off : off + m.dim, off : off + m.dim] = m.gen_action
        off += m.dim
    return CpModule(p=p, dim=dim, gen_action=mat)


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
    return math.comb(deg + nvars - 1, nvars - 1)


class _SymmetricChain:
    """Extends a generator action degree by degree through symmetric powers.

    Keeps only the previous degree's matrix, so iterating to high degree is
    memory-safe.  Each degree's action is built as index triplets and kept
    as their dense int64 sum up to DENSE_LIMIT, as coalesced Triplets
    beyond.  Columns of the degree-d action are built from degree d-1: if a
    monomial factors as x_l * m', its image is the image of x_l times the
    image of m', and multiplication by a fixed variable is an index scatter
    between monomial bases.
    """

    def __init__(self, base: CpModule):
        if not base.is_dense():
            raise InvalidInput("symmetric powers need a dense base module")
        if base.dim == 0:
            raise InvalidInput("empty base module")
        self.base = base
        self.p = base.p
        self.nvars = base.dim
        self.deg = 0
        self.monos: list[tuple[int, ...]] = [(0,) * self.nvars]
        self.matrix: object = np.ones((1, 1), dtype=np.int64)
        # index scatter of multiplication by the last (invariant-slot) variable,
        # from the previous degree into the current one
        self.last_var_embed: np.ndarray | None = None

    def current_module(self) -> CpModule:
        return CpModule(p=self.p, dim=len(self.monos), gen_action=self.matrix)

    def step(self) -> None:
        p, v = self.p, self.nvars
        prev_monos, prev = self.monos, self.matrix
        if isinstance(prev, np.ndarray):
            rows, cols = np.nonzero(prev)
            prev = linalg.Triplets(prev.shape, rows, cols, prev[rows, cols])
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
        # coalesce: sum the entries at each position mod p, in the matrix
        # itself for a dense degree, by sorting positions beyond
        if dim <= DENSE_LIMIT:
            self.matrix = np.zeros((dim, dim), dtype=np.int64)
            for rows, cols, vals in parts:
                np.add.at(self.matrix, (rows, cols), vals)
            self.matrix %= p
        else:
            rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
            keys, where = np.unique(rows * dim + cols, return_inverse=True)
            vals = np.bincount(where, weights=vals).astype(np.int64) % p
            nonzero = vals != 0
            self.matrix = linalg.Triplets((dim, dim), keys[nonzero] // dim, keys[nonzero] % dim, vals[nonzero])

        self.deg = deg
        self.monos = monos
        self.last_var_embed = embeds[v - 1]


def _symmetric_walk(base: CpModule, max_deg: int):
    """Yield (deg, module, embed) for the symmetric powers of base in degrees
    0, 1, ..., max_deg, where embed is the index scatter of multiplication by
    the last variable from degree deg - 1 (None in degree 0).

    The dimension cap is checked once, for max_deg, before any step.
    """
    if max_deg < 0:
        raise InvalidInput("degree must be nonnegative")
    cap = dimension_cap()
    final_dim = symmetric_dimension(base.dim, max_deg)
    if final_dim > cap:
        raise ResourceGuard(
            f"symmetric power dimension {final_dim} exceeds cap {cap} "
            f"(override with {_DIM_CAP_ENV})"
        )
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


def _nilpotent_part(m: CpModule):
    """z = zeta - 1, dense or as Triplets with the diagonal -1 appended."""
    if m.is_dense():
        return (m.gen_action - np.eye(m.dim, dtype=np.int64)) % m.p
    g, diag = m.gen_action, np.arange(m.dim)
    return linalg.Triplets(
        g.shape,
        np.concatenate([g.rows, diag]),
        np.concatenate([g.cols, diag]),
        np.concatenate([g.vals, np.full(m.dim, m.p - 1)]),
    )


def jordan_decompose(m: CpModule) -> JordanProfile:
    """Block sizes from the rank sequence of powers of zeta - 1.

    The number of blocks of size at least j is rank((zeta-1)^(j-1)) minus
    rank((zeta-1)^j).  Raises if the action does not have order p, which is
    detected by (zeta-1)^p being nonzero.
    """
    p = m.p
    if not m.is_dense():
        raise ResourceGuard("jordan_decompose needs a dense module; use freeness_check for large ones")
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
    """z = zeta - 1 and N = 1 + zeta + ... + zeta^(p-1) of a dense module,
    N computed as z^(p-1): the two polynomials agree in F_p[x].

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
    if not m.is_dense():
        raise ResourceGuard(
            f"tate_cohomology needs a dense module (dim <= {DENSE_LIMIT}); "
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


def tate_cohomology(m: CpModule) -> TateDims:
    """Even and odd Tate cohomology with explicit subquotient bases.

    Also asserts the structural facts used downstream: the norm lands in
    the invariants, and the two parities have equal dimension.
    """
    return _tate_data(m).tate


def _tate_dim_by_rank(m: CpModule) -> int:
    """The common dimension of both Tate groups of a dense module, from two
    ranks: im(N) lies in ker(z), so ker(z)/im(N) has dimension
    (dim - rank z) - rank N."""
    p = m.p
    z, norm = _norm_matrix(m)
    return m.dim - linalg.rank_mod(z, p) - linalg.rank_mod(norm, p)


def _free_by_rank(m: CpModule) -> bool:
    """Freeness from the rank of zeta - 1 alone: all Jordan blocks have the
    maximal size p iff the block count dim - rank equals dim / p."""
    if m.dim % m.p != 0:
        return False
    rank = linalg.rank_mod if m.is_dense() else linalg.sparse_rank_mod
    return rank(_nilpotent_part(m), m.p) == m.dim - m.dim // m.p


def freeness_check(params: HeightParams, k: int, deg: int) -> bool:
    """Is the degree-deg symmetric power of the height module free over
    F_p[C_p]?  Decided by the rank of zeta - 1 alone, dense or sparse."""
    return _free_by_rank(symmetric_power(u_k_module(params, k), deg))


def freeness_by_degree(params: HeightParams, k: int, degrees) -> dict[int, bool]:
    """freeness_check at each of the given degrees, from one walk up the
    symmetric powers of the height module."""
    wanted = set(degrees)
    if not wanted:
        return {}
    if min(wanted) < 0:
        raise InvalidInput("degrees must be nonnegative")
    walk = _symmetric_walk(u_k_module(params, k), max(wanted))
    return {deg: _free_by_rank(mod) for deg, mod, _ in walk if deg in wanted}


# ---------------------------------------------------------------------------
# multiplication by the invariant variable on Tate cohomology


@dataclass(frozen=True, eq=False)
class MultiplicationMaps:
    """The maps induced on Tate cohomology by multiplying with the invariant
    variable, from symmetric degree deg to deg + 1."""

    deg: int
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
    return MultiplicationMaps(deg=deg, even=even, odd=odd)


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
    from two ranks; above DENSE_LIMIT only freeness is computed, and a degree
    that is not free reports unknown dimensions.  A composite vanishes when
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

    summaries: list[DegreeSummary] = []
    run: list = []
    holds = True
    for deg, mod, embed in _symmetric_walk(u_k_module(params, k), max_deg):
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
