"""Exact linear algebra over the prime field F_p.

Dense matrices are int64 numpy arrays with entries in [0, p).  Every
product goes through `_mul`, which multiplies in float BLAS and reduces
with x - p*floor(x/p).  That is exact while inner * (p-1)^2 stays below
the float type's integer range: float32 when it is below 2^24, float64
when it is below 2^53.  Beyond that `_mul` raises OverflowError; the bound
is checked on every call.

Matrices with both sides at least _BLOCKED_MIN are eliminated by a
column-recursive, rank-profile-revealing LU in the style of FFLAS-FFPACK
(Dumas, Giorgi and Pernet, ACM TOMS 2008): each split eliminates its left
half, inverts that half's unit lower factor by the 2x2 block formula, and
updates the pivot rows and the trailing rows with one product each.
Panels of _BASE columns are reduced column by column, touching only rows
with a nonzero multiplier.  The kernel works on one float copy of the
matrix and returns exactly the echelon form and pivots of the row loop
kept for small matrices.

A rank is the number of independent_columns.  With a side at least
_BLOCKED_MIN, for arrays or Triplets (index arrays of the nonzero entries,
kept by symmetric powers), these are the columns with distinct first nonzero
rows and the pivot columns of their Schur complement, which alone goes
through the kernel; the whole matrix is never formed.  Triplets are read
directly: their lead rows come from the entries, and they are relabelled
into pivot order and sorted once, so each block of rows is scattered from a
contiguous slice.  check_rank_budget refuses a rank whose float array would
exceed RANK_BYTES before anything is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceGuard

DENSE_LIMIT = 2000
# the float array of the largest matrix ranked: a float32 square matrix of
# dimension 11585.  The rank never forms it; at dimension 8568 the rank of z
# peaks at about 124 MiB of live data, under half its float array
RANK_BYTES = 2**29

_F32_EXACT = 2**24
_F64_EXACT = 2**53
_BASE = 32
_BLOCKED_MIN = 192
# rows of the structural pivot block solved at a time
_ROW_BLOCK = 512


@dataclass(frozen=True, eq=False)
class Triplets:
    """A matrix over F_p of the given shape whose entry (rows[i], cols[i])
    is vals[i]; entries given twice at one position add up."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def scatter(self, dtype) -> np.ndarray:
        """The matrix as an array of dtype, summing repeated positions; the
        sums are not reduced mod p.  Distinct positions in row-major order,
        as coalesced triplets have, are assigned without np.add.at."""
        out = np.zeros(self.shape, dtype=dtype)
        keys = self.rows * self.shape[1] + self.cols
        if (keys[1:] > keys[:-1]).all():
            out[self.rows, self.cols] = self.vals
        else:
            np.add.at(out, (self.rows, self.cols), self.vals.astype(dtype))
        return out

    def coalesced(self, p: int) -> Triplets:
        """The matrix over F_p with one entry per position, in row-major
        order, every value in [1, p): self when it is so already.  The sort
        is stable and merges sorted runs, so entries that come as a few
        row-major runs cost little; the sums at one position must stay
        within int64."""
        keys = self.rows * self.shape[1] + self.cols
        if (keys[1:] > keys[:-1]).all() and ((0 < self.vals) & (self.vals < p)).all():
            return self
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        new = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        vals = np.add.reduceat(self.vals[order], starts) % p
        at = order[starts[vals != 0]]
        return Triplets(self.shape, self.rows[at], self.cols[at], vals[vals != 0])


def as_field_matrix(a, p: int) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    return a % p


def _float_type(inner: int, p: int):
    """The float type in which a product with this inner dimension is exact."""
    bound = inner * (p - 1) ** 2
    if bound < _F32_EXACT:
        return np.float32
    if bound < _F64_EXACT:
        return np.float64
    raise OverflowError(f"inner dimension {inner} is too large for an exact float product mod {p}")


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for a float array of integers within its exact range."""
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def _mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for arrays with entries in [0, p), as floats in [0, p)."""
    ft = _float_type(a.shape[1], p)
    return _reduce(a.astype(ft, copy=False) @ b.astype(ft, copy=False), p)


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact a @ b mod p for arrays with entries in [0, p), as int64 or,
    for a float a, as _mul's floats."""
    if a.shape[1] != b.shape[0]:
        raise ValueError("shape mismatch")
    out = _mul(a, b, p)
    return out if a.dtype.kind == "f" else out.astype(np.int64)


def matrix_power_mod(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a^e mod p for entries in [0, p), in the type matmul_mod returns."""
    if e < 0:
        raise ValueError("negative power")
    out = None
    base = a
    while e:
        if e & 1:
            out = base if out is None else matmul_mod(out, base, p)
        e >>= 1
        if e:
            base = matmul_mod(base, base, p)
    return np.eye(a.shape[0], dtype=a.dtype) if out is None else out


def _unit_lower_inverse(l: np.ndarray, p: int) -> np.ndarray:
    """Inverse of the unit lower triangular matrix with the strictly lower
    part of the square l (the rest of l is ignored), by the 2x2 block
    formula [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]].

    Blocks of at most _BASE rows use (I + n)^-1 = (I - n)(I + n^2)(I + n^4)...
    for the strictly lower, hence nilpotent, part n."""
    k = l.shape[0]
    if k <= _BASE:
        n = np.tril(l, -1).astype(np.float64)
        x = _reduce(np.eye(k) - n, p)
        span = 2
        while span < k:
            n = _mul(n, n, p)
            x += _mul(x, n, p)
            x[x >= p] -= p
            span *= 2
        return x
    h = k // 2
    x = np.zeros((k, k))
    x[:h, :h] = _unit_lower_inverse(l[:h, :h], p)
    x[h:, h:] = _unit_lower_inverse(l[h:, h:], p)
    x[h:, :h] = _reduce(-_mul(x[h:, h:], _mul(l[h:, :h], x[:h, :h], p), p), p)
    return x


# ---------------------------------------------------------------------------
# forward elimination


def _forward_naive(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        v = int(a[r, c])
        if v != 1:
            a[r] = (a[r] * pow(v, -1, p)) % p
        below = r + 1 + np.flatnonzero(a[r + 1 :, c])
        if below.size:
            a[below] = (a[below] - a[below, c][:, None] * a[r]) % p
        pivots.append(c)
        r += 1
    return a, pivots


def _panel(w: np.ndarray, p: int, r: int, c0: int, c1: int) -> list[int]:
    """Eliminate columns c0..c1-1 of rows r.. of w column by column, with
    the pivot rule of _forward_naive.  Updates only the panel's columns and
    only the rows with a nonzero multiplier, which is stored in the pivot
    column; the pivot row is swapped in whole and left unscaled."""
    pivots: list[int] = []
    for c in range(c0, c1):
        rr = r + len(pivots)
        if rr == w.shape[0]:
            break
        nz = w[rr:, c].nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            pr = rr + int(nz[0])
            w[[rr, pr]] = w[[pr, rr]]
        below = rr + nz[1:]
        if below.size:
            f = _reduce(w[below, c] * pow(int(w[rr, c]), -1, p), p)
            if c + 1 < c1:
                w[below, c + 1 : c1] = _reduce(w[below, c + 1 : c1] - f[:, None] * w[rr, c + 1 : c1], p)
            w[below, c] = f
        pivots.append(c)
    return pivots


def _eliminate(w: np.ndarray, p: int, r: int, c0: int, c1: int, want_inv: bool):
    """Eliminate columns c0..c1-1 of rows r.. of w in place.

    Returns the pivot columns found and, if want_inv, the inverse of the
    unit lower factor on the new pivot rows (None otherwise)."""
    if c1 - c0 <= _BASE:
        pivots = _panel(w, p, r, c0, c1)
        if not want_inv:
            return pivots, None
        return pivots, _unit_lower_inverse(w[r : r + len(pivots)][:, pivots], p)
    cm = c0 + _BASE * (-(-(c1 - c0) // _BASE) // 2)
    piv1, linv1 = _eliminate(w, p, r, c0, cm, True)
    r2 = r + len(piv1)
    if piv1:
        top = w[r:r2, cm:c1]
        top[:] = _mul(linv1, top, p)
        if r2 < w.shape[0]:
            bot = w[r2:, cm:c1]
            bot -= _mul(w[r2:, piv1], top, p)
            np.add(bot, p, out=bot, where=bot < 0)
    if r2 == w.shape[0]:
        return piv1, linv1
    piv2, linv2 = _eliminate(w, p, r2, cm, c1, want_inv)
    if not piv2:
        return piv1, linv1
    if not piv1:
        return piv2, linv2
    if not want_inv:
        return piv1 + piv2, None
    k1, k = len(piv1), len(piv1) + len(piv2)
    linv = np.zeros((k, k))
    linv[:k1, :k1] = linv1
    linv[k1:, k1:] = linv2
    low = _mul(linv2, _mul(w[r2 : r + k, piv1], linv1, p), p)
    linv[k1:, :k1] = _reduce(-low, p)
    return piv1 + piv2, linv


def _forward_blocked(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Recursive elimination with the result of _forward_naive, for a with
    entries in [0, p); a is not modified.

    Works on one float copy w.  While eliminating, w[t, c_t] keeps the value
    of pivot t and w[i, c_t] below it the multiplier of row i on pivot t; at
    the end the pivot rows are scaled to 1 and the multipliers cleared."""
    rows, cols = a.shape
    w = a.astype(_float_type(min(rows, cols), p))
    pivots, _ = _eliminate(w, p, 0, 0, cols, False)
    rank = len(pivots)
    top = w[:rank]
    inverses = [pow(int(v), -1, p) for v in top[np.arange(rank), pivots]]
    top *= np.array(inverses, dtype=w.dtype)[:, None]
    _reduce(top, p)
    # left of its pivot a pivot row holds only multipliers; below the
    # pivot rows there is nothing else
    top[np.arange(cols) < np.array(pivots, dtype=np.int64)[:, None]] = 0
    w[rank:] = 0
    return w.astype(np.int64), pivots


def forward_eliminate(a, p: int) -> tuple[np.ndarray, list[int]]:
    """Row echelon form (not reduced) and pivot columns.  Copies the input."""
    a = as_field_matrix(a, p)
    if min(a.shape) >= _BLOCKED_MIN:
        return _forward_blocked(a, p)
    return _forward_naive(a, p)


def _solve_unit_upper(m: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Solve m @ x = b where m is upper triangular with unit diagonal and b
    has entries in [0, p): one block inverse of m, then one product."""
    if m.shape[0] == 0 or b.shape[1] == 0:
        return b % p
    return _mul(_unit_lower_inverse(m.T, p).T, b, p).astype(np.int64)


def _permuted_blocks(a, row_order: np.ndarray, col_order: np.ndarray, edges: list[int], ft):
    """Yield rows row_order[lo:hi] of a, for consecutive edges lo and hi,
    with their columns in col_order, as new arrays of type ft.  An array is
    gathered block by block; coalesced Triplets are relabelled into this
    order and sorted by row once, so each block is scattered from a
    contiguous slice."""
    if not isinstance(a, Triplets):
        for lo, hi in zip(edges, edges[1:]):
            yield a[row_order[lo:hi]].astype(ft, copy=False)[:, col_order]
        return
    # the inverse permutations, in int32 to halve the relabelled copy
    row_at, col_at = np.argsort(row_order).astype(np.int32), np.argsort(col_order).astype(np.int32)
    rows = row_at[a.rows]
    order = np.argsort(rows, kind="stable")
    rows, cols, vals = rows[order], col_at[a.cols[order]], a.vals[order].astype(ft)
    bounds = np.searchsorted(rows, edges)
    for lo, hi, i, j in zip(edges, edges[1:], bounds, bounds[1:]):
        blk = np.zeros((hi - lo, a.shape[1]), dtype=ft)
        blk[rows[i:j] - lo, cols[i:j]] = vals[i:j]
        yield blk


def _structural_columns(a, lead: np.ndarray, p: int, ft) -> np.ndarray:
    """Rank-many independent columns of M over F_p from structural pivots,
    as in Faugere-Lachartre (PASCO 2010) and SpaSM (PASCO 2017).  M is an
    array with entries in [0, p) or coalesced Triplets, and its column c
    has its first nonzero entry in row lead[c] (rows if none).  One column
    per distinct lead row gives s pivots on which M is a lower triangular P
    with nonzero diagonal, so M, permuted to [[P, B], [C, D]], has rank
    s + rank(D - C X) with X = P^-1 B, solved by blocks of _ROW_BLOCK rows
    of P scaled to a unit diagonal; the s columns and the pivots of D - C X
    are returned."""
    rows, cols = a.shape
    piv_rows, piv_cols = np.unique(lead, return_index=True)
    s = int(np.searchsorted(piv_rows, rows))  # the lead row of zero columns sorts last
    row_order = np.concatenate([piv_rows[:s], np.delete(np.arange(rows), piv_rows[:s])])
    col_order = np.concatenate([piv_cols[:s], np.delete(np.arange(cols), piv_cols[:s])])
    x = np.empty((s, cols - s), dtype=ft)
    schur = np.empty((rows - s, cols - s), dtype=ft)
    edges = [*range(0, s, _ROW_BLOCK), *range(s, rows, _ROW_BLOCK), rows]
    blocks = _permuted_blocks(a, row_order, col_order, edges, ft)
    for lo, hi, blk in zip(edges, edges[1:], blocks):
        if hi <= s:
            diag = blk[np.arange(hi - lo), np.arange(lo, hi)].tolist()
            blk *= np.array([pow(int(v), -1, p) for v in diag], dtype=ft)[:, None]
            _reduce(blk, p)
        done = min(lo, s)
        rest = blk[:, s:] - _mul(blk[:, :done], x[:done], p)
        np.add(rest, p, out=rest, where=rest < 0)
        if hi <= s:
            x[lo:hi] = _mul(_unit_lower_inverse(blk[:, lo:hi], p), rest, p)
        else:
            schur[lo - s : hi - s] = rest
    schur_pivots = _eliminate(schur, p, 0, 0, cols - s, False)[0]
    return np.concatenate([col_order[:s], col_order[s:][schur_pivots]])


def independent_columns(a, p: int) -> np.ndarray:
    """Indices of rank-many independent columns over F_p of an array or of
    Triplets: the pivots of _forward_naive when both sides are below
    _BLOCKED_MIN, else structural.  A float array must hold integers in
    [0, p) and is read in place; Triplets are coalesced first."""
    if isinstance(a, Triplets):
        a = a.coalesced(p)
        if max(a.shape) >= _BLOCKED_MIN and min(a.shape):
            (rows, cols), ft = a.shape, _float_type(min(a.shape), p)
            lead = np.full(cols, rows)
            np.minimum.at(lead, a.cols, a.rows)
            return _structural_columns(a, lead, p, ft)
        a = a.scatter(np.int64)
    a = np.asarray(a)
    small = max(a.shape) < _BLOCKED_MIN or not a.size
    if a.dtype.kind != "f" or small:
        a = as_field_matrix(a, p)
    if small:
        return np.array(_forward_naive(a, p)[1], dtype=np.int64)
    ft, nonzero = _float_type(min(a.shape), p), a != 0
    lead = np.where(nonzero.any(axis=0), nonzero.argmax(axis=0), a.shape[0])
    return _structural_columns(a, lead, p, ft)


def rank_mod(a, p: int) -> int:
    """Rank over F_p, as the number of independent_columns."""
    return len(independent_columns(a, p))


def kernel_and_image(a, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Kernel basis and image basis (the pivot columns of a) from a single
    elimination."""
    ech, pivots = forward_eliminate(a, p)
    rank, cols = len(pivots), ech.shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    if free:
        coords = _solve_unit_upper(ech[:rank][:, pivots], ech[:rank][:, free], p)
        basis[free, np.arange(len(free))] = 1
        basis[pivots, :] = (-coords) % p
    return basis, np.asarray(a, dtype=np.int64)[:, pivots] % p


def check_rank_budget(shape: tuple[int, int], p: int, context: str = ""):
    """The float type of the rank kernel for a matrix of this shape; raises
    ResourceGuard, prefixed by context, when a float array of that shape
    would exceed RANK_BYTES."""
    rows, cols = shape
    ft = _float_type(min(rows, cols), p)
    size = np.dtype(ft).itemsize * rows * cols
    if size > RANK_BYTES:
        raise ResourceGuard(
            f"{context}a rank of a {rows} x {cols} matrix mod {p} needs {size} bytes, "
            f"over the {RANK_BYTES} byte budget"
        )
    return ft


def sparse_rank_mod(a: Triplets, p: int) -> int:
    """rank_mod of a matrix given as triplets, any of them repeated or zero;
    refused by check_rank_budget before anything is allocated.  From a side
    of _BLOCKED_MIN on, the structural rank reads the triplets and never
    forms the matrix."""
    check_rank_budget(a.shape, p)
    return rank_mod(a, p)
