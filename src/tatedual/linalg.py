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

Symmetric powers above DENSE_LIMIT keep their action as Triplets, index
arrays of the nonzero entries; only their ranks are computed, by the same
kernel on one float array of at most RANK_BYTES.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceGuard

DENSE_LIMIT = 2000
# the float work array of sparse_rank_mod: 512 MiB holds a float32 square
# matrix of dimension 11585; the elimination peaks at about 2.25 times the
# array (traced at dimensions 4368 and 8568)
RANK_BYTES = 2**29

_F32_EXACT = 2**24
_F64_EXACT = 2**53
_BASE = 32
_BLOCKED_MIN = 192


@dataclass(frozen=True, eq=False)
class Triplets:
    """A matrix over F_p of the given shape whose entry (rows[i], cols[i])
    is vals[i]; entries given twice at one position add up."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


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
    """Exact a @ b mod p for int arrays with entries in [0, p)."""
    if a.shape[1] != b.shape[0]:
        raise ValueError("shape mismatch")
    return _mul(a, b, p).astype(np.int64)


def matrix_power_mod(a: np.ndarray, e: int, p: int) -> np.ndarray:
    if e < 0:
        raise ValueError("negative power")
    out = None
    base = a % p
    while e:
        if e & 1:
            out = base if out is None else matmul_mod(out, base, p)
        e >>= 1
        if e:
            base = matmul_mod(base, base, p)
    return np.eye(a.shape[0], dtype=np.int64) if out is None else out


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
    if min(a.shape) == 0:
        return a, []
    if min(a.shape) >= _BLOCKED_MIN:
        return _forward_blocked(a, p)
    return _forward_naive(a, p)


def _solve_unit_upper(m: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Solve m @ x = b where m is upper triangular with unit diagonal and b
    has entries in [0, p): one block inverse of m, then one product."""
    if m.shape[0] == 0 or b.shape[1] == 0:
        return b % p
    return _mul(_unit_lower_inverse(m.T, p).T, b, p).astype(np.int64)


def rank_mod(a, p: int) -> int:
    _, pivots = forward_eliminate(a, p)
    return len(pivots)


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


def coordinates_in_span(basis: np.ndarray, vecs: np.ndarray, p: int) -> np.ndarray:
    """Express the columns of vecs in the independent columns of basis.

    Raises ValueError if some column is not in the span.
    """
    k = np.shape(basis)[1]
    ech, pivots = forward_eliminate(np.hstack([basis, vecs]), p)
    if any(c >= k for c in pivots):
        raise ValueError("vector outside span")
    if pivots != list(range(k)):
        raise ValueError("basis columns are not independent")
    return _solve_unit_upper(ech[:k, :k], ech[:k, k:], p)


def complete_subspace(sub: np.ndarray, space: np.ndarray, p: int) -> np.ndarray:
    """Columns of space completing the columns of sub to a basis of space.

    sub must be contained in the column span of space.
    """
    _, pivots = forward_eliminate(np.hstack([sub, space]), p)
    k = np.shape(sub)[1]
    if len([c for c in pivots if c < k]) != k:
        raise ValueError("sub columns are not independent")
    extra = [c - k for c in pivots if c >= k]
    return np.asarray(space, dtype=np.int64)[:, extra] % p


def sparse_rank_mod(a: Triplets, p: int) -> int:
    """Rank over F_p of a matrix given as triplets.

    The triplets are scattered into one float array, summing repeated
    positions, and eliminated in place by the kernel of _forward_blocked
    without its echelon copy.  Refused before anything is allocated when
    that array would exceed RANK_BYTES.
    """
    rows, cols = a.shape
    ft = _float_type(min(rows, cols), p)
    size = np.dtype(ft).itemsize * rows * cols
    if size > RANK_BYTES:
        raise ResourceGuard(
            f"a rank of a {rows} x {cols} matrix mod {p} needs {size} bytes, over the {RANK_BYTES} byte budget"
        )
    w = np.zeros(a.shape, dtype=ft)
    np.add.at(w, (a.rows, a.cols), a.vals.astype(ft))
    _reduce(w, p)
    return len(_eliminate(w, p, 0, 0, cols, False)[0])
