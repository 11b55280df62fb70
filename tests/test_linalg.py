from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from tatedual import cp_rep, linalg
from tatedual.errors import ResourceGuard
from tatedual.mod_arith import height_params

from conftest import inverse_mod
from oracles import coordinates_in_span, symmetric_power, u_k_module


def _random_with_rank(rng, m, n, r, p):
    a = rng.integers(0, p, size=(m, r), dtype=np.int64)
    b = rng.integers(0, p, size=(r, n), dtype=np.int64)
    return linalg.matmul_mod(a, b, p)


ORACLE_PRIMES = [2, 3, 5, 7, 101, 65521]

# (rows, cols, rank): single rows and columns, shapes on both sides of the
# recursion base (32 columns) and of _BLOCKED_MIN (192), wide and tall
# matrices that run out of rows or columns, and a rank-deficient 600 x 600
ORACLE_SHAPES = [
    (1, 1, 1), (1, 45, 1), (45, 1, 1), (31, 33, 12), (32, 64, 32), (65, 97, 40),
    (191, 193, 191), (192, 192, 150), (200, 191, 0), (230, 420, 230),
    (420, 230, 200), (600, 600, 300),
]


def _structured(rng, m, n, r, p):
    """Rank r (at most) with zero columns, a repeated column and a whole
    pivot-free column panel, so the recursion sees empty halves."""
    a = _random_with_rank(rng, m, n, r, p)
    if n > 4:
        a[:, rng.choice(n, size=n // 5, replace=False)] = 0
        a[:, n // 2] = a[:, 1]
    if n > 100:
        a[:, 40:80] = 0
    return a


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_blocked_matches_naive(p):
    """Same echelon form, byte for byte, and the same pivots."""
    rng = np.random.default_rng(10 + p)
    cases = [rng.integers(0, p, size=(int(rng.integers(1, 80)), int(rng.integers(1, 80))), dtype=np.int64)
             for _ in range(8)]
    cases += [_structured(rng, m, n, r, p) for m, n, r in ORACLE_SHAPES
              if (m, n) != (600, 600) or p in (5, 65521)]
    for a in cases:
        before = a.copy()
        e1, p1 = linalg._forward_naive(a.copy(), p)
        e2, p2 = linalg._forward_blocked(a, p)
        assert np.array_equal(a, before), "the input was modified"
        assert p2 == p1, a.shape
        assert e2.dtype == e1.dtype and e2.shape == e1.shape
        assert e2.tobytes() == e1.tobytes(), a.shape


def test_blocked_matches_naive_large_rank_deficient():
    rng = np.random.default_rng(42)
    p = 5
    a = _random_with_rank(rng, 400, 450, 137, p)
    e1, p1 = linalg._forward_naive(a.copy(), p)
    e2, p2 = linalg._forward_blocked(a.copy(), p)
    assert p1 == p2 and len(p1) == 137
    assert np.array_equal(e1, e2)


@pytest.fixture(scope="module")
def s20_u1_p5():
    return symmetric_power(u_k_module(height_params(5), 1), 20)


@pytest.mark.parametrize("which", ["z", "N"])
def test_forward_blocked_is_naive_on_s20_u1(s20_u1_p5, which):
    """zeta - 1 and the norm on S^20(U_1) at p = 5 (dim 1771), the largest
    dense eliminations of the nilpotence suite."""
    m = s20_u1_p5
    a = cp_rep._z_triplets(m).scatter(np.int64) if which == "z" else cp_rep._norm_matrix(m)[1]
    e1, p1 = linalg._forward_naive(a.copy(), 5)
    e2, p2 = linalg._forward_blocked(a.copy(), 5)
    assert len(p1) == {"z": 1416, "N": 354}[which]
    assert p2 == p1
    assert e2.tobytes() == e1.tobytes()


def _back_substitution(m, b, p):
    x = np.zeros_like(b)
    for t in range(m.shape[0] - 1, -1, -1):
        x[t] = (b[t] - m[t, t + 1 :] @ x[t + 1 :]) % p
    return x


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@pytest.mark.parametrize("k,f", [(1, 1), (5, 3), (32, 7), (33, 40), (100, 1), (300, 25)])
def test_solve_unit_upper_matches_back_substitution(p, k, f):
    rng = np.random.default_rng(7 * k + f + p)
    m = np.triu(rng.integers(0, p, size=(k, k), dtype=np.int64), 1) + np.eye(k, dtype=np.int64)
    b = rng.integers(0, p, size=(k, f), dtype=np.int64)
    x = linalg._solve_unit_upper(m, b, p)
    assert x.dtype == np.int64
    assert np.array_equal(x, _back_substitution(m, b, p))


def _near_top(rows, inner, cols, p):
    """Entries p-1 except one last entry p-2 per row and column, so the
    exact products are odd and close to inner * (p-1)^2."""
    a = np.full((rows, inner), p - 1, dtype=np.int64)
    b = np.full((inner, cols), p - 1, dtype=np.int64)
    a[:, -1] = p - 2
    b[-1, :] = p - 2
    return a, b


@pytest.mark.parametrize("inner", [1677, 1678])
def test_matmul_mod_exact_across_float32_boundary(inner):
    """At p = 101 the float32 bound inner * 100^2 < 2^24 holds up to inner
    1677; one more and the product needs float64."""
    p = 101
    a, b = _near_top(2, inner, 3, p)
    exact = a.astype(object) @ b.astype(object)
    assert np.array_equal(linalg.matmul_mod(a, b, p), (exact % p).astype(np.int64))
    in_float32 = a.astype(np.float32) @ b.astype(np.float32)
    assert (linalg._float_type(inner, p) is np.float32) == (inner == 1677)
    # just above the bound, float32 itself would be wrong
    assert np.array_equal(in_float32.astype(object), exact) == (inner == 1677)


def test_matmul_mod_refuses_inexact_float64():
    p = 65521
    limit = -(-(2**53) // (p - 1) ** 2)  # least inner with inner * (p-1)^2 >= 2^53
    a = np.full((1, limit - 1), p - 1, dtype=np.int64)
    b = np.full((limit - 1, 1), p - 1, dtype=np.int64)
    # (p-1)^2 = 1 mod p, so the exact product is the inner dimension mod p
    assert linalg.matmul_mod(a, b, p)[0, 0] == (limit - 1) % p
    with pytest.raises(OverflowError):
        linalg.matmul_mod(np.zeros((1, limit), dtype=np.int64), np.zeros((limit, 1), dtype=np.int64), p)
    with pytest.raises(OverflowError):
        linalg.matmul_mod(np.ones((1, 1), dtype=np.int64), np.ones((1, 1), dtype=np.int64), 2**31 - 1)


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0), (1, 1)])
def test_degenerate_shapes(shape):
    a = np.zeros(shape, dtype=np.int64)
    assert linalg.rank_mod(a, 5) == 0
    none = np.zeros(0, dtype=np.int64)
    assert linalg.sparse_rank_mod(linalg.Triplets(shape, none, none, none), 5) == 0
    k, _ = linalg.kernel_and_image(a, 5)
    assert k.shape == (shape[1], shape[1])


def test_kernel_and_image():
    rng = np.random.default_rng(7)
    p = 7
    for _ in range(10):
        a = _random_with_rank(rng, 60, 45, int(rng.integers(0, 40)), p)
        ker, im = linalg.kernel_and_image(a, p)
        r = linalg.rank_mod(a, p)
        assert im.shape[1] == r
        assert ker.shape[1] == a.shape[1] - r
        assert not linalg.matmul_mod(a, ker, p).any()
        assert linalg.rank_mod(im, p) == r
        # image columns really are columns of a
        assert linalg.rank_mod(np.hstack([a, im]), p) == r


def test_coordinates_in_span_roundtrip():
    rng = np.random.default_rng(3)
    p = 5
    basis = rng.integers(0, p, size=(30, 8), dtype=np.int64)
    while linalg.rank_mod(basis, p) < 8:
        basis = rng.integers(0, p, size=(30, 8), dtype=np.int64)
    coeffs = rng.integers(0, p, size=(8, 4), dtype=np.int64)
    vecs = linalg.matmul_mod(basis, coeffs, p)
    got = coordinates_in_span(basis, vecs, p)
    assert np.array_equal(got, coeffs % p)


def test_coordinates_outside_span_raises():
    p = 3
    basis = np.array([[1], [0], [0]], dtype=np.int64)
    vec = np.array([[0], [1], [0]], dtype=np.int64)
    with pytest.raises(ValueError):
        coordinates_in_span(basis, vec, p)


def test_inverse_mod():
    # the random-module oracle inverts its change of basis through oracles.coordinates_in_span
    rng = np.random.default_rng(5)
    p = 11
    a = rng.integers(0, p, size=(25, 25), dtype=np.int64)
    while linalg.rank_mod(a, p) < 25:
        a = rng.integers(0, p, size=(25, 25), dtype=np.int64)
    inv = inverse_mod(a, p)
    assert np.array_equal(linalg.matmul_mod(a, inv, p), np.eye(25, dtype=np.int64))
    with pytest.raises(ValueError):
        inverse_mod(np.zeros((3, 3), dtype=np.int64), p)


def test_matmul_mod_matches_python_integers():
    rng = np.random.default_rng(11)
    p = 101
    a = rng.integers(0, p, size=(64, 40), dtype=np.int64)
    b = rng.integers(0, p, size=(40, 50), dtype=np.int64)
    expected = (a @ b) % p
    assert np.array_equal(linalg.matmul_mod(a, b, p), expected)


def test_matrix_power_mod():
    a = np.array([[1, 0], [1, 1]], dtype=np.int64)
    p = 5
    assert np.array_equal(linalg.matrix_power_mod(a, 5, p), np.eye(2, dtype=np.int64))
    assert np.array_equal(linalg.matrix_power_mod(a, 0, p), np.eye(2, dtype=np.int64))


@pytest.mark.parametrize("p", [2, 3, 7])
def test_sparse_rank_matches_dense(p):
    # triplets that repeat positions and carry values beyond p, against the
    # dense rank of their sum
    rng = np.random.default_rng(100 + p)
    for _ in range(6):
        m = int(rng.integers(5, 260))
        n = int(rng.integers(5, 260))
        nnz = int(rng.integers(1, m * n // 3))
        rows = rng.integers(0, m, size=nnz)
        cols = rng.integers(0, n, size=nnz)
        vals = rng.integers(0, 3 * p, size=nnz)
        dense = np.zeros((m, n), dtype=np.int64)
        np.add.at(dense, (rows, cols), vals)
        triplets = linalg.Triplets((m, n), rows, cols, vals)
        assert linalg.sparse_rank_mod(triplets, p) == linalg.rank_mod(dense, p)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_coalesced_sums_repeated_positions(p):
    # against a dict of sums over F_p: repeated positions in any order and
    # in row-major order, values up to 3p or all in [1, p), sums that vanish
    # mod p, and no entries at all; coalescing again changes nothing
    rng = np.random.default_rng(200 + p)
    for nnz in [0, 1, 5, 40, 400, 4000]:
        m, n = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        rows = rng.integers(0, m, size=nnz)
        cols = rng.integers(0, n, size=nnz)
        row_major = np.lexsort((cols, rows))
        for vals in (rng.integers(0, 3 * p + 1, size=nnz), rng.integers(1, p, size=nnz)):
            sums: dict = {}
            for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
                sums[r, c] = (sums.get((r, c), 0) + v) % p
            want = sorted((r, c, v) for (r, c), v in sums.items() if v)
            for order in (np.arange(nnz), row_major):
                t = linalg.Triplets((m, n), rows[order], cols[order], vals[order]).coalesced(p)
                assert t.shape == (m, n)
                for u in (t, t.coalesced(p)):
                    assert list(zip(u.rows.tolist(), u.cols.tolist(), u.vals.tolist())) == want


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_scatter_sums_like_a_dense_loop(dtype):
    # positions in random order, repeated from nnz = 60 on, take np.add.at,
    # and distinct ones in row-major order a plain assignment; both must
    # equal the entries summed one by one, unreduced
    rng = np.random.default_rng(300)
    for nnz in [0, 1, 7, 60, 600]:
        shape = (int(rng.integers(1, 30)), int(rng.integers(1, 30)))
        rows, cols = rng.integers(0, shape[0], size=nnz), rng.integers(0, shape[1], size=nnz)
        keys = np.unique(rows * shape[1] + cols)
        for r, c in ((rows, cols), (keys // shape[1], keys % shape[1])):
            vals = rng.integers(1, 9, size=r.size)
            want = np.zeros(shape, dtype=np.int64)
            for i, j, v in zip(r.tolist(), c.tolist(), vals.tolist()):
                want[i, j] += v
            got = linalg.Triplets(shape, r, c, vals).scatter(dtype)
            assert got.dtype == dtype and np.array_equal(got, want)


def test_sparse_rank_budget_refuses_before_allocating(monkeypatch):
    # S^13(U_0) at p = 5 has dimension 2380; its float32 work array needs
    # 4 * 2380^2 bytes, one more than the patched budget
    mod = symmetric_power(u_k_module(height_params(5), 0), 13)
    assert mod.dim == 2380 and not mod.is_dense()
    z = cp_rep._z_triplets(mod)
    monkeypatch.setattr(linalg, "RANK_BYTES", 4 * 2380**2 - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuard, match="byte budget"):
            linalg.sparse_rank_mod(z, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# (rows, cols): both sides of _BLOCKED_MIN (192) and of the structural
# rank's row block (512), wide and tall; (160, 820) is shaped like the rows
# of N that jordan_decompose stacks
RANK_SHAPES = [(100, 300), (160, 820), (191, 191), (192, 192), (200, 420), (520, 196)]


def _naive_rank(a, p):
    return len(linalg._forward_naive(np.asarray(a, dtype=np.int64) % p, p)[1])


def _rank_cases(rng, m, n, p):
    """Dense random; rank deficient with zero rows and zero columns; sparse
    with groups of columns sharing one lead row; strictly lower triangular
    like zeta - 1; zero; full rank with a unit diagonal."""
    yield rng.integers(0, p, size=(m, n))
    a = _random_with_rank(rng, m, n, min(m, n) // 3, p)
    a[rng.choice(m, size=m // 7, replace=False)] = 0
    a[:, rng.choice(n, size=n // 7, replace=False)] = 0
    yield a
    a = rng.integers(0, p, size=(m, n)) * (rng.random((m, n)) < 0.02)
    for c in range(0, n - 3, 4):
        lead = int(rng.integers(0, m))
        a[:lead, c : c + 4] = 0
        a[lead, c : c + 4] = rng.integers(1, p, size=4)
    yield a
    yield np.tril(rng.integers(0, p, size=(m, n)) * (rng.random((m, n)) < 0.05), -1)
    yield np.zeros((m, n), dtype=np.int64)
    yield np.tril(rng.integers(0, p, size=(m, n)), -1) + np.eye(m, n, dtype=np.int64)


def _repeated_triplets(rng, a, p):
    """a as Triplets that give every nonzero position, and some zero ones,
    twice in shuffled order, with values up to 3p."""
    rows, cols = np.nonzero((a != 0) | (rng.random(a.shape) < 0.01))
    first = rng.integers(0, 3 * p, size=rows.size)
    second = (a[rows, cols] - first) % p + p * rng.integers(0, 2, size=rows.size)
    order = rng.permutation(2 * rows.size)
    return linalg.Triplets(
        a.shape, np.tile(rows, 2)[order], np.tile(cols, 2)[order], np.concatenate([first, second])[order]
    )


@pytest.mark.parametrize("shape", RANK_SHAPES)
@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_rank_matches_naive(p, shape, monkeypatch):
    # an int or float array's independent columns are exactly the pivot
    # columns of the row loop of _forward_naive, its column rank profile,
    # and the array is left as it was; the rank of triplets is theirs too,
    # also with a row block that splits every shape into several blocks
    # and a short last one
    rng = np.random.default_rng(p * 1000 + shape[0])
    for a in _rank_cases(rng, *shape, p):
        pivots = linalg._forward_naive(np.asarray(a, dtype=np.int64) % p, p)[1]
        triplets = _repeated_triplets(rng, a, p)
        for m in (a.astype(np.int64), a.astype(np.float64)):
            before = m.copy()
            assert linalg.independent_columns(m, p).tolist() == pivots
            assert linalg.rank_mod(m, p) == len(pivots)
            assert np.array_equal(m, before)
        for block in (linalg._ROW_BLOCK, 48):
            monkeypatch.setattr(linalg, "_ROW_BLOCK", block)
            assert linalg.sparse_rank_mod(triplets, p) == len(pivots)


# shapes with both sides below _BLOCKED_MIN (192), where forward_eliminate
# takes the row loop of _forward_naive: single rows and columns, square, wide
# and tall
SMALL_SHAPES = [(1, 1), (1, 9), (9, 1), (1, 191), (191, 1), (2, 3), (3, 2), (17, 17), (30, 95), (95, 30),
                (191, 64), (191, 191)]


@pytest.mark.parametrize("shape", SMALL_SHAPES)
@pytest.mark.parametrize("p", [3, 5, 7])
def test_small_triplets_rank_structurally(p, shape, monkeypatch):
    # coalesced Triplets of any shape take the structural route, and int64
    # and float64 arrays the kernel: their rank must be that of the row loop
    # on the array, and their columns independent; the row loop itself is
    # never entered
    rng = np.random.default_rng(p * 1000 + shape[0] * 7 + shape[1])
    sparse = rng.integers(0, p, size=shape) * (rng.random(shape) < 0.1)
    for a in [*_rank_cases(rng, *shape, p), sparse]:
        nz = np.nonzero(a)
        triplets = linalg.Triplets(a.shape, *nz, a[nz])
        assert triplets.coalesced(p) is triplets
        want = _naive_rank(a, p)
        for m in (triplets, a.astype(np.int64), a.astype(np.float64)):
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "_forward_naive", None)
                cols = linalg.independent_columns(m, p)
            assert len(cols) == want
            assert _naive_rank(a[:, cols], p) == len(cols)


def test_rank_of_z_fits_in_memory():
    # z on S^11(U_1) at p = 7 (dimension 4368): the whole float work array
    # alone would be 73 MiB, and eliminating it peaked at 164 MiB
    mod = symmetric_power(u_k_module(height_params(7), 1), 11)
    z = cp_rep._z_triplets(mod)
    tracemalloc.start()
    try:
        rank = linalg.sparse_rank_mod(z, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (mod.dim, rank) == (4368, 3744)
    assert peak < 120 * 2**20
