from __future__ import annotations

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from tatedual import cli, cp_rep, linalg, verdicts
from tatedual.errors import InvalidInput, ResourceGuard
from tatedual.mod_arith import height_params

from conftest import random_cp_module, report_for_k
from oracles import direct_sum, freeness_check, monomials


def _action(m):
    """The generator of m as an int64 array; symmetric powers keep Triplets."""
    g = m.gen_action
    return g if isinstance(g, np.ndarray) else g.scatter(np.int64)


class TestHeightModules:
    def test_u0_is_one_full_block(self, params5):
        m = cp_rep.u_k_module(params5, 0)
        assert m.dim == 5
        assert cp_rep.jordan_decompose(m).blocks == (5,)
        # basis z4, ..., z0: zeta(z_i) = z_i + z_(i-1)
        assert np.array_equal(m.gen_action, np.eye(5, dtype=np.int64) + np.eye(5, k=-1, dtype=np.int64))

    def test_top_k_is_trivial(self, params5):
        m = cp_rep.u_k_module(params5, 4)
        assert m.dim == 1
        assert np.array_equal(m.gen_action, np.eye(1, dtype=np.int64))

    def test_two_dimensional_case(self, params3):
        m = cp_rep.u_k_module(params3, 1)
        assert m.dim == 2
        assert cp_rep.jordan_decompose(m).blocks == (2,)
        # zeta(z2) = z2 + z1, zeta(z1) = z1
        assert np.array_equal(m.gen_action, np.array([[1, 0], [1, 1]]))

    def test_k_out_of_range(self, params5):
        with pytest.raises(InvalidInput):
            cp_rep.u_k_module(params5, 5)
        with pytest.raises(InvalidInput):
            cp_rep.u_k_module(params5, -1)

    def test_generator_has_order_p(self, params7):
        for k in range(7):
            m = cp_rep.u_k_module(params7, k)
            assert np.array_equal(linalg.matrix_power_mod(m.gen_action, 7, 7), np.eye(m.dim, dtype=np.int64))


class TestJordan:
    def test_regular_module(self):
        assert cp_rep.jordan_decompose(cp_rep.jordan_block_module(5, 5)).blocks == (5,)

    def test_trivial_module(self):
        assert cp_rep.jordan_decompose(cp_rep.jordan_block_module(7, 1)).blocks == (1,)

    def test_symmetric_square_of_v2_at_p3(self, params3):
        sq = cp_rep.symmetric_power(cp_rep.u_k_module(params3, 1), 2)
        assert cp_rep.jordan_decompose(sq).blocks == (3,)

    def test_wrong_order_detected(self):
        # order 4 element mod 5: not unipotent
        bad = cp_rep.CpModule(p=5, dim=2, gen_action=np.array([[2, 0], [0, 1]], dtype=np.int64))
        with pytest.raises(InvalidInput):
            cp_rep.jordan_decompose(bad)

    @pytest.mark.parametrize("p,k,deg", [(5, 1, 10), (7, 2, 6)])
    def test_no_dense_power_formed(self, p, k, deg, monkeypatch):
        # every product is a skinny Y_i times z, one row per Jordan block:
        # p - 2 of them for the rows and one for the z^p = 0 certificate
        m = cp_rep.symmetric_power(cp_rep.u_k_module(height_params(p), k), deg)
        assert m.dim >= 192
        left_rows = []
        matmul = linalg.matmul_mod

        def recorded(a, b, p_):
            left_rows.append(a.shape[0])
            return matmul(a, b, p_)

        monkeypatch.setattr(linalg, "matmul_mod", recorded)
        blocks = cp_rep.jordan_decompose(m).blocks
        assert left_rows == [len(blocks)] * (p - 1) and len(blocks) < m.dim

    def test_random_modules_recover_planted_blocks(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            p = int(rng.choice([3, 5, 7]))
            module, blocks = random_cp_module(rng, p, max_dim=30)
            assert cp_rep.jordan_decompose(module).blocks == blocks


class TestSymmetricPower:
    def test_degree_one_is_identity(self, params5):
        m = cp_rep.u_k_module(params5, 2)
        assert cp_rep.symmetric_power(m, 1) is m

    def test_degree_zero(self, params3):
        m = cp_rep.symmetric_power(cp_rep.u_k_module(params3, 0), 0)
        assert m.dim == 1
        assert np.array_equal(_action(m), np.ones((1, 1), dtype=np.int64))

    def test_binomial_dimension(self, params3):
        m = cp_rep.symmetric_power(cp_rep.u_k_module(params3, 1), 2)
        assert m.dim == 3

    def test_dimension_35(self, params5):
        m = cp_rep.symmetric_power(cp_rep.u_k_module(params5, 0), 3)
        assert m.dim == 35
        profile = cp_rep.jordan_decompose(m)
        assert profile.total == 35
        assert all(b == 5 for b in profile.blocks)

    @pytest.mark.parametrize("p,k,deg", [(3, 0, 4), (3, 1, 7), (5, 2, 6), (7, 4, 5)])
    def test_dimension_formula(self, p, k, deg):
        pa = height_params(p)
        m = cp_rep.symmetric_power(cp_rep.u_k_module(pa, k), deg)
        nvars = pa.n - k + 1
        assert m.dim == math.comb(deg + nvars - 1, nvars - 1)
        assert cp_rep.jordan_decompose(m).total == m.dim

    def test_action_is_multiplicative(self, params5):
        # images of monomials equal products of images of variables
        base = cp_rep.u_k_module(params5, 1)
        sq = cp_rep.symmetric_power(base, 2)
        g = base.gen_action
        monos = monomials(base.dim, 2)
        index = {mm: c for c, mm in enumerate(monos)}
        for a in range(base.dim):
            for b in range(a, base.dim):
                va, vb = np.zeros(base.dim, np.int64), np.zeros(base.dim, np.int64)
                va[a] = 1
                vb[b] = 1
                ia, ib = (g @ va) % 5, (g @ vb) % 5
                prod = np.zeros(sq.dim, np.int64)
                for r, ca in enumerate(ia):
                    for s_, cb in enumerate(ib):
                        if ca and cb:
                            e = [0] * base.dim
                            e[r] += 1
                            e[s_] += 1
                            prod[index[tuple(e)]] += ca * cb
                prod %= 5
                e = [0] * base.dim
                e[a] += 1
                e[b] += 1
                assert np.array_equal(_action(sq)[:, index[tuple(e)]], prod)

    def test_resource_guard(self, params5):
        with pytest.raises(ResourceGuard):
            cp_rep.symmetric_power(cp_rep.u_k_module(params5, 0), 400)

    def test_env_cap_override(self, params5, monkeypatch):
        monkeypatch.setattr(verdicts, "DIM_CAP", 10)
        with pytest.raises(ResourceGuard):
            cp_rep.symmetric_power(cp_rep.u_k_module(params5, 0), 3)

    @pytest.mark.parametrize("nvars", range(1, 7))
    def test_monomial_ranking_matches_enumeration(self, nvars):
        # the chain's exponent rows and the arithmetic ranking against the
        # descending-lex enumeration, at every degree up to 12
        chain = cp_rep._SymmetricChain(cp_rep.jordan_block_module(7, nvars))
        for deg in range(13):
            if deg:
                chain.step()
            expected = monomials(nvars, deg)
            assert [tuple(e) for e in chain.monos.tolist()] == expected, deg
            positions = cp_rep._lex_positions(np.array(expected, dtype=np.int64).reshape(-1, nvars), deg)
            assert positions.tolist() == list(range(len(expected))), deg

    def test_monomial_ranking_past_int64_binomials(self):
        # C(a, b) for a < deg + v, b < v overflows int64 once v >= 67; the
        # clipped table still places every monomial of 101 variables
        expected = monomials(101, 2)
        positions = cp_rep._lex_positions(np.array(expected, dtype=np.int64), 2)
        assert positions.tolist() == list(range(len(expected)))

    @pytest.mark.parametrize("p,k,max_deg", [(5, 1, 20), (7, 2, 14)])
    def test_walk_keeps_coalesced_triplets(self, p, k, max_deg):
        # one representation at every degree, coalesced for the action and for z;
        # a module is dense exactly up to DENSE_LIMIT
        walk = cp_rep._symmetric_walk(cp_rep.u_k_module(height_params(p), k), max_deg)
        for deg, m, _ in walk:
            t = m.gen_action
            assert isinstance(t, linalg.Triplets), deg
            assert t.shape == (m.dim, m.dim)
            keys = t.rows * m.dim + t.cols
            assert np.unique(keys).size == keys.size
            assert ((0 < t.vals) & (t.vals < p)).all()
            z = cp_rep._z_triplets(m)
            keys = z.rows * m.dim + z.cols
            assert (keys[1:] > keys[:-1]).all() and ((0 < z.vals) & (z.vals < p)).all(), deg
            assert m.is_dense() is (m.dim <= cp_rep.DENSE_LIMIT)

    def test_sparse_path_matches_dense(self, params5, monkeypatch):
        dense = cp_rep.symmetric_power(cp_rep.u_k_module(params5, 1), 5)
        monkeypatch.setattr(cp_rep, "DENSE_LIMIT", 10)
        sparse_mod = cp_rep.symmetric_power(cp_rep.u_k_module(params5, 1), 5)
        assert not sparse_mod.is_dense()
        t = sparse_mod.gen_action
        assert t.shape == dense.gen_action.shape
        # coalesced: each position once, every value nonzero mod 5
        assert len(set(zip(t.rows.tolist(), t.cols.tolist()))) == t.vals.size
        assert ((0 < t.vals) & (t.vals < 5)).all()
        scattered = np.zeros(t.shape, dtype=np.int64)
        scattered[t.rows, t.cols] = t.vals
        assert np.array_equal(scattered, _action(dense))


class TestTate:
    def test_free_module_vanishes(self):
        td = cp_rep._tate_data(cp_rep.jordan_block_module(5, 5)).tate
        assert (td.even_dim, td.odd_dim) == (0, 0)

    def test_trivial_module(self):
        td = cp_rep._tate_data(cp_rep.jordan_block_module(5, 1)).tate
        assert (td.even_dim, td.odd_dim) == (1, 1)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_small_blocks(self, r):
        td = cp_rep._tate_data(cp_rep.jordan_block_module(5, r)).tate
        assert (td.even_dim, td.odd_dim) == (1, 1)

    def test_bases_are_honest_subquotient_data(self):
        m = direct_sum(
            [cp_rep.jordan_block_module(5, 5), cp_rep.jordan_block_module(5, 2), cp_rep.jordan_block_module(5, 1)]
        )
        data = cp_rep._tate_data(m)
        td = data.tate
        assert (td.even_dim, td.odd_dim) == (2, 2)
        # the kernel bases are killed, and each image lies in the other's kernel
        z, norm = cp_rep._norm_matrix(m)
        assert not linalg.matmul_mod(z, data.ker_z, 5).any()
        assert not linalg.matmul_mod(norm, data.ker_n, 5).any()
        assert linalg.rank_mod(np.hstack([data.ker_z, data.im_n]), 5) == data.ker_z.shape[1]
        assert linalg.rank_mod(np.hstack([data.ker_n, data.im_z]), 5) == data.ker_n.shape[1]

    def test_counts_small_blocks(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            p = int(rng.choice([3, 5]))
            module, blocks = random_cp_module(rng, p, max_dim=24)
            expected = sum(1 for b in blocks if b < p)
            td = cp_rep._tate_data(module).tate
            assert td.even_dim == td.odd_dim == expected

    @staticmethod
    def _horner_norm(m):
        """1 + zeta + ... + zeta^(p-1) in Python integers, by Horner."""
        g = _action(m).astype(object)
        ident = np.eye(m.dim, dtype=np.int64).astype(object)
        acc = ident
        for _ in range(m.p - 1):
            acc = (g @ acc + ident) % m.p
        return acc.astype(np.int64)

    def test_norm_matches_horner_on_random_modules(self):
        rng = np.random.default_rng(2024)
        for p in (3, 5, 7):
            for _ in range(6):
                module, _ = random_cp_module(rng, p, max_dim=30)
                assert np.array_equal(cp_rep._norm_matrix(module)[1], self._horner_norm(module))

    @pytest.mark.parametrize("p,k,deg", [(3, 0, 7), (3, 1, 9), (5, 1, 6), (5, 2, 11), (7, 1, 4), (7, 3, 8)])
    def test_norm_matches_horner_on_symmetric_powers(self, p, k, deg):
        module = cp_rep.symmetric_power(cp_rep.u_k_module(height_params(p), k), deg)
        z, norm = cp_rep._norm_matrix(module)
        assert np.array_equal(z, cp_rep._z_triplets(module).scatter(np.int64))
        assert np.array_equal(norm, self._horner_norm(module))
        assert not linalg.matmul_mod(z, norm, p).any()

    def test_sparse_module_rejected(self):
        diag = np.arange(3000)
        identity = linalg.Triplets((3000, 3000), diag, diag, np.ones(3000, dtype=np.int64))
        big = cp_rep.CpModule(p=5, dim=3000, gen_action=identity)
        with pytest.raises(ResourceGuard):
            cp_rep._tate_data(big)


class TestTateRankFormula:
    """The count of Jordan blocks smaller than p, the Tate dimension that
    sympow and `verify nilpotence --json` print, against the kernel and
    image bases of _tate_data."""

    @staticmethod
    def _agrees(module):
        td = cp_rep._tate_data(module).tate
        return cp_rep.jordan_decompose(module).tate_dim(module.p) == td.even_dim == td.odd_dim

    def test_random_modules(self):
        rng = np.random.default_rng(7919)
        for trial in range(200):
            module, blocks = random_cp_module(rng, int(rng.choice([3, 5, 7])), max_dim=40)
            assert self._agrees(module), (trial, blocks)

    # the last four reach the largest degree of dimension at most 600 (560,
    # 595 and 595), except p = 3, k = 1, where degree d has dimension d + 1:
    # it stops at 120, since 599 degrees would take minutes and its blocks
    # smaller than p depend only on d mod p
    @pytest.mark.parametrize(
        "p,k,max_deg",
        [(3, 0, 12), (3, 1, 12), (5, 1, 10), (5, 2, 15), (3, 1, 119), (5, 1, 13), (5, 2, 33), (7, 4, 33)],
    )
    def test_symmetric_powers(self, p, k, max_deg):
        walk = cp_rep._symmetric_walk(cp_rep.u_k_module(height_params(p), k), max_deg)
        for deg, module, _ in walk:
            assert self._agrees(module), deg

    @pytest.mark.parametrize("permuted", [False, True])
    @pytest.mark.parametrize("size", ["p+1", 300])
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_wrong_order_raises(self, p, size, permuted):
        # one lower Jordan block longer than p, so z^p != 0: as is, z is
        # strictly lower triangular; a random permutation of the basis makes
        # it not triangular
        dim = p + 1 if size == "p+1" else size
        action = np.eye(dim, dtype=np.int64) + np.eye(dim, k=-1, dtype=np.int64)
        if permuted:
            perm = np.random.default_rng(7 + dim * p).permutation(dim)
            action = action[np.ix_(perm, perm)]
            assert np.triu(action, 1).any()
        with pytest.raises(InvalidInput):
            cp_rep.jordan_decompose(cp_rep.CpModule(p=p, dim=dim, gen_action=action))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_json_tate_dims_match_kernel_and_image(self, p, capsys):
        # every dense degree that is not free in `verify nilpotence --json`
        # takes the Tate dimension of its base degree d mod p; the explicit
        # power's kernel and image bases, along one walk per level, must
        # give it in both groups.  About 2 s at p = 5 and 1.5 s at p = 7 on
        # a 2-core machine, most of it at degree 20 of U_1 (dimension 1771)
        # at p = 5 and at degree 8 of U_1 (1287) at p = 7
        params = height_params(p)
        assert cli.main(["verify", "nilpotence", "--prime", str(p), "--json"]) == 0
        checked = 0
        for report in json.loads(capsys.readouterr().out):
            todo = {d["degree"]: d for d in report["degrees"]
                    if not d["free"] and d["dimension"] <= cp_rep.DENSE_LIMIT}
            for deg, mod, _ in cp_rep._symmetric_walk(cp_rep.u_k_module(params, report["k"]), max(todo)):
                if deg in todo:
                    tate = cp_rep._tate_data(mod).tate
                    assert (todo[deg]["even_dim"], todo[deg]["odd_dim"]) == tuple(tate), (report["k"], deg)
                    checked += 1
        assert checked == {3: 19, 5: 46, 7: 43}[p]


class TestFreeness:
    @pytest.mark.parametrize(
        "p,k,deg,expected",
        [(5, 0, 6, True), (3, 1, 2, True), (3, 0, 3, False)],
    )
    def test_examples(self, p, k, deg, expected):
        assert freeness_check(height_params(p), k, deg) is expected

    def test_pattern_small(self, params3, params5):
        # degrees pt + r with k+1 <= r <= p-1 are always free
        for pa, caps in ((params3, 12), (params5, 12)):
            for k in range(0, pa.n):
                for deg in range(1, caps):
                    if k + 1 <= deg % pa.p <= pa.p - 1:
                        assert freeness_check(pa, k, deg), (pa.p, k, deg)

    def test_degenerate_top_k(self, params3):
        # trivial action: nothing of positive degree is free
        assert freeness_check(params3, 2, 0) is False
        assert freeness_check(params3, 2, 1) is False
        assert freeness_check(params3, 2, 5) is False

    def test_freeness_iff_tate_vanishes_on_chain(self, params5):
        chain = cp_rep._SymmetricChain(cp_rep.u_k_module(params5, 1))
        for deg in range(0, 9):
            if deg:
                chain.step()
            m = chain.current_module()
            td = cp_rep._tate_data(m).tate
            free = cp_rep.jordan_decompose(m).all_full(5)
            assert free == ((td.even_dim, td.odd_dim) == (0, 0))

    def test_sparse_rank_route(self):
        # block-diagonal modules above the dense limit, free and not free
        def as_triplets(sizes):
            dense = direct_sum([cp_rep.jordan_block_module(5, s) for s in sizes]).gen_action
            rows, cols = np.nonzero(dense)
            action = linalg.Triplets(dense.shape, rows, cols, dense[rows, cols])
            return cp_rep.CpModule(p=5, dim=dense.shape[0], gen_action=action)

        assert cp_rep._free_by_rank(as_triplets([5] * 500)) is True
        assert cp_rep._free_by_rank(as_triplets([5] * 499 + [4, 1])) is False

    @pytest.mark.parametrize("p,k", [(3, 0), (3, 1), (3, 2), (5, 2), (5, 3)])
    def test_one_pass_matches_per_degree(self, p, k):
        pa = height_params(p)
        degrees = range(0, verdicts.default_degree_cap(pa, k) + 1)
        expected = {d: freeness_check(pa, k, d) for d in degrees}
        flags = verdicts.free_flags_by_k(pa, {k: degrees[-1]})[k]
        assert {d: flags[d] for d in degrees} == expected

    def test_one_pass_edge_cases(self, params3):
        assert verdicts.free_flags_by_k(params3, {1: 0})[1] == [False]
        with pytest.raises(InvalidInput):
            verdicts.free_flags_by_k(params3, {1: -1})[1]


class TestOrbitProduct:
    """The product of the C_p-orbit of the top variable is an invariant of
    degree p: the symmetric power's action must fix it."""

    @staticmethod
    def _orbit_product(base, p):
        """Exponent-tuple coefficients of the product of g^t(x_0), t < p,
        expanded with Python integers."""
        v = base.dim
        poly = {(0,) * v: 1}
        form = np.zeros(v, dtype=np.int64)
        form[0] = 1
        for _ in range(p):
            nxt: dict = {}
            for expo, c in poly.items():
                for t in np.flatnonzero(form):
                    key = tuple(e + (u == t) for u, e in enumerate(expo))
                    nxt[key] = (nxt.get(key, 0) + c * int(form[t])) % p
            poly = {e: c for e, c in nxt.items() if c}
            form = (base.gen_action @ form) % p
        return poly

    @staticmethod
    def _fixed(base, p, poly):
        sym = cp_rep.symmetric_power(base, p)
        index = {m: c for c, m in enumerate(monomials(base.dim, p))}
        vec = np.zeros(sym.dim, dtype=np.int64)
        for expo, c in poly.items():
            vec[index[expo]] = c
        return np.array_equal((_action(sym) @ vec) % p, vec)

    def test_expansion_p3(self, params3):
        # z2 (z2 + z1) (z2 + 2 z1 + z0) on the basis z2, z1, z0
        expansion = {(3, 0, 0): 1, (2, 0, 1): 1, (1, 2, 0): 2, (1, 1, 1): 1}
        base = cp_rep.u_k_module(params3, 0)
        assert self._orbit_product(base, 3) == expansion
        assert self._fixed(base, 3, expansion)

    @pytest.mark.parametrize("p,k", [(3, 0), (3, 1), (5, 0), (5, 2), (5, 4)])
    def test_degree_and_invariance(self, p, k):
        base = cp_rep.u_k_module(height_params(p), k)
        poly = self._orbit_product(base, p)
        assert all(sum(e) == p for e in poly)
        assert self._fixed(base, p, poly)


def _tate_window(params, k, lo, hi):
    """The (deg, module, embed) triples of _symmetric_walk in degrees lo..hi,
    and the Tate data of each module."""
    walk = list(cp_rep._symmetric_walk(cp_rep.u_k_module(params, k), hi))[lo:]
    return walk, [cp_rep._tate_data(mod) for _, mod, _ in walk]


class TestMultiplication:
    def test_zero_map_between_zero_spaces(self, params5):
        # two consecutive free degrees
        walk, (src, tgt) = _tate_window(params5, 1, 2, 3)
        _, tgt_mod, embed = walk[1]
        assert cp_rep._induced_step(5, embed, tgt_mod.dim, src, tgt, 2) is True

    def test_single_step_can_be_nonzero(self, params3):
        walk, (src, tgt) = _tate_window(params3, 1, 3, 4)
        _, tgt_mod, embed = walk[1]
        assert (src.tate.even_dim, tgt.tate.even_dim) == (1, 1)
        assert cp_rep._induced_step(3, embed, tgt_mod.dim, src, tgt, 3) is False
        assert not cp_rep._window_vanishes(3, walk)

    def test_negative_degree_refused(self, params5):
        with pytest.raises(InvalidInput):
            list(cp_rep._symmetric_walk(cp_rep.u_k_module(params5, 1), -1))

    def test_embedding_is_equivariant(self, params3):
        # z_k is invariant, so multiplication commutes with the action
        chain = cp_rep._SymmetricChain(cp_rep.u_k_module(params3, 1))
        for _ in range(4):
            prev = chain.current_module()
            chain.step()
            cur = chain.current_module()
            emb = chain.last_var_embed
            t_mat = np.zeros((cur.dim, prev.dim), dtype=np.int64)
            t_mat[emb, np.arange(prev.dim)] = 1
            lhs = linalg.matmul_mod(t_mat, _action(prev), 3)
            rhs = linalg.matmul_mod(_action(cur), t_mat, 3)
            assert np.array_equal(lhs, rhs)

    def test_composites_vanish(self, params3):
        # product of k+1 = 2 consecutive maps is zero even when steps are not
        walk = list(cp_rep._symmetric_walk(cp_rep.u_k_module(params3, 1), 8))
        for d in range(0, 7):
            assert cp_rep._window_vanishes(3, walk[d : d + 3]), d


def _ranked_pairs(p, k, max_deg):
    """The (level, degree) pairs that free_flags_by_k ranks, bottom-up: on each
    U_j, k <= j < n, the degrees d = j + 1 mod p, the first of each period
    whose dimension p divides."""
    return [(j, d) for j in range(p - 2, k - 1, -1) for d in range(1, max_deg + 1) if d % p == j + 1]


def _levels_seen(monkeypatch, name, params):
    """The (level j, degree) of each symmetric power Sym^d(U_j) passed to
    cp_rep.<name>, in order.  Each module is tagged when its chain makes it,
    and kept, so that its id stays its own."""
    made = {}
    current = cp_rep._SymmetricChain.current_module

    def tagged(chain):
        mod = current(chain)
        made[id(mod)] = (mod, (params.n + 1 - chain.nvars, chain.deg))
        return mod

    seen = []
    real = getattr(cp_rep, name)

    def spied(m, *args):
        seen.append(made[id(m)][1])
        return real(m, *args)

    monkeypatch.setattr(cp_rep._SymmetricChain, "current_module", tagged)
    monkeypatch.setattr(cp_rep, name, spied)
    return seen


def _weight_short(monkeypatch):
    """Force the weight certificate of verdicts.free_flags_by_k short, so
    that every degree it would prove free goes to the fallback rank of z."""
    monkeypatch.setattr(verdicts, "weight_rank", lambda p, nvars, deg: -1)


def _budgeted(monkeypatch):
    """The (level j, degree) that each budget check of a fallback rank names,
    in order: the calls of linalg.check_rank_budget with a context, whose
    shape must be the dimension of Sym^d(U_j) it names."""
    seen = []
    real = linalg.check_rank_budget

    def spied(shape, p, context=""):
        if context:
            j, d, dim = map(int, re.fullmatch(r"k=(\d+) degree (\d+) has dimension (\d+): ", context).groups())
            assert shape == (dim, dim) and dim == cp_rep.symmetric_dimension(p - j, d), context
            seen.append((j, d))
        return real(shape, p, context)

    monkeypatch.setattr(linalg, "check_rank_budget", spied)
    return seen


class TestFreeFlags:
    @pytest.mark.parametrize(
        "p,k,max_deg,report",
        [(3, 1, 27, "verdict"), (5, 1, 20, "verdict"), (5, 2, 25, "tate"), (7, 2, 14, "verdict"),
         (7, 1, 14, "tate"), (5, 0, 20, "freeness"), (7, 0, 10, "freeness"), (7, 3, 13, "freeness")],
    )
    def test_ranks_only_where_the_degree_below_is_not_free(self, p, k, max_deg, report, monkeypatch):
        params = height_params(p)
        _weight_short(monkeypatch)
        ranked = _levels_seen(monkeypatch, "_free_by_rank", params)
        budgeted = _budgeted(monkeypatch)
        if report == "freeness":
            verdicts.free_flags_by_k(params, {k: max_deg})[k]
        else:
            assert report_for_k(params, k, max_deg, tate_dims=report == "tate").holds
        assert ranked == _ranked_pairs(p, k, max_deg)
        # the budget covers exactly the fallback ranks, each before its walk
        assert budgeted == _ranked_pairs(p, k, max_deg)
        if (p, k) == (7, 2):
            # against 13 ranks of U_2 alone, up to dimension 2380
            dims = [cp_rep.symmetric_dimension(params.n + 1 - j, d) for j, d in ranked]
            assert (len(ranked), max(dims)) == (8, 1001)

    @pytest.mark.parametrize("p,k", [(p, k) for p in (3, 5, 7) for k in range(p - 1)])
    def test_last_variable_makes_z_block_triangular(self, p, k):
        """The hypothesis of free_flags_by_k's certificate, in the engine's own
        basis: at every degree d of the nilpotence and freeness suites whose
        power of U_k is dense, the z of the walk maps the span A of the
        monomials that the last variable divides into itself, equals there
        the z of degree d - 1 carried by last_var_embed, and on the other
        monomials, modulo A, equals the z of Sym^d(U_(k+1)) once their last
        exponent (0) is dropped.

        No output can guard this.  By Lucas's theorem p divides
        dim Sym^d(U_k) = C(d + p-1-k, p-1-k) exactly when d mod p >= k + 1,
        which is when the degree is free, so a rule that answers "free"
        wherever p divides the dimension prints the same bytes."""
        def entries(rows, cols, vals):
            return sorted(zip(rows.tolist(), cols.tolist(), vals.tolist()))

        params = height_params(p)
        chain = cp_rep._SymmetricChain(cp_rep.u_k_module(params, k))
        upper = cp_rep._SymmetricChain(cp_rep.u_k_module(params, k + 1))
        prev = cp_rep._z_triplets(chain.current_module())
        for deg in range(1, verdicts.default_degree_cap(params, k) + 1):
            if cp_rep.symmetric_dimension(chain.nvars, deg) > cp_rep.DENSE_LIMIT:
                break
            chain.step()
            upper.step()
            z = cp_rep._z_triplets(chain.current_module())
            embed = chain.last_var_embed
            in_a = np.zeros(z.shape[0], dtype=bool)
            in_a[embed] = True
            assert np.array_equal(in_a, chain.monos[:, -1] > 0), deg
            on_a = in_a[z.cols]
            assert in_a[z.rows[on_a]].all(), deg
            assert entries(z.rows[on_a], z.cols[on_a], z.vals[on_a]) == entries(
                embed[prev.rows], embed[prev.cols], prev.vals
            ), deg
            index = {tuple(m): i for i, m in enumerate(upper.monos.tolist())}
            quotient = np.array([index.get(tuple(m[:-1]), -1) if m[-1] == 0 else -1 for m in chain.monos.tolist()])
            rest = ~on_a & ~in_a[z.rows]
            q = cp_rep._z_triplets(upper.current_module())
            assert entries(quotient[z.rows[rest]], quotient[z.cols[rest]], z.vals[rest]) == entries(
                q.rows, q.cols, q.vals
            ), deg
            prev = z


def _suite_caps(params, suite, max_degree):
    """The caps of an all-k `verify <suite>`: k = 1, ..., n-1 for nilpotence
    and 0, ..., n-1 for freeness, each at its default or at max_degree."""
    ks = range(1 if suite == "nilpotence" else 0, params.n)
    return {k: verdicts.default_degree_cap(params, k) if max_degree is None else max_degree for k in ks}


def _union_pairs(p, caps):
    """The (level, degree) pairs that one pass for every k of caps ranks,
    levels top-down: on each U_j, j >= min k, the degrees d = j + 1 mod p up
    to the largest cap of a k <= j."""
    return [(j, d) for j in range(p - 2, min(caps) - 1, -1)
            for d in range(1, max(c for k, c in caps.items() if k <= j) + 1) if d % p == j + 1]


class TestOnePass:
    """free_flags_by_k decides every k of a command in one pass."""

    @pytest.mark.parametrize("max_degree", [None, 9])
    @pytest.mark.parametrize("suite", ["nilpotence", "freeness"])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_shared_flags_are_per_k_flags(self, p, suite, max_degree):
        # each k decided alone; none is refused, the freeness suite at p = 5
        # (k = 0, degree 21, dimension 12650) included
        params = height_params(p)
        caps = _suite_caps(params, suite, max_degree)
        alone = {k: verdicts.free_flags_by_k(params, {k: d})[k] for k, d in caps.items()}
        assert verdicts.free_flags_by_k(params, caps) == alone
        # the pattern that test_periodicity derives from the Jordan profiles
        assert all(alone[k] == [k + 1 <= d % p for d in range(c + 1)] for k, c in caps.items())

    @pytest.mark.parametrize(
        "argv",
        [("nilpotence", "--prime", "3"), ("nilpotence", "--prime", "5"),
         ("nilpotence", "--prime", "5", "--json"), ("nilpotence", "--prime", "7"),
         ("nilpotence", "--prime", "5", "--max-degree", "9"), ("freeness", "--prime", "3"),
         ("freeness", "--prime", "7"), ("freeness", "--prime", "5", "--max-degree", "9")],
    )
    def test_one_pass_ranks_each_level_degree_once(self, argv, monkeypatch, capsys):
        params = height_params(int(argv[2]))
        caps = _suite_caps(params, argv[0], int(argv[-1]) if "--max-degree" in argv else None)
        _weight_short(monkeypatch)
        ranked = _levels_seen(monkeypatch, "_free_by_rank", params)
        budgeted = _budgeted(monkeypatch)
        steps = []
        step = cp_rep._SymmetricChain.step

        def counted(chain):
            steps.append((chain.nvars, chain.deg + 1))
            step(chain)

        monkeypatch.setattr(cp_rep._SymmetricChain, "step", counted)
        assert cli.main(["verify", *argv]) == 0
        capsys.readouterr()
        assert ranked == _union_pairs(params.p, caps)
        # the budget covers the union of the ranked pairs, each before its walk
        assert budgeted == ranked
        if argv == ("nilpotence", "--prime", "5"):
            # against 27 ranks and 125 steps when each k is decided alone: U_3
            # and U_2 to degree 25, U_1 to 20, each walked to its last rank
            assert len(ranked) == 14 and len(steps) <= 64
            assert len(set(steps)) == len(steps)

    @pytest.mark.parametrize(
        "suite,p,err",
        [(suite, p, f"k={k} degree {10**12}: symmetric power dimension {math.comb(10**12 + p - 1 - k, p - 1 - k)} "
                    "exceeds cap 50000")
         for suite, k in (("nilpotence", 1), ("freeness", 0)) for p in (3, 5, 7)],
    )
    def test_one_pass_refuses_huge_max_degree_before_any_step(self, suite, p, err, monkeypatch, capsys):
        # the lowest k, refused by DIM_CAP before any row is built or any
        # power stepped, with stdout empty
        def no_steps(self):
            raise AssertionError("the pass stepped a chain before its budget")

        def no_rows(*args):
            raise AssertionError("the pass ranked D before its budget")

        monkeypatch.setattr(cp_rep._SymmetricChain, "step", no_steps)
        monkeypatch.setattr(verdicts, "weight_rank", no_rows)
        assert cli.main(["verify", suite, "--prime", str(p), "--max-degree", str(10**12)]) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")


class TestNilpotence:
    def test_trivial_k0(self, params5):
        report = report_for_k(params5, 0, 10)
        assert report.holds and report.trivial

    @pytest.mark.parametrize("p,k,max_deg", [(3, 1, 30), (5, 3, 20), (5, 2, 15)])
    def test_examples(self, p, k, max_deg):
        assert report_for_k(height_params(p), k, max_deg).holds is True

    def test_bad_inputs(self, params5):
        with pytest.raises(InvalidInput):
            report_for_k(params5, 4, 10)
        with pytest.raises(InvalidInput):
            report_for_k(params5, 2, 2)

    def _dims_seen(self, monkeypatch, name):
        """The dimension of each module passed to cp_rep.<name>, in order."""
        seen = []
        real = getattr(cp_rep, name)

        def counted(m):
            seen.append(m.dim)
            return real(m)

        monkeypatch.setattr(cp_rep, name, counted)
        return seen

    def test_verdict_builds_z_where_p_divides_dim(self, params5, monkeypatch):
        # only at the ranked degrees, levels bottom-up: U_3 at degrees 4, 9
        # and 14, then U_2 at 3, 8 and 13; U_2 at 4, 9 and 14, whose
        # dimensions 5 also divides, are free by extension
        _weight_short(monkeypatch)
        built = _levels_seen(monkeypatch, "_z_triplets", params5)
        report = report_for_k(params5, 2, 15)
        assert all(d.dim <= cp_rep.DENSE_LIMIT for d in report.degrees)
        assert built == _ranked_pairs(5, 2, 15)

    def test_z_built_once_per_dense_degree(self, params5, monkeypatch):
        # the ranks of z at the ranked degrees, which are free, and one
        # decomposition for each base degree d mod p of the degrees of U_2
        # that are not free, 0, 1 and 2, all below p: with the weight
        # certificate forced short, no leaf decides them
        _weight_short(monkeypatch)
        ranked = _levels_seen(monkeypatch, "_free_by_rank", params5)
        decomposed = self._dims_seen(monkeypatch, "jordan_decompose")
        report = report_for_k(params5, 2, 15, tate_dims=True)
        assert all(d.dim <= cp_rep.DENSE_LIMIT for d in report.degrees)
        assert ranked == _ranked_pairs(5, 2, 15)
        assert {d.deg % 5 for d in report.degrees if not d.free} == {0, 1, 2}
        assert sorted(decomposed) == [verdicts.symmetric_dimension(3, b) for b in (0, 1, 2)]

    def test_verdict_takes_no_powers_of_z(self, params5, monkeypatch):
        # one rank of z at each degree that free_flags_by_k ranks, and nothing else
        def refused(*args):
            raise AssertionError("the verdict took a power of z")

        monkeypatch.setattr(cp_rep, "_skinny_powers", refused)
        monkeypatch.setattr(linalg, "matmul_mod", refused)
        assert report_for_k(params5, 1, 20).holds

    def test_tate_report_skips_free_degrees(self, params5, monkeypatch):
        # a free degree reports 0, and one that is not free the Tate
        # dimension of its base degree d mod p: at k = 1 the bases 0 and 1,
        # which the rank of D decides, so no power is built or decomposed
        def refused(*args):
            raise AssertionError("the Tate report built a power")

        monkeypatch.setattr(cp_rep._SymmetricChain, "step", refused)
        skinny = self._dims_seen(monkeypatch, "_skinny_powers")
        report = report_for_k(params5, 1, 20, tate_dims=True)
        assert any(d.free for d in report.degrees)
        assert {d.deg % 5 for d in report.degrees if not d.free} == {0, 1}
        assert skinny == []

    def test_walk_stops_at_last_ranked_degree(self, monkeypatch):
        # p = 7, k = 2: each level U_j steps only to its last ranked degree,
        # d = j + 1 + 7: U_2 to degree 10 (dimension 1001), not to 13
        # (dimension 2380), which U_3 at 13 and U_2 at 12 prove free; degree
        # 14 (dimension 3060, not a multiple of 7) is reported from its
        # dimension, unbuilt
        stepped: dict = {}
        step = cp_rep._SymmetricChain.step

        def counted(chain):
            stepped.setdefault(7 - chain.nvars, []).append(chain.deg + 1)
            step(chain)

        monkeypatch.setattr(cp_rep._SymmetricChain, "step", counted)
        _weight_short(monkeypatch)
        report = report_for_k(height_params(7), 2, 14)
        assert stepped == {j: list(range(1, j + 9)) for j in (5, 4, 3, 2)}
        assert list(stepped) == [5, 4, 3, 2]
        assert report.degrees[-1] == verdicts.DegreeSummary(14, 3060, None, None, False)
        assert report.holds

    def test_report_fits_in_memory(self):
        # p = 7, k = 2 peaked at 40.5 MiB while it built degree 14 (dimension
        # 3060), which no rank reads; without that step it peaks near 31 MiB
        tracemalloc.start()
        try:
            assert report_for_k(height_params(7), 2, 14).holds
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 36 * 2**20

    @pytest.mark.parametrize("p,k,max_deg,limit,window", [(3, 1, 4, 4, "2..4"), (5, 2, 15, 10, "1..4")])
    def test_window_past_dense_limit_refused(self, p, k, max_deg, limit, window, monkeypatch):
        # every degree forced non-free: the first window that reaches past
        # the dense limit is refused.  Its last degree has dimension 5 at
        # p = 3, which 3 does not divide, and 15 at p = 5, which is ranked
        monkeypatch.setattr(cp_rep, "DENSE_LIMIT", limit)
        monkeypatch.setattr(cp_rep, "_free_by_rank", lambda m: False)
        _weight_short(monkeypatch)
        with pytest.raises(ResourceGuard) as refused:
            report_for_k(height_params(p), k, max_deg)
        assert str(refused.value) == f"window {window} has no vanishing degree and exceeds the dense limit"

    def test_report_json_shape(self, params3):
        report = report_for_k(params3, 1, 6)
        blob = report.to_json()
        assert blob["holds"] is True
        assert blob["windows_checked"] == report.windows
        assert len(blob["degrees"]) == 7


class TestNilpotenceFallback:
    """The explicit window test that no valid input reaches on its own."""

    @pytest.mark.parametrize("p,k,max_deg", [(3, 1, 12), (5, 2, 15), (5, 3, 15)])
    def test_every_window_explicit(self, p, k, max_deg, monkeypatch):
        tested = []
        explicit = cp_rep._window_vanishes

        def counted(p_, window):
            tested.append(window[0][0])
            return explicit(p_, window)

        monkeypatch.setattr(cp_rep, "_free_by_rank", lambda m: False)
        monkeypatch.setattr(cp_rep, "_window_vanishes", counted)
        _weight_short(monkeypatch)
        report = report_for_k(height_params(p), k, max_deg)
        assert report.holds
        assert tested == list(range(max_deg - k)) and report.windows == max_deg - k

    @pytest.mark.parametrize(
        "p,k,max_deg,nonzero",
        # (5, 1, 11) reaches dimension 364, where kernel bases take the blocked elimination
        [(3, 1, 12, [0, 3, 6, 9]), (5, 3, 15, [0, 5, 10]), (5, 1, 11, [0, 5, 10])],
    )
    def test_shortened_windows_can_fail(self, p, k, max_deg, nonzero):
        # k-fold instead of (k+1)-fold composites: the check must be able to fail
        walk = list(cp_rep._symmetric_walk(cp_rep.u_k_module(height_params(p), k), max_deg))
        starts = range(max_deg - k + 1)
        assert [m for m in starts if not cp_rep._window_vanishes(p, walk[m : m + k + 1])] == nonzero


def test_default_degree_caps():
    assert verdicts.default_degree_cap(height_params(3), 1) == 27
    assert verdicts.default_degree_cap(height_params(5), 1) == 20
    assert verdicts.default_degree_cap(height_params(5), 2) == 25
    assert verdicts.default_degree_cap(height_params(7), 1) == 14
