"""The weight certificate of verdicts.free_flags_by_k against the engine:
its D is the weight-one part of the z that cp_rep builds, its rank bounds
rank z from below and reaches dim - dim/p on every level that a command
can rank, and a comparison one short fails the verdict."""

from __future__ import annotations

import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tatedual import cli, cp_rep, linalg, verdicts
from tatedual.errors import ResourceGuard
from tatedual.mod_arith import MAX_PRIME, height_params, is_odd_prime

from conftest import main_with_rank_d_one_short
from oracles import free_flags_per_degree, monomials, rank_row_loop, symmetric_walk, u_k_module

BENCH_EXPECTED = Path(__file__).parent.parent / "bench" / "expected"


def _dense_ranked_pairs(p):
    """(level j, degree d) of every rank that the default nilpotence and
    freeness suites at p took when each degree was proved on its own
    (oracles.free_flags_per_degree), whose power is dense: d = j + 1 mod p
    up to the largest default cap of a k <= j, k from 0.  The suites now
    take the first, the base d = j + 1, on each level."""
    params = height_params(p)
    pairs = []
    for j in range(p - 1):
        reach = max(verdicts.default_degree_cap(params, k) for k in range(j + 1))
        for d in range(j + 1, reach + 1, p):
            if verdicts.symmetric_dimension(p - j, d) <= cp_rep.DENSE_LIMIT:
                pairs.append((j, d))
    return pairs


def _entries(columns, nvars, deg):
    """The entries (row, col, value) of D given as verdicts' columns: a row
    code is read back as its exponents, base deg + 1, and placed by
    cp_rep._lex_positions; column c is the c-th monomial."""
    base = deg + 1
    flat = [(code, c, v) for c, column in enumerate(columns) for code, v in column.items()]
    expo = np.array([[code // base ** (nvars - 1 - t) % base for t in range(nvars)] for code, _, _ in flat],
                    dtype=np.int64).reshape(-1, nvars)
    rows = cp_rep._lex_positions(expo, deg).tolist()
    return sorted((r, c, v) for r, (_, c, v) in zip(rows, flat))


def _weight_one_part(mod, monos):
    """The entries of z whose row has weight one more than their column;
    asserts that z raises every weight."""
    z = cp_rep._z_triplets(mod)
    weight = monos @ np.arange(monos.shape[1])
    assert (weight[z.rows] > weight[z.cols]).all()
    one = weight[z.rows] == weight[z.cols] + 1
    return sorted(zip(z.rows[one].tolist(), z.cols[one].tolist(), z.vals[one].tolist()))


def _mutant_columns(p, nvars, deg):
    """D built with e_(t-1) in place of e_(t+1), in the code of verdicts."""
    base = deg + 1
    scale = [base ** (nvars - 1 - t) for t in range(nvars)]
    return [{sum(e * s for e, s in zip(a, scale)) - scale[t] + scale[t - 1]: a[t] % p
             for t in range(1, nvars) if a[t] % p} for a in monomials(nvars, deg)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_d_is_the_weight_one_part_of_z(p):
    params = height_params(p)
    pairs = _dense_ranked_pairs(p)
    assert pairs
    for j in sorted({j for j, _ in pairs}):
        degrees = [d for i, d in pairs if i == j]
        chain = cp_rep._SymmetricChain(u_k_module(params, j))
        nvars = chain.nvars
        while chain.deg < degrees[-1]:
            chain.step()
            deg = chain.deg
            if deg not in degrees:
                continue
            mod = chain.current_module()
            dim = mod.dim
            # the columns follow the engine's monomial order
            assert [tuple(m) for m in chain.monos.tolist()] == monomials(nvars, deg), (j, deg)
            part = _weight_one_part(mod, chain.monos)
            assert _entries(verdicts._weight_columns(p, nvars, deg), nvars, deg) == part, (j, deg)
            # mutation check: a D that moves the other way is caught
            assert _entries(_mutant_columns(p, nvars, deg), nvars, deg) != part, (j, deg)
            rank_d = verdicts.weight_rank(p, nvars, deg)
            assert rank_d <= linalg.sparse_rank_mod(cp_rep._z_triplets(mod), p), (j, deg)
            assert rank_d == dim - dim // p, (j, deg)


def test_columns_stream_into_the_rank():
    # the rank holds its pivots but no list of columns: at three variables
    # and degree 303 (dimension 46360) the columns alone take about as much
    # as the pivots, so listing them first about doubles the peak
    def peak(rank):
        tracemalloc.start()
        try:
            assert rank() == 37088
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    streamed = peak(lambda: verdicts.weight_rank(5, 3, 303))
    listed = peak(lambda: verdicts._rank_mod(list(verdicts._weight_columns(5, 3, 303)), 5))
    assert streamed < 0.7 * listed, (streamed, listed)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_dict_elimination_matches_row_loop(p):
    rng = random.Random(p)
    for trial in range(60):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        if trial % 2:
            # rank-deficient: a product through an inner dimension below both sides
            inner = rng.randint(0, min(rows, cols) - 1) if min(rows, cols) > 1 else 0
            left = [[rng.randrange(p) for _ in range(inner)] for _ in range(rows)]
            right = [[rng.randrange(p) for _ in range(cols)] for _ in range(inner)]
            matrix = [[sum(left[i][t] * right[t][c] for t in range(inner)) % p for c in range(cols)]
                      for i in range(rows)]
        else:
            matrix = [[rng.randrange(p) if rng.random() < 0.4 else 0 for _ in range(cols)] for _ in range(rows)]
        columns = [{r: matrix[r][c] for r in range(rows) if matrix[r][c]} for c in range(cols)]
        assert verdicts._rank_mod(columns, p) == rank_row_loop(matrix, p), (trial, matrix)


def _ranks_of_d(monkeypatch):
    """(rank D, dim - dim/p) of each power whose D verdicts ranks, in order."""
    ranks = []
    real = verdicts.weight_rank

    def spied(p, nvars, deg):
        dim = verdicts.symmetric_dimension(nvars, deg)
        ranks.append((real(p, nvars, deg), dim - dim // p))
        return ranks[-1][0]

    monkeypatch.setattr(verdicts, "weight_rank", spied)
    return ranks


SUITES = [(suite, p) for suite in ("nilpotence", "freeness") for p in ("3", "5", "7", "11", "13")]


@pytest.mark.parametrize("suite,p", SUITES)
def test_default_suites_take_no_fallback(suite, p, monkeypatch, capsys):
    # none is needed: every rank of D that the default suites take reaches
    # dim - dim/p, so no level is left uncertified
    ranks = _ranks_of_d(monkeypatch)
    assert cli.main(["verify", suite, "--prime", p]) == 0
    capsys.readouterr()
    assert ranks and all(rank == full for rank, full in ranks)


# the proof that no fallback is needed: rank D on the certificate
# Sym^(j+1)(U_j) of every level that DIM_CAP admits, each ranked by the pass
# of {j: j + 1}, 34 levels at p <= 13 in about 0.1 s; -m slow takes every
# prime up to MAX_PRIME, 526 levels in about 45 s on a 2-core machine, the
# largest Sym^6(U_5) at p = 19 (dimension 27132) in about 2 s
@pytest.mark.parametrize("top,levels", [(13, 34), pytest.param(MAX_PRIME, 526, marks=pytest.mark.slow)])
def test_rank_d_certifies_every_admitted_level(top, levels, monkeypatch):
    ranks = _ranks_of_d(monkeypatch)
    for p in filter(is_odd_prime, range(3, top + 1)):
        params = height_params(p)
        for j in range(p - 1):
            try:
                flags = verdicts.free_flags_by_k(params, {j: j + 1})[j]
            except ResourceGuard:
                continue
            assert flags[j + 1], (p, j)
    assert len(ranks) == levels
    assert all(rank == full for rank, full in ranks)


def test_a_comparison_one_short_fails_the_verdict():
    # mutation check: comparing rank D with dim - dim/p - 1 certifies no
    # level, so no base is free and every window is open: each line of the
    # verdict reads FAIL and the command exits 1, with no rank of z to
    # stand in and no numpy loaded
    code, out, loaded = main_with_rank_d_one_short(["verify", "nilpotence", "--prime", "5"])
    expected = (BENCH_EXPECTED / "nilpotence-p5.out").read_text()
    assert (code, out, loaded) == (1, expected.replace("PASS", "FAIL"), [])


def test_plain_verdict_takes_no_chain_step(monkeypatch, capsys):
    # no power is walked: the plain verdict at p = 5 ranks D once on each
    # level j >= 1, at its base d = j + 1, and prints the recorded verdict
    ranked, real = [], verdicts.weight_rank
    monkeypatch.setattr(verdicts, "weight_rank", lambda p, v, d: ranked.append((p - v, d)) or real(p, v, d))
    assert cli.main(["verify", "nilpotence", "--prime", "5"]) == 0
    assert capsys.readouterr().out == (BENCH_EXPECTED / "nilpotence-p5.out").read_text()
    assert ranked == [(3, 4), (2, 3), (1, 2)]


def _parent_accepts(params, k, cap):
    """Whether the per-degree pass, with its budgets at caps[k], took {k: cap}:
    Sym^cap(U_k) within DIM_CAP, and the ranks of D at d = j + 1 mod p, d <=
    cap, on the levels j >= k within that pass's budget of 10^6 monomials."""
    p = params.p
    if verdicts.symmetric_dimension(p - k, cap) > verdicts.DIM_CAP:
        return False
    rows = sum(verdicts.symmetric_dimension(p - j, d) for j in range(k, p - 1) for d in range(j + 1, cap + 1, p))
    return rows <= 1_000_000


# the oracle ranks D up to dimension 50000: about 0.5 s at p <= 7 on a
# 2-core machine, 2 s each at p = 11 and 13
@pytest.mark.parametrize("p", [3, 5, 7, *(pytest.param(p, marks=pytest.mark.slow) for p in (11, 13))])
def test_period_flags_match_the_per_degree_pass(p):
    # every (k, cap) with cap <= 3p + 1 that the per-degree pass accepted:
    # degree d read off the flag of its base d mod p, against each degree
    # proved on its own.  The largest accepted cap of each k bounds the
    # others, and one oracle pass decides every k at its largest
    params = height_params(p)
    tops = {k: max(c for c in range(3 * p + 2) if _parent_accepts(params, k, c)) for k in range(p)}
    oracle = free_flags_per_degree(params, tops)
    for k, top in tops.items():
        for cap in range(top + 1):
            flags = verdicts.free_flags_by_k(params, {k: cap})[k]
            assert len(flags) == min(p, cap + 1), (k, cap)
            assert [flags[d % p] for d in range(cap + 1)] == oracle[k][: cap + 1], (k, cap)
    assert sum(top + 1 for top in tops.values()) == {3: 33, 5: 85, 7: 150, 11: 248, 13: 287}[p]


# jordan_profile folds the characteristic-0 character, a route that shares
# nothing with the ranks behind the flags: about 0.1 s at p = 13 on a 2-core
# machine
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_folded_character_gives_every_base_profile_and_flag(p):
    # every base b < p of every level: the fold is a profile of Sym^b(U_k),
    # blocks of size at most p summing to its dimension, and its freeness is
    # the flag of free_flags_by_k
    params = height_params(p)
    flags = verdicts.free_flags_by_k(params, dict.fromkeys(range(p), p - 1))
    for k in range(p):
        for b in range(p):
            blocks = verdicts.jordan_profile(params, k, b).blocks
            assert sum(blocks) == verdicts.symmetric_dimension(p - k, b) and max(blocks) <= p, (k, b)
            assert flags[k][b] == all(size == p for size in blocks), (k, b)


# the fold against the decomposition of the explicit power, along one walk
# per level, on every base b < p of dimension at most DENSE_LIMIT: 603
# bases at p <= 19.  About 2.5 s for p <= 11 on a 2-core machine; -m slow
# takes p = 13, 17 and 19, about 12 s
@pytest.mark.parametrize("p", [3, 5, 7, 11, *(pytest.param(p, marks=pytest.mark.slow) for p in (13, 17, 19))])
def test_fold_matches_decomposition_on_every_dense_base(p):
    params = height_params(p)
    checked = 0
    for k in range(p):
        top = max(b for b in range(p) if verdicts.symmetric_dimension(p - k, b) <= verdicts.DENSE_LIMIT)
        for b, mod, _ in symmetric_walk(u_k_module(params, k), top):
            assert verdicts.jordan_profile(params, k, b) == cp_rep.jordan_decompose(mod), (k, b)
            checked += 1
    assert checked == {3: 9, 5: 25, 7: 49, 11: 95, 13: 115, 17: 147, 19: 163}[p]
