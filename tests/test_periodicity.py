"""Almkvist-Fossum periodicity as an oracle for the symmetric-power ranks.

For a Jordan block V_m with m <= p, S^(d+p)(V_m) is S^d(V_m) plus a free
module (Almkvist and Fossum 1978; restated by Hughes and Kemper, Comm.
Algebra 28, 2000).  A free summand of rank f is f Jordan blocks of size p
and adds (p-j)f to rank(z^j): (p-1)f to rank(z) and f to rank(N).  So the
ranks in degree d follow from those in degree d - p:

    rank z_d = rank z_(d-p) + (p-1)(dim_d - dim_(d-p))/p,
    rank N_d = rank N_(d-p) + (dim_d - dim_(d-p))/p,

freeness and the Tate dimension dim - rank z - rank N depend on d mod p
only, and the Jordan profile in degree d is the one in degree d mod p plus
(dim_d - dim_(d mod p))/p blocks of size p.  The ranks of the powers of z
below degree p are computed here from scratch: the action by substituting
into monomials with Python integers, ranks by a plain Gaussian
elimination.  Nothing is shared with cp_rep or linalg, and the
predictions at every higher degree are compared with what the package
reports.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

from tatedual import cp_rep, linalg, verdicts
from tatedual.mod_arith import height_params

from conftest import main_with_rank_d_one_short, report_for_k
from oracles import symmetric_power, symmetric_walk, u_k_module

GOLDEN = Path(__file__).parent / "golden"


def _sym_action(m: int, p: int, d: int) -> np.ndarray:
    """The generator on S^d(V_m), V_m the Jordan block zeta(x_t) = x_t + x_(t+1)."""
    monos = [tuple(c.count(t) for t in range(m)) for c in combinations_with_replacement(range(m), d)]
    index = {e: i for i, e in enumerate(monos)}
    g = np.zeros((len(monos), len(monos)), dtype=np.int64)
    for col, expo in enumerate(monos):
        poly = {(0,) * m: 1}
        for t, e in enumerate(expo):
            image = (t,) if t == m - 1 else (t, t + 1)
            for _ in range(e):
                nxt: dict = {}
                for key, c in poly.items():
                    for u in image:
                        bumped = key[:u] + (key[u] + 1,) + key[u + 1 :]
                        nxt[bumped] = (nxt.get(bumped, 0) + c) % p
                poly = nxt
        for key, c in poly.items():
            g[index[key], col] = c
    return g


def _rank(a: np.ndarray, p: int) -> int:
    a = a % p
    rank = 0
    for c in range(a.shape[1]):
        if rank == a.shape[0]:
            break
        nz = np.flatnonzero(a[rank:, c])
        if nz.size == 0:
            continue
        a[[rank, rank + nz[0]]] = a[[rank + nz[0], rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), -1, p) % p
        below = rank + 1 + np.flatnonzero(a[rank + 1 :, c])
        a[below] = (a[below] - np.outer(a[below, c], a[rank])) % p
        rank += 1
    return rank


@lru_cache(maxsize=None)
def _base_ranks(p: int, k: int, top: int) -> tuple:
    """The ranks of z^0, z^1, ..., z^top on S^r(U_k) for each r < p,
    computed from scratch; rank z^0 is the dimension, and rank z^p is 0."""
    m = p - k  # U_k has n - k + 1 = p - k variables
    out = []
    for r in range(p):
        z = (_sym_action(m, p, r) - np.eye(math.comb(r + m - 1, m - 1), dtype=np.int64)) % p
        power = np.eye(z.shape[0], dtype=np.int64)
        ranks = [z.shape[0]]
        for _ in range(top):
            power = (power.astype(np.float64) @ z.astype(np.float64) % p).astype(np.int64)
            ranks.append(_rank(power, p))
        assert top < p or ranks[p] == 0, (p, k, r)
        out.append(ranks)
    return tuple(out)


def predicted_ranks(p: int, k: int, d: int, top: int) -> list[int]:
    """The ranks of z^0, ..., z^top on S^d(U_k) by the periodicity from
    degree d mod p: its free summand of rank f = (dim_d - dim_(d mod p))/p
    is f blocks of size p, on which z^j has rank (p - j)f."""
    base = _base_ranks(p, k, top)[d % p]
    free, rem = divmod(math.comb(d + p - k - 1, p - k - 1) - base[0], p)
    assert rem == 0, (p, k, d)
    return [r + (p - j) * free for j, r in enumerate(base)]


def predicted(p: int, k: int, d: int) -> tuple[int, int, int]:
    """(dim, rank z, rank N) of S^d(U_k) by the periodicity."""
    ranks = predicted_ranks(p, k, d, p)
    return ranks[0], ranks[1], ranks[p - 1]


def predicted_free(p: int, k: int, d: int) -> bool:
    dim, rz = predicted_ranks(p, k, d, 1)
    return dim % p == 0 and rz == dim - dim // p


def predicted_blocks(p: int, k: int, d: int) -> tuple[int, ...]:
    """The Jordan block sizes of S^d(U_k), descending: those of degree d mod
    p and f more of size p, since (rank z^(s-1) - rank z^s) - (rank z^s -
    rank z^(s+1)) blocks have size s."""
    ranks = predicted_ranks(p, k, d, p) + [0]
    return tuple(s for s in range(p, 0, -1) for _ in range(ranks[s - 1] - 2 * ranks[s] + ranks[s + 1]))


# the nilpotence suites of acceptance criterion 5, at their default degree caps
NILPOTENCE_SUITES = [(3, 1, 27), (5, 1, 20), (5, 2, 25), (5, 3, 25)]
# the freeness suites at their default caps; p = 5, k = 0 stops at degree 12,
# the last dense one, because its default cap of 25 (dimension 23751) runs
# for minutes
FREENESS_SUITES = [(3, 0, 27), (3, 1, 27), (5, 0, 12), (5, 1, 20), (5, 2, 25), (5, 3, 25)]


@pytest.mark.parametrize("p,k,max_deg", NILPOTENCE_SUITES)
def test_nilpotence_report_matches_prediction(p, k, max_deg):
    report = report_for_k(height_params(p), k, max_deg, tate_dims=True)
    assert [d.deg for d in report.degrees] == list(range(max_deg + 1))
    for d in report.degrees:
        dim, rz, rn = predicted(p, k, d.deg)
        assert (d.dim, d.tate) == (dim, dim - rz - rn), d
        assert d.free is predicted_free(p, k, d.deg), d
    # the verdict alone lists no degree, and holds over the same windows
    verdict = report_for_k(height_params(p), k, max_deg)
    assert verdict.degrees == ()
    assert (verdict.holds, verdict.windows) == (report.holds, report.windows) == (True, max_deg - k)


def test_free_flags_catch_an_off_by_one_rank(monkeypatch):
    # mutation check: the verdict's free flags rest on the ranks of D alone,
    # at the one certificate of each level, d = j + 1 on U_j, so a block
    # count off by one must show against the prediction at every degree
    # read off those bases, and `verify freeness --prime 5` must report
    # every degree that the periodicity predicts free as failing, exit 1
    # and load no numpy.  (By Lucas's theorem p divides C(d + p-1-k,
    # p-1-k) exactly when d mod p >= k + 1, so testing only whether p
    # divides the dimension, or answering free wherever it does, agrees
    # with freeness at every degree of U_k, and no output could catch that
    # mutant; TestFreeFlags in test_cp_rep checks the certificate's
    # hypothesis instead.)
    real = verdicts.weight_rank
    monkeypatch.setattr(verdicts, "weight_rank", lambda p, nvars, deg: real(p, nvars, deg) + 1)
    p, k, max_deg = 5, 1, 20
    flags = verdicts.free_flags_by_k(height_params(p), {k: max_deg})[k]
    assert [flags[d % p] for d in range(max_deg + 1)] != [predicted_free(p, k, d) for d in range(max_deg + 1)]
    lines = []
    for k in range(p - 1):
        cap = verdicts.default_degree_cap(height_params(p), k)
        free = [d for d in range(cap + 1) if predicted_free(p, k, d)]
        lines.append(f"FAIL freeness p=5 k={k} degrees_checked={len(free)} max_degree={cap} failing={free}\n")
    assert main_with_rank_d_one_short(["verify", "freeness", "--prime", "5"]) == (1, "".join(lines), [])


@pytest.mark.parametrize("p,k,max_deg", [*NILPOTENCE_SUITES, (7, 2, 14)])
def test_jordan_profile_matches_prediction(p, k, max_deg):
    # every degree whose power is dense: up to 12 (dimension 1820) at p = 7
    walk = symmetric_walk(u_k_module(height_params(p), k), max_deg)
    dense = [(deg, mod) for deg, mod, _ in walk if mod.dim <= cp_rep.DENSE_LIMIT]
    assert dense[-1][0] == (12 if p == 7 else max_deg)
    for deg, mod in dense:
        assert cp_rep.jordan_decompose(mod).blocks == predicted_blocks(p, k, deg), deg


@pytest.mark.parametrize("p,k,max_deg", FREENESS_SUITES)
def test_freeness_by_degree_matches_prediction(p, k, max_deg):
    # each degree reads the flag of its base d mod p
    flags = verdicts.free_flags_by_k(height_params(p), {k: max_deg})[k]
    assert len(flags) == p
    assert [flags[d % p] for d in range(max_deg + 1)] == [predicted_free(p, k, d) for d in range(max_deg + 1)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_freeness_pattern(p):
    # the window certificates of nilpotence_report rest on this pattern:
    # S^d(U_k) is free exactly when k + 1 <= d mod p <= p - 1
    for k in range(p - 1):
        for d in range(3 * p):
            assert predicted_free(p, k, d) is (k + 1 <= d % p <= p - 1), (k, d)


def test_freeness_p5_golden_matches_prediction():
    # `verify freeness --prime 5` checks, at each k, the degrees d up to its
    # default cap (20 at k = 1, 25 otherwise) with d mod 5 > k
    lines = (GOLDEN / "freeness_p5.txt").read_text().splitlines()
    assert len(lines) == 4
    for k, line in enumerate(lines):
        cap = verdicts.default_degree_cap(height_params(5), k)
        free = [d for d in range(cap + 1) if predicted_free(5, k, d)]
        assert line == f"PASS freeness p=5 k={k} degrees_checked={len(free)} max_degree={cap}", line


def test_freeness_p7_golden_matches_prediction():
    # `verify freeness --prime 7` checks, at each k, the degrees d <= 14
    # with d mod 7 > k: its count must be that of the degrees the
    # periodicity predicts free, and every one of them must pass
    lines = (GOLDEN / "freeness_p7.txt").read_text().splitlines()
    assert len(lines) == 6
    for k, line in enumerate(lines):
        free = [d for d in range(15) if predicted_free(7, k, d)]
        assert line == f"PASS freeness p=7 k={k} degrees_checked={len(free)} max_degree=14", line


def test_p7_k1_rank_golden():
    # ranks of z on S^d(U_1) at p = 7 above the dense limit, recorded from
    # an earlier dict-based sparse elimination; degree 14 needs no rank (7
    # does not divide 11628)
    golden = json.loads((GOLDEN / "ranks_p7_k1.json").read_text())
    assert (golden["p"], golden["k"]) == (7, 1)
    assert [row["degree"] for row in golden["degrees"]] == list(range(9, 14))
    for row in golden["degrees"]:
        dim, rz, _ = predicted(7, 1, row["degree"])
        assert (row["dimension"], row["rank_z"]) == (dim, rz), row


# degrees 11-13 (dimensions 4368-8568) take about 6 s together and peak
# near 0.3 GB; CI runs them with -m slow
@pytest.mark.parametrize("degree", [9, 10, *(pytest.param(d, marks=pytest.mark.slow) for d in (11, 12, 13))])
def test_p7_k1_rank_path_matches_golden(degree):
    golden = json.loads((GOLDEN / "ranks_p7_k1.json").read_text())
    row = next(row for row in golden["degrees"] if row["degree"] == degree)
    mod = symmetric_power(u_k_module(height_params(7), 1), degree)
    assert not mod.is_dense()
    rank = linalg.sparse_rank_mod(cp_rep._z_triplets(mod), 7)
    assert (mod.dim, rank) == (row["dimension"], row["rank_z"])



def _sympow_inputs(p, limit):
    """(k, top) for every level U_k at p: the sympow inputs of dimension <=
    limit are the degrees d <= top; at the trivial level U_n, whose every
    power has dimension 1, top is 2p."""
    return [(k, max(d for d in range(limit if k < p - 1 else 2 * p) if verdicts.symmetric_dimension(p - k, d) <= limit))
            for k in range(p)]


@pytest.mark.parametrize("p", [3, 5])
def test_certified_profile_matches_decomposition(p):
    # the profile that sympow reads off its base degree d mod p and the
    # periodicity, against the dense decomposition along one walk per level
    # and against the periodicity of the test's own ranks.  To dimension
    # 300 it takes about 3 s on a 2-core machine; to 500, 10 s, most of it
    # in jordan_decompose on the powers of the two-variable U_(p-2)
    params = height_params(p)
    for k, top in _sympow_inputs(p, 300):
        for deg, mod, _ in symmetric_walk(u_k_module(params, k), top):
            profile = verdicts.jordan_profile(params, k, deg)
            assert profile == cp_rep.jordan_decompose(mod), (k, deg)
            assert profile.blocks == predicted_blocks(p, k, deg), (k, deg)


# every sympow input at p up to dimension 2000 (2068, 2106 and 2127 at p =
# 3, 5 and 7), against the periodicity: about 0.2 s at p = 3 and 5, and
# 8 s at p = 7 on a 2-core machine, nearly all of it in the oracle's ranks
# below degree 7 of the seven-variable U_0; CI runs p = 7 with -m slow
@pytest.mark.parametrize("p", [3, 5, pytest.param(7, marks=pytest.mark.slow)])
def test_certified_profile_matches_prediction_to_dense_limit(p):
    params = height_params(p)
    for k, top in _sympow_inputs(p, cp_rep.DENSE_LIMIT):
        for deg in range(top + 1):
            assert verdicts.jordan_profile(params, k, deg).blocks == predicted_blocks(p, k, deg), (k, deg)
