"""Almkvist-Fossum periodicity as an oracle for the symmetric-power ranks.

For a Jordan block V_m with m <= p, S^(d+p)(V_m) is S^d(V_m) plus a free
module (Almkvist and Fossum 1978; restated by Hughes and Kemper, Comm.
Algebra 28, 2000).  A free summand of rank f adds (p-1)f to rank(z) and f
to rank(N), so the ranks in degree d follow from those in degree d - p:

    rank z_d = rank z_(d-p) + (p-1)(dim_d - dim_(d-p))/p,
    rank N_d = rank N_(d-p) + (dim_d - dim_(d-p))/p,

and freeness and the Tate dimension dim - rank z - rank N depend on d mod p
only.  The ranks below degree p are computed here from scratch: the action
by substituting into monomials with Python integers, ranks by a plain
Gaussian elimination.  Nothing is shared with cp_rep or linalg, and the
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

from tatedual import cp_rep, linalg
from tatedual.mod_arith import height_params

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
def _base_ranks(p: int, k: int) -> tuple:
    """(dim, rank z, rank N) of S^r(U_k) for r < p, computed from scratch."""
    m = p - k  # U_k has n - k + 1 = p - k variables
    out = []
    for r in range(p):
        z = (_sym_action(m, p, r) - np.eye(math.comb(r + m - 1, m - 1), dtype=np.int64)) % p
        norm = np.eye(z.shape[0], dtype=np.int64)
        for _ in range(p - 1):
            norm = (norm.astype(np.float64) @ z.astype(np.float64) % p).astype(np.int64)
        out.append((z.shape[0], _rank(z, p), _rank(norm, p)))
    return tuple(out)


def predicted(p: int, k: int, d: int) -> tuple[int, int, int]:
    """(dim, rank z, rank N) of S^d(U_k) by the periodicity from degree d mod p."""
    dim0, rz, rn = _base_ranks(p, k)[d % p]
    dim = math.comb(d + p - k - 1, p - k - 1)
    free, rem = divmod(dim - dim0, p)
    assert rem == 0, (p, k, d)
    return dim, rz + (p - 1) * free, rn + free


def predicted_free(p: int, k: int, d: int) -> bool:
    dim, rz, _ = predicted(p, k, d)
    return dim % p == 0 and rz == dim - dim // p


# the nilpotence suites of acceptance criterion 5, at their default degree caps
NILPOTENCE_SUITES = [(3, 1, 27), (5, 1, 20), (5, 2, 25), (5, 3, 25)]
# the freeness suites at their default caps; p = 5, k = 0 stops at degree 12,
# the last dense one, because its default cap of 25 (dimension 23751) runs
# for minutes
FREENESS_SUITES = [(3, 0, 27), (3, 1, 27), (5, 0, 12), (5, 1, 20), (5, 2, 25), (5, 3, 25)]


@pytest.mark.parametrize("p,k,max_deg", NILPOTENCE_SUITES)
def test_nilpotence_report_matches_prediction(p, k, max_deg):
    report = cp_rep.nilpotence_report(height_params(p), k, max_deg)
    assert [d.deg for d in report.degrees] == list(range(max_deg + 1))
    for d in report.degrees:
        dim, rz, rn = predicted(p, k, d.deg)
        assert (d.dim, d.even_dim, d.odd_dim) == (dim, dim - rz - rn, dim - rz - rn), d
        assert d.free is predicted_free(p, k, d.deg), d


@pytest.mark.parametrize("p,k,max_deg", FREENESS_SUITES)
def test_freeness_by_degree_matches_prediction(p, k, max_deg):
    degrees = range(max_deg + 1)
    expected = {d: predicted_free(p, k, d) for d in degrees}
    assert cp_rep.freeness_by_degree(height_params(p), k, degrees) == expected


@pytest.mark.parametrize("p", [3, 5, 7])
def test_freeness_pattern(p):
    # the window certificates of nilpotence_report rest on this pattern:
    # S^d(U_k) is free exactly when k + 1 <= d mod p <= p - 1
    for k in range(p - 1):
        for d in range(3 * p):
            assert predicted_free(p, k, d) is (k + 1 <= d % p <= p - 1), (k, d)


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


# degrees 11-13 (dimensions 4368-8568) take about 20 s together and peak
# near 0.8 GB; CI runs them with -m slow
@pytest.mark.parametrize("degree", [9, 10, *(pytest.param(d, marks=pytest.mark.slow) for d in (11, 12, 13))])
def test_p7_k1_rank_path_matches_golden(degree):
    golden = json.loads((GOLDEN / "ranks_p7_k1.json").read_text())
    row = next(row for row in golden["degrees"] if row["degree"] == degree)
    mod = cp_rep.symmetric_power(cp_rep.u_k_module(height_params(7), 1), degree)
    assert not mod.is_dense()
    rank = linalg.sparse_rank_mod(cp_rep._nilpotent_part(mod), 7)
    assert (mod.dim, rank) == (row["dimension"], row["rank_z"])
