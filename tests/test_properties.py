from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from tatedual import tate_engine as eng
from tatedual.mod_arith import GROUPS, height_params

from oracles import lattice_generators

SMALL = st.integers(min_value=-50, max_value=50)


@given(p=st.sampled_from([3, 5, 7]), eps=st.integers(0, 1), i=SMALL, j=SMALL,
       u=st.integers(-4, 4), v=st.integers(-4, 4))
@settings(max_examples=150)
def test_canonical_representative_is_lattice_invariant(p, eps, i, j, u, v):
    pa = height_params(p)
    for family in ("Cp", "F"):
        cls = eng.MonomialClass(eps, i, j, family)
        (d1i, d1j), (d2i, d2j) = lattice_generators(family, pa)
        moved = cls.translate(d1i * u + d2i * v, d1j * u + d2j * v)
        assert eng.orbit(moved, pa) == eng.orbit(cls, pa)


@given(p=st.sampled_from([3, 5, 7]), eps=st.integers(0, 1), i=SMALL, j=SMALL)
@settings(max_examples=150)
def test_first_differential_bidegree_and_weight(p, eps, i, j):
    pa = height_params(p)
    for fam in ("Cp", "F"):
        cls = eng.MonomialClass(eps, i, j, fam)
        out = eng.d_first(cls, pa)
        if out is None:
            continue
        tgt, coeff = out
        assert 1 <= coeff < p
        s0, t0 = eng.bidegree(cls, pa)
        s1, t1 = eng.bidegree(tgt, pa)
        assert (s1 - s0, t1 - t0) == (2 * pa.n + 1, 2 * pa.n)


@given(p=st.sampled_from([3, 5, 7]), i=SMALL, j=SMALL)
@settings(max_examples=150)
def test_dual_transform_is_an_involution_on_bidegrees(p, i, j):
    pa = height_params(p)
    n = pa.n
    s, t = eng.bidegree(eng.MonomialClass(0, i, j, "Cp"), pa)
    s2, t2 = n - 1 - (n - 1 - s), 2 * n - (2 * n - t)
    assert (s2, t2) == (s, t)


def test_differential_pairing_is_injective(params7):
    for group in GROUPS:
        page = eng.e2_page(group, params7)
        d1 = eng.differential_map(page)
        targets = [eng.orbit(t, params7) for _, t, _ in d1.pairs]
        assert len(set(targets)) == len(targets)
        mid = eng.turn_page(page, d1)
        d2 = eng.differential_map(mid)
        targets2 = [eng.orbit(t, params7) for _, t, _ in d2.pairs]
        assert len(set(targets2)) == len(targets2)
