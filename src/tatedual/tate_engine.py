"""The bigraded Tate spectral sequence engine at height n = p - 1.

Pages for the three groups are exterior-times-Laurent monomial algebras
F[a, b^{+-1}, d^{+-1}]/(a^2) with two differential families, at r = 2n+1
and r = 2n^2+1.  A class is a^eps b^i d^j; for the semidirect-product
groups F and G the three generators are usually written alpha, beta, Delta
but carry the same index structure, so one record serves both families
and only the grading and coefficient formulas differ.

Seed differentials are normalized to coefficient one (the survivor pattern
does not depend on the unit choices); all other coefficients follow from
linearity over the invariant elements.  Pages are stored as congruence
conditions on (eps, i, j): the set of their classes' orbits under the
periodicity lattice, which the differentials respect.  orbit is the one
statement of that lattice, its generators in its docstring.

run_to_einfty is the one place where pages are turned and fates decided,
and differential_map, which it calls once per family, the one place where
d_first and d_second are evaluated.  Charts, overlays, the cancellation
check and the dual shift route all read the SequenceRecord of one run
through SequenceRecord.partner: a chart arrow, and the dual differential
D(y) -> c D(x) of a recorded pair x -> c y, is that pair moved by the
lattice onto the class at hand, so no dual class is ever built.

window_runs is the one statement of which classes a chart window holds:
runs of classes along the window's shorter side, each a row of j or a
progression in i, so a tall or wide window costs its short side only.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .errors import VerificationFailure
from .mod_arith import HeightParams


def _family(group: str) -> str:
    return "Cp" if group == "Cp" else "F"


class MonomialClass(namedtuple("MonomialClass", "eps i j family")):
    """A basis class a^eps b^i d^j (Cp family) or its alpha/beta/Delta
    analogue (F family, also used for G)."""

    __slots__ = ()

    def label(self) -> str:
        power = "d" if self.family == "Cp" else "D"
        parts = []
        if self.eps:
            parts.append("a")
        if self.i:
            parts.append(f"b^{self.i}" if self.i != 1 else "b")
        if self.j:
            parts.append(f"{power}^{self.j}" if self.j != 1 else power)
        return " ".join(parts) if parts else "1"

    def translate(self, di: int, dj: int) -> "MonomialClass":
        return MonomialClass(self.eps, self.i + di, self.j + dj, self.family)


def grading(family: str, params: HeightParams) -> tuple[int, int, int]:
    """(t_a, t_b, t_d), the internal degrees of a, b and d (alpha, beta and
    Delta for F and G): the one statement of t.  A class a^eps b^i d^j sits
    at s = eps + 2i and t = t_a eps + t_b i + t_d j."""
    p, n = params.p, params.n
    if family == "Cp":
        return -2, 0, 2 * p
    return 2 * n, 2 * p * n, 2 * p * n * n


def bidegree(cls: MonomialClass, params: HeightParams) -> tuple[int, int]:
    """(s, t) with s the cohomological and t the internal degree."""
    t_a, t_b, t_d = grading(cls.family, params)
    return cls.eps + 2 * cls.i, t_a * cls.eps + t_b * cls.i + t_d * cls.j


def first_diff_index(params: HeightParams) -> int:
    return 2 * params.n + 1


def second_diff_index(params: HeightParams) -> int:
    return 2 * params.n * params.n + 1


def orbit(cls: MonomialClass, params: HeightParams) -> tuple[int, int]:
    """The orbit (eps, j mod p) of a class under the periodicity lattice:
    the one statement of the lattice.  It is generated by the two
    differential-equivariant translations (di, dj): for Cp those of b d^n,
    (1, n), and d^p, (0, p); for F and G those of beta, (1, 0), and of the
    p-th power of Delta, (0, p).  Each orbit holds exactly one class with
    i = 0 and 0 <= j < p, so there are 2p of them."""
    shear = params.n if cls.family == "Cp" else 0
    return cls.eps, (cls.j - shear * cls.i) % params.p


# ---------------------------------------------------------------------------
# closed-form differentials


def d_first(cls: MonomialClass, params: HeightParams) -> tuple[MonomialClass, int] | None:
    """The r = 2n+1 differential on a single class, or None on cycles.

    Cp family: d(b^i d^j) = (j + i) a b^(i+n) d^(j+1); classes divisible by
    a are cycles.  F family: d(b^i D^j) = j a b^(i+n) D^(j-1).
    """
    p, n = params.p, params.n
    if cls.eps == 1:
        return None
    if cls.family == "Cp":
        coeff = (cls.j + cls.i) % p
        target = MonomialClass(1, cls.i + n, cls.j + 1, cls.family)
    else:
        coeff = cls.j % p
        target = MonomialClass(1, cls.i + n, cls.j - 1, cls.family)
    if coeff == 0:
        return None
    return target, coeff


def d_second(cls: MonomialClass, params: HeightParams) -> tuple[MonomialClass, int] | None:
    """The r = 2n^2+1 differential on survivors of the first family.

    Only classes divisible by a support it; the coefficient is one by the
    seed normalization."""
    n = params.n
    if cls.eps == 0:
        return None
    if cls.family == "Cp":
        target = MonomialClass(0, cls.i + n * n + 1, cls.j + n - 1, cls.family)
    else:
        target = MonomialClass(0, cls.i + n * n + 1, cls.j - n, cls.family)
    return target, 1


# ---------------------------------------------------------------------------
# pages


class Page(namedtuple("Page", "group params r survivors")):
    """Survivors at stage r, stored as their orbits (eps, j mod p) under the
    periodicity lattice (orbit)."""

    __slots__ = ()

    @property
    def family(self) -> str:
        return _family(self.group)

    def fundamental_domain(self) -> list[MonomialClass]:
        return [MonomialClass(eps, 0, jbar, self.family) for eps, jbar in sorted(self.survivors)]


def window_runs(group: str, params: HeightParams, x_min: int, x_max: int, s_min: int, s_max: int):
    """The classes with (t - s, s) in the window, as runs (eps, i, j, di, dj,
    length): the classes (eps, i + u di, j + u dj) for u < length.

    A class sits at s = eps + 2i and t - s = c + a i + step j, with
    c = (t_a - 1) eps, a = t_b - 2 (never 0) and step = t_d (grading).  For
    each eps the walk takes the window's shorter side: a row i holds one
    range of j; a column x holds classes only when g = gcd(a, step) divides
    x - c, and then its i form a progression of difference m = step / g,
    along which j moves by -a / g.  Runs come row by row or column by
    column, not in (s, j) order."""
    t_a, t_b, step = grading(_family(group), params)
    a = t_b - 2
    g = gcd(a, step)
    m = step // g
    for eps in (0, 1):
        c = (t_a - 1) * eps
        lo, hi = (s_min - eps + 1) // 2, (s_max - eps) // 2
        if hi - lo <= x_max - x_min:
            for i in range(lo, hi + 1):
                j = -((x_min - c - a * i) // -step)
                length = (x_max - c - a * i) // step - j + 1
                if length > 0:
                    yield eps, i, j, 0, 1, length
            continue
        for x in range(x_min + (c - x_min) % g, x_max + 1, g):
            i = lo + ((x - c) // g * pow(a // g, -1, m) - lo) % m
            if i <= hi:
                yield eps, i, (x - c - a * i) // step, m, -a // g, (hi - i) // m + 1


def e2_page(group: str, params: HeightParams) -> Page:
    survivors = frozenset((eps, j) for eps in (0, 1) for j in range(params.p))
    return Page(group=group, params=params, r=2, survivors=survivors)


# The r-th differential recorded over the fundamental domain: a partial
# pairing representative -> (target, coefficient), as a tuple of
# (source MonomialClass, target MonomialClass, coeff).
DifferentialMap = namedtuple("DifferentialMap", "r pairs")


def differential_map(page: Page) -> DifferentialMap:
    """The page's next nonzero differential over its fundamental domain;
    everything between the two families is zero, so pages only ever sit at
    three stages."""
    r1 = first_diff_index(page.params)
    r, d = (r1, d_first) if page.r <= r1 else (second_diff_index(page.params), d_second)
    pairs = []
    for cls in page.fundamental_domain():
        out = d(cls, page.params)
        if out is not None:
            pairs.append((cls, *out))
    return DifferentialMap(r=r, pairs=tuple(pairs))


def turn_page(page: Page, diff: DifferentialMap) -> Page:
    """Homology with respect to a recorded differential.

    The recorded pairings are injective monomial matchings, so passing to
    homology removes matched sources and targets.
    """
    killed = {orbit(end, page.params) for pair in diff.pairs for end in pair[:2]}
    if any(k not in page.survivors for k in killed):
        raise VerificationFailure("differential touches classes outside the page")
    return Page(group=page.group, params=page.params, r=diff.r + 1, survivors=page.survivors - killed)


# ---------------------------------------------------------------------------
# full runs and fate certificates


class SequenceRecord(namedtuple("SequenceRecord", "group params pages diffs index fates")):
    """A fully recorded Tate spectral sequence: the three stages, both
    differentials, the index of their pairs and one fate per
    fundamental-domain class, "source", "target" or "survives".

    The index holds each recorded pair twice, keyed (r, "source", orbit of
    its source) and (r, "target", orbit of its target); no orbit is keyed
    twice, since a class is killed at most once."""

    __slots__ = ()

    @property
    def family(self) -> str:
        return _family(self.group)

    def einfty(self) -> Page:
        return self.pages[-1]

    def page_at(self, r: int) -> Page:
        """The page holding at index r: E_2 up to the first differential,
        the middle page up to the second, the final page after it."""
        return [page for page in self.pages if page.r <= r][-1]

    def partner(self, r: int, role: str, cls: MonomialClass) -> tuple[MonomialClass, int] | None:
        """The other end of the recorded r-pair whose role ("source" or
        "target") lies in the orbit of cls, moved onto cls by the lattice
        translation, which the differentials and their coefficients respect,
        and its coefficient; None if the orbit of cls plays no such role."""
        pair = self.index.get((r, role, orbit(cls, self.params)))
        if pair is None:
            return None
        src, tgt, coeff = pair
        here, there = (src, tgt) if role == "source" else (tgt, src)
        return there.translate(cls.i - here.i, cls.j - here.j), coeff


def run_to_einfty(group: str, params: HeightParams) -> SequenceRecord:
    """Turn the E_2 page by both differential families, recording each
    page, each differential, the index of its pairs and, from that index,
    each class's fate."""
    pages = [e2_page(group, params)]
    diffs = []
    for _ in range(2):
        diffs.append(differential_map(pages[-1]))
        pages.append(turn_page(pages[-1], diffs[-1]))

    index = {}
    for dmap in diffs:
        for pair in dmap.pairs:
            src, tgt = (orbit(end, params) for end in pair[:2])
            index[dmap.r, "source", src] = index[dmap.r, "target", tgt] = pair
    fates = dict.fromkeys(sorted(pages[0].survivors), "survives")
    fates.update((key, role) for _, role, key in index)

    return SequenceRecord(group=group, params=params, pages=tuple(pages), diffs=tuple(diffs), index=index,
                          fates=fates)

