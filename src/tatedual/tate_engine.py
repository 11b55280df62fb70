"""The bigraded Tate spectral sequence engine at height n = p - 1.

Pages for the three groups are exterior-times-Laurent monomial algebras
F[a, b^{+-1}, d^{+-1}]/(a^2) with two differential families, at r = 2n+1
and r = 2n^2+1.  A class is a^eps b^i d^j; for the semidirect-product
groups F and G the three generators are usually written alpha, beta, Delta
but carry the same index structure, so one dataclass serves both families
and only the bidegrees and coefficient formulas differ.

Seed differentials are normalized to coefficient one (the survivor pattern
does not depend on the unit choices); all other coefficients follow from
linearity over the invariant elements.  Pages are stored as congruence
conditions on (eps, i, j): a finite set of orbit representatives under the
periodicity lattice, which the differentials respect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvalidInput, VerificationFailure
from .mod_arith import HeightParams

GROUPS = ("Cp", "F", "G")

FIRST = "first"  # r = 2n + 1
SECOND = "second"  # r = 2n^2 + 1


def _family(group: str) -> str:
    if group not in GROUPS:
        raise InvalidInput(f"unknown group {group!r}; expected one of {GROUPS}")
    return "Cp" if group == "Cp" else "F"


def coefficient_field_degree(group: str, params: HeightParams) -> int:
    """Survivors carry one copy of F_{p^n} for Cp and F, of F_p for G."""
    return 1 if group == "G" else params.n


@dataclass(frozen=True)
class MonomialClass:
    """A basis class a^eps b^i d^j (Cp family) or its alpha/beta/Delta
    analogue (F family, also used for G)."""

    eps: int
    i: int
    j: int
    family: str

    def __post_init__(self):
        if self.eps not in (0, 1):
            raise InvalidInput("eps must be 0 or 1")
        if self.family not in ("Cp", "F"):
            raise InvalidInput("family must be 'Cp' or 'F'")

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


def bidegree(cls: MonomialClass, params: HeightParams) -> tuple[int, int]:
    """(s, t) with s the cohomological and t the internal degree."""
    p, n = params.p, params.n
    s = cls.eps + 2 * cls.i
    if cls.family == "Cp":
        t = -2 * cls.eps + 2 * p * cls.j
    else:
        t = 2 * n * cls.eps + 2 * p * n * cls.i + 2 * p * n * n * cls.j
    return s, t


def first_diff_index(params: HeightParams) -> int:
    return 2 * params.n + 1


def second_diff_index(params: HeightParams) -> int:
    return 2 * params.n * params.n + 1


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


def d_first_incoming(cls: MonomialClass, params: HeightParams) -> tuple[MonomialClass, int] | None:
    """The unique class whose first differential could hit cls, with the
    coefficient; None when the coefficient vanishes or eps rules it out."""
    p, n = params.p, params.n
    if cls.eps == 0:
        return None
    if cls.family == "Cp":
        source = MonomialClass(0, cls.i - n, cls.j - 1, cls.family)
    else:
        source = MonomialClass(0, cls.i - n, cls.j + 1, cls.family)
    out = d_first(source, params)
    if out is None:
        return None
    assert out[0] == cls
    return source, out[1]


def d_second_incoming(cls: MonomialClass, params: HeightParams) -> tuple[MonomialClass, int] | None:
    n = params.n
    if cls.eps == 1:
        return None
    if cls.family == "Cp":
        source = MonomialClass(1, cls.i - n * n - 1, cls.j - n + 1, cls.family)
    else:
        source = MonomialClass(1, cls.i - n * n - 1, cls.j + n, cls.family)
    out = d_second(source, params)
    assert out is not None and out[0] == cls
    return source, out[1]


# ---------------------------------------------------------------------------
# pages


@dataclass(frozen=True)
class Page:
    """Survivors at stage r, stored as orbit representatives (eps, j mod p)
    under the periodicity lattice.

    The lattice is generated by the two differential-equivariant
    translations: for Cp those of b d^n (i -> i+1, j -> j+n) and d^p
    (j -> j+p); for F and G those of beta (i -> i+1) and of the p-th power
    of Delta (j -> j+p)."""

    group: str
    params: HeightParams
    r: int
    survivors: frozenset
    coeff_field_degree: int

    @property
    def family(self) -> str:
        return _family(self.group)

    def lattice(self) -> tuple[tuple[int, int, str], ...]:
        """Generators as (di, dj, label)."""
        n, p = self.params.n, self.params.p
        if self.family == "Cp":
            return ((1, n, f"b d^{n}"), (0, p, f"d^{p}"))
        return ((1, 0, "b"), (0, p, f"D^{p}"))

    def canonical(self, cls: MonomialClass) -> tuple[int, int]:
        """Orbit representative (eps, j mod p) of a class under the lattice."""
        if cls.family != self.family:
            raise InvalidInput("class family does not match page")
        n, p = self.params.n, self.params.p
        if self.family == "Cp":
            return cls.eps, (cls.j - n * cls.i) % p
        return cls.eps, cls.j % p

    def contains(self, cls: MonomialClass) -> bool:
        return self.canonical(cls) in self.survivors

    def class_from_canonical(self, key: tuple[int, int]) -> MonomialClass:
        eps, jbar = key
        return MonomialClass(eps, 0, jbar, self.family)

    def fundamental_domain(self) -> list[MonomialClass]:
        return [self.class_from_canonical(key) for key in sorted(self.survivors)]

    def is_empty(self) -> bool:
        return not self.survivors

    def classes_in_window(self, x_min: int, x_max: int, s_min: int, s_max: int) -> list[MonomialClass]:
        """All surviving classes with (t - s, s) inside the closed window,
        instantiated from the fundamental domain by lattice translation."""
        out = []
        for cls in self.fundamental_domain():
            out.extend(self._translates_in_window(cls, x_min, x_max, s_min, s_max))
        out.sort(key=lambda c: (bidegree(c, self.params)[0], bidegree(c, self.params)[1], c.eps))
        return out

    def _translates_in_window(self, cls, x_min, x_max, s_min, s_max):
        (di1, dj1, _), (_, dj2, _) = self.lattice()
        found = []
        # the i index is driven by the first generator alone
        for u in _range_for(lambda u: cls.eps + 2 * (cls.i + di1 * u), s_min, s_max):
            base = cls.translate(di1 * u, dj1 * u)
            s = cls.eps + 2 * base.i
            for v in _range_for(
                lambda v: bidegree(base.translate(0, dj2 * v), self.params)[1] - s, x_min, x_max
            ):
                found.append(base.translate(0, dj2 * v))
        return found


def _range_for(value_at, lo, hi):
    """Integers u with lo <= value_at(u) <= hi, for an affine value_at."""
    v0 = value_at(0)
    step = value_at(1) - v0
    if step == 0:
        return range(0, 1) if lo <= v0 <= hi else range(0, 0)
    if step < 0:
        lo, hi, step, v0 = -hi, -lo, -step, -v0
    first = math.ceil((lo - v0) / step)
    last = math.floor((hi - v0) / step)
    return range(first, last + 1)


def pair_json(src: MonomialClass, tgt: MonomialClass, coeff: int, r: int, params: HeightParams) -> dict:
    def one(c):
        s, t = bidegree(c, params)
        return {"eps": c.eps, "i": c.i, "j": c.j, "s": s, "t": t}

    return {"source": one(src), "target": one(tgt), "coeff": coeff, "r": r}


def e2_page(group: str, params: HeightParams) -> Page:
    _family(group)  # validates the tag
    survivors = frozenset((eps, j) for eps in (0, 1) for j in range(params.p))
    return Page(
        group=group,
        params=params,
        r=2,
        survivors=survivors,
        coeff_field_degree=coefficient_field_degree(group, params),
    )


def effective_diff_index(page: Page) -> int:
    """The next nonzero differential for a page at stage r; everything
    between the two families is zero, so pages only ever sit at three
    stages."""
    r1, r2 = first_diff_index(page.params), second_diff_index(page.params)
    if page.r <= r1:
        return r1
    if page.r <= r2:
        return r2
    raise InvalidInput(f"no differentials on or after page r={page.r}")


def differential(page: Page, cls: MonomialClass, r: int | None = None) -> tuple[MonomialClass, int] | None:
    """The differential of a surviving class on the given page; None for
    cycles.  r defaults to the page's next nonzero differential."""
    expected = effective_diff_index(page)
    if r is None:
        r = expected
    if r != expected:
        raise InvalidInput(f"unsupported page index r={r} on a page at r={page.r}")
    if not page.contains(cls):
        raise InvalidInput(f"class {cls.label()} is not a survivor on this page")
    if r == first_diff_index(page.params):
        return d_first(cls, page.params)
    return d_second(cls, page.params)


@dataclass(frozen=True)
class DifferentialMap:
    """The r-th differential recorded over the fundamental domain: a partial
    pairing representative -> (target, coefficient)."""

    r: int
    group: str
    pairs: tuple  # of (source MonomialClass, target MonomialClass, coeff)

    def source_keys(self, page: Page) -> set:
        return {page.canonical(src) for src, _, _ in self.pairs}

    def target_keys(self, page: Page) -> set:
        return {page.canonical(tgt) for _, tgt, _ in self.pairs}


def differential_map(page: Page, r: int | None = None) -> DifferentialMap:
    expected = effective_diff_index(page)
    if r is None:
        r = expected
    if r != expected:
        raise InvalidInput(f"unsupported page index r={r} on a page at r={page.r}")
    pairs = []
    for cls in page.fundamental_domain():
        out = differential(page, cls, r)
        if out is not None:
            pairs.append((cls, out[0], out[1]))
    return DifferentialMap(r=r, group=page.group, pairs=tuple(pairs))


def verify_bidegree_law(diff: DifferentialMap, params: HeightParams) -> None:
    for src, tgt, _ in diff.pairs:
        s0, t0 = bidegree(src, params)
        s1, t1 = bidegree(tgt, params)
        if (s1 - s0, t1 - t0) != (diff.r, diff.r - 1):
            raise VerificationFailure(
                f"bidegree law violated at d_{diff.r}: {src.label()} -> {tgt.label()} "
                f"moves by {(s1 - s0, t1 - t0)}"
            )


def turn_page(page: Page, diff: DifferentialMap) -> Page:
    """Homology with respect to a recorded differential.

    The recorded pairings are injective monomial matchings, so passing to
    homology removes matched sources and targets.  The bidegree law is
    re-checked first; violations indicate engine inconsistency.
    """
    if diff.r != effective_diff_index(page):
        raise InvalidInput("differential page index does not match the page")
    verify_bidegree_law(diff, page.params)
    killed = diff.source_keys(page) | diff.target_keys(page)
    if any(k not in page.survivors for k in killed):
        raise VerificationFailure("differential touches classes outside the page")
    return Page(
        group=page.group,
        params=page.params,
        r=diff.r + 1,
        survivors=frozenset(page.survivors - killed),
        coeff_field_degree=page.coeff_field_degree,
    )


# ---------------------------------------------------------------------------
# full runs and fate certificates


@dataclass(frozen=True)
class SequenceRecord:
    """A fully recorded Tate spectral sequence: the three stages, both
    differentials, and one fate per fundamental-domain class, "source",
    "target" or "survives"."""

    group: str
    params: HeightParams
    pages: tuple
    diffs: tuple
    fates: dict = field(compare=False)

    @property
    def family(self) -> str:
        return _family(self.group)

    def einfty(self) -> Page:
        return self.pages[-1]


def run_to_einfty(group: str, params: HeightParams) -> SequenceRecord:
    page2 = e2_page(group, params)
    dmap1 = differential_map(page2)
    page_mid = turn_page(page2, dmap1)
    dmap2 = differential_map(page_mid)
    page_end = turn_page(page_mid, dmap2)

    fates = {}
    for cls in page2.fundamental_domain():
        if d_first(cls, params) is not None:
            fate = "source"
        elif d_first_incoming(cls, params) is not None:
            fate = "target"
        elif d_second(cls, params) is not None:
            fate = "source"
        elif (inc2 := d_second_incoming(cls, params)) is not None and page_mid.contains(inc2[0]):
            fate = "target"
        else:
            fate = "survives"
        fates[page2.canonical(cls)] = fate

    return SequenceRecord(
        group=group, params=params, pages=(page2, page_mid, page_end), diffs=(dmap1, dmap2), fates=fates
    )


# ---------------------------------------------------------------------------
# Pontryagin dual


@dataclass(frozen=True)
class DualClass:
    base: MonomialClass

    def label(self) -> str:
        return f"D({self.base.label()})"


class DualSequence:
    """The dual spectral sequence: classes are duals of the original ones,
    placed by the plane transform (s, t) -> (n - 1 - s, 2n - t), and each
    differential x -> c y turns into D(y) -> c D(x)."""

    def __init__(self, record: SequenceRecord):
        self.record = record
        self.params = record.params
        self.group = record.group

    def bidegree(self, dual: DualClass) -> tuple[int, int]:
        n = self.params.n
        s, t = bidegree(dual.base, self.params)
        return n - 1 - s, 2 * n - t

    def zero_line_classes(self, j_lo: int, j_hi: int) -> list[DualClass]:
        """Dual classes of filtration zero: base classes at s = n - 1, which
        forces eps = 1 and i = n/2 - 1."""
        n = self.params.n
        i0 = n // 2 - 1
        return [
            DualClass(MonomialClass(1, i0, j, self.record.family)) for j in range(j_lo, j_hi)
        ]

    def differential(self, dual: DualClass, r: int) -> tuple[DualClass, int] | None:
        """The dual differential: present iff the base class is an r-target."""
        params = self.params
        if r == first_diff_index(params):
            inc = d_first_incoming(dual.base, params)
        elif r == second_diff_index(params):
            inc = d_second_incoming(dual.base, params)
            if inc is not None and not self.record.pages[1].contains(inc[0]):
                inc = None
        else:
            raise InvalidInput(f"unsupported page index r={r}")
        if inc is None:
            return None
        return DualClass(inc[0]), inc[1]

    def is_cycle(self, dual: DualClass, r: int) -> bool:
        return self.differential(dual, r) is None
