"""Independent cross-checks and property checks the tests run against the
engine.  None of this is on a command's path: the commands run what
src/tatedual holds, and these oracles recompute the same facts another way.

- turn_page_rank_route turns a page from per-class kernel and image ranks,
  against tate_engine.turn_page, and fates_rank_route decides each class's
  fate from the same ranks, against the fates of tate_engine.run_to_einfty;
- is_boundary and dual_pairs read the dual sequence from the boundary side,
  against the cycles and differentials of tate_engine.DualSequence;
- SequenceView truncates a recorded sequence to the fixed-point or orbit
  half plane and reads the zero-line survivors off it;
- the verify_* checks test properties that hold on every recorded sequence;
- freeness_check decides freeness at one degree from a fresh symmetric
  power, against the flags of cp_rep.free_flags;
- direct_sum builds the planted-block modules of the Jordan and Tate tests,
  and coordinates_in_span inverts the change of basis of the random ones;
- monomials enumerates exponent tuples of one degree in descending lex
  order, against the arithmetic ranking of cp_rep._SymmetricChain.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

from tatedual import cp_rep, linalg
from tatedual.cp_rep import CpModule
from tatedual.errors import InvalidInput, VerificationFailure
from tatedual.mod_arith import HeightParams
from tatedual.tate_engine import (
    DifferentialMap,
    DualClass,
    DualSequence,
    MonomialClass,
    Page,
    SequenceRecord,
    _family,
    bidegree,
    d_first,
    d_first_incoming,
    d_second,
    d_second_incoming,
    first_diff_index,
    second_diff_index,
)

# ---------------------------------------------------------------------------
# page turning and the dual sequence


def d_first_coefficient_leibniz(cls: MonomialClass, params: HeightParams) -> int:
    """The coefficient of d_first evaluated the other way around, by
    factoring out the invariant element (b d^n for Cp, the p-th power of D
    for F) before differentiating the leftover power."""
    p, n = params.p, params.n
    if cls.eps == 1:
        return 0
    if cls.family == "Cp":
        return (cls.j - n * cls.i) % p
    return (cls.j % p) % p


def _ranks(page: Page, r: int, cls: MonomialClass) -> tuple[int, int]:
    """Ranks of the outgoing and incoming d_r at a class of the page.

    Every bidegree of these pages holds at most one class, so both are
    1x1 (or empty) matrices."""
    params = page.params
    r1 = first_diff_index(params)
    outgoing = d_first if r == r1 else d_second
    incoming = d_first_incoming if r == r1 else d_second_incoming
    out = outgoing(cls, params)
    out_rank = 1 if out is not None and out[1] % params.p else 0
    inc = incoming(cls, params)
    in_rank = 1 if inc is not None and inc[1] % params.p and page.contains(inc[0]) else 0
    return out_rank, in_rank


def turn_page_rank_route(page: Page, diff: DifferentialMap) -> Page:
    """Independent page turner: homology at a class from its per-class
    kernel and image ranks.  Used to cross-check turn_page."""
    alive = [page.canonical(cls) for cls in page.fundamental_domain() if _ranks(page, diff.r, cls) == (0, 0)]
    return Page(group=page.group, params=page.params, r=diff.r + 1, survivors=frozenset(alive))


def fates_rank_route(record: SequenceRecord) -> dict:
    """Each fundamental-domain class's fate from the same per-class ranks,
    stage by stage from the E_2 page: "source" where its outgoing rank is
    one, "target" where its incoming rank is, "survives" where neither ever
    is.  Reads neither the recorded differentials nor the recorded fates.
    Used to cross-check run_to_einfty."""
    page = record.pages[0]
    params = page.params
    fates = dict.fromkeys(sorted(page.survivors), "survives")
    for r in (first_diff_index(params), second_diff_index(params)):
        for cls in page.fundamental_domain():
            out_rank, in_rank = _ranks(page, r, cls)
            if out_rank or in_rank:
                fates[page.canonical(cls)] = "source" if out_rank else "target"
        alive = frozenset(key for key in page.survivors if fates[key] == "survives")
        page = Page(group=page.group, params=params, r=r + 1, survivors=alive)
    return fates


def is_boundary(seq: DualSequence, dual: DualClass, r: int) -> bool:
    """D(z) is an r-boundary iff z supports an r-differential."""
    params = seq.params
    if r == first_diff_index(params):
        return d_first(dual.base, params) is not None
    if r == second_diff_index(params):
        return dual.base.eps == 1 and seq.record.pages[1].contains(dual.base)
    raise InvalidInput(f"unsupported page index r={r}")


def dual_pairs(seq: DualSequence, stage: int) -> list:
    """The pairings of one stage reversed: D(target) -> c D(source)."""
    out = []
    for src, tgt, coeff in seq.record.diffs[stage].pairs:
        out.append((DualClass(tgt), DualClass(src), coeff))
    return out


# ---------------------------------------------------------------------------
# quadrant views


class SequenceView:
    """A truncation of the recorded sequence to a half plane.

    The fixed-point view keeps s >= 0; the orbit view keeps s <= -1, which
    is homological degree -s - 1.  In both cases a differential belongs to
    the view only if source and target do.  The s = 0 line of the
    fixed-point view carries only the Tate part: the norm image is
    deliberately not computed, so that line is approximate.
    """

    def __init__(self, record: SequenceRecord, regions: tuple[str, ...]):
        self.record = record
        self.params = record.params
        self.regions = regions

    def contains_filtration(self, s: int) -> bool:
        for region in self.regions:
            if region == "hfpss" and s < 0:
                return False
            if region == "hoss" and s > -1:
                return False
        return True

    def fate_in_view(self, cls: MonomialClass) -> str:
        """Run both differentials inside the truncated region: "source",
        "target" or "survives"."""
        params = self.params
        s, _ = bidegree(cls, params)
        if not self.contains_filtration(s):
            raise InvalidInput("class is outside the view")
        r1, r2 = first_diff_index(params), second_diff_index(params)
        if d_first(cls, params) is not None and self.contains_filtration(s + r1):
            return "source"
        if d_first_incoming(cls, params) is not None and self.contains_filtration(s - r1):
            return "target"
        if (
            d_second(cls, params) is not None
            and self.record.pages[1].contains(cls)
            and self.contains_filtration(s + r2)
        ):
            return "source"
        inc2 = d_second_incoming(cls, params)
        if (
            inc2 is not None
            and self.record.pages[1].contains(inc2[0])
            and self.contains_filtration(s - r2)
        ):
            return "target"
        return "survives"

    def zero_line_einfty_exponents(self, j_lo: int, j_hi: int) -> list[int]:
        """Exponents j of the classes d^j (or D^j) surviving on s = 0."""
        if not self.contains_filtration(0):
            return []
        out = []
        for j in range(j_lo, j_hi):
            cls = MonomialClass(0, 0, j, self.record.family)
            if self.fate_in_view(cls) == "survives":
                out.append(j)
        return out

    def classes_in_window(self, x_min, x_max, s_min, s_max) -> list[MonomialClass]:
        full = self.record.pages[0].classes_in_window(x_min, x_max, s_min, s_max)
        return [c for c in full if self.contains_filtration(bidegree(c, self.params)[0])]


def hfpss_view(obj) -> SequenceView:
    if isinstance(obj, SequenceView):
        return SequenceView(obj.record, obj.regions + ("hfpss",))
    return SequenceView(obj, ("hfpss",))


def hoss_view(obj) -> SequenceView:
    if isinstance(obj, SequenceView):
        return SequenceView(obj.record, obj.regions + ("hoss",))
    return SequenceView(obj, ("hoss",))


# ---------------------------------------------------------------------------
# property checks the acceptance criteria run on every sequence


def verify_d_squared(record: SequenceRecord) -> None:
    """No class is a target and a source at the same page index."""
    page2, page_mid = record.pages[0], record.pages[1]
    d1, d2 = record.diffs
    if d1.source_keys(page2) & d1.target_keys(page2):
        raise VerificationFailure("d o d != 0 at the first differential")
    if d2.source_keys(page_mid) & d2.target_keys(page_mid):
        raise VerificationFailure("d o d != 0 at the second differential")


def verify_lattice_equivariance(record: SequenceRecord) -> None:
    """Both differentials commute with both lattice translations."""
    params = record.params
    for stage, dmap in enumerate(record.diffs):
        page = record.pages[stage]
        closed = d_first if dmap.r == first_diff_index(params) else d_second
        for src, tgt, coeff in dmap.pairs:
            for di, dj, _ in page.lattice():
                moved = closed(src.translate(di, dj), params)
                if moved is None or moved[0] != tgt.translate(di, dj) or moved[1] != coeff:
                    raise VerificationFailure(
                        f"d_{dmap.r} does not commute with the lattice at {src.label()}"
                    )


def verify_coefficient_law(group: str, params: HeightParams, periods: int = 3) -> None:
    """The closed-form first-differential coefficient agrees with the
    evaluation that factors out the invariant element first, over a window
    of the stated number of lattice periods."""
    p = params.p
    fam = _family(group)
    for i in range(-periods * p, periods * p + 1):
        for j in range(-periods * p, periods * p + 1):
            cls = MonomialClass(0, i, j, fam)
            out = d_first(cls, params)
            closed = 0 if out is None else out[1]
            if closed != d_first_coefficient_leibniz(cls, params):
                raise VerificationFailure(f"coefficient mismatch at {cls.label()}")


def verify_duality_involution(record: SequenceRecord) -> None:
    """The dual sequence reverses each pairing exactly once, and its
    differential on each reversed source is the original coefficient."""
    dual = DualSequence(record)
    for stage, dmap in enumerate(record.diffs):
        reversed_pairs = dual_pairs(dual, stage)
        if len(reversed_pairs) != len(dmap.pairs):
            raise VerificationFailure("dual pairing count mismatch")
        for (dsrc, dtgt, coeff), (src, tgt, c0) in zip(reversed_pairs, dmap.pairs):
            if dsrc.base != tgt or dtgt.base != src or coeff != c0:
                raise VerificationFailure("dual pairing is not the exact reversal")
            got = dual.differential(dsrc, dmap.r)
            if got is None or got[0].base != src or got[1] != coeff:
                raise VerificationFailure("dual differential disagrees with reversed pairing")


# ---------------------------------------------------------------------------
# C_p-modules


def direct_sum(modules: list[CpModule]) -> CpModule:
    if not modules:
        raise InvalidInput("empty direct sum")
    p = modules[0].p
    if any(m.p != p for m in modules):
        raise InvalidInput("mixed primes in direct sum")
    if not all(isinstance(m.gen_action, np.ndarray) for m in modules):
        raise InvalidInput("direct_sum supports array actions only")
    dim = sum(m.dim for m in modules)
    mat = np.zeros((dim, dim), dtype=np.int64)
    off = 0
    for m in modules:
        mat[off : off + m.dim, off : off + m.dim] = m.gen_action
        off += m.dim
    return CpModule(p=p, dim=dim, gen_action=mat)


def coordinates_in_span(basis: np.ndarray, vecs: np.ndarray, p: int) -> np.ndarray:
    """Express the columns of vecs in the independent columns of basis.

    Raises ValueError if some column is not in the span.
    """
    k = np.shape(basis)[1]
    ech, pivots = linalg.forward_eliminate(np.hstack([basis, vecs]), p)
    if any(c >= k for c in pivots):
        raise ValueError("vector outside span")
    if pivots != list(range(k)):
        raise ValueError("basis columns are not independent")
    return linalg._solve_unit_upper(ech[:k, :k], ech[:k, k:], p)


def freeness_check(params: HeightParams, k: int, deg: int) -> bool:
    """Is the degree-deg symmetric power of the height module free over
    F_p[C_p]?  Decided by the rank of zeta - 1 alone, dense or sparse."""
    return cp_rep._free_by_rank(cp_rep.symmetric_power(cp_rep.u_k_module(params, k), deg))


def monomials(nvars: int, deg: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree deg, in descending lex order, so that
    degree one reproduces the original basis order."""
    out = []
    for combo in combinations_with_replacement(range(nvars), deg):
        expo = [0] * nvars
        for v in combo:
            expo[v] += 1
        out.append(tuple(expo))
    out.sort(reverse=True)
    return out
