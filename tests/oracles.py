"""Independent cross-checks and property checks the tests run against the
engine.  None of this is on a command's path: the commands run what
src/tatedual holds, and these oracles recompute the same facts another way.

- d_first_incoming and d_second_incoming invert the closed-form
  differentials, against the dual differentials that
  SequenceRecord.partner reads off the recorded pairs by target;
- turn_page_rank_route turns a page from per-class kernel and image ranks
  of the closed forms and their inverses, against tate_engine.turn_page,
  and fates_rank_route decides each class's fate from the same ranks,
  against the fates of tate_engine.run_to_einfty;
- is_boundary and dual_pairs read the dual sequence from the boundary side,
  against the dual cycles and differentials that the dual shift route reads
  off SequenceRecord.partner: D(y) -> c D(x) for a recorded pair x -> c y,
  with D(x) kept as its base class x;
- lattice_generators writes the periodicity lattice out generator by
  generator, against tate_engine.orbit, and verify_lattice_equivariance
  moves the recorded pairs by those generators;
- window_rows walks a chart window row by row in s, each row one range of
  j, and window_class_count counts those rows' classes in closed form by
  two floor sums per eps, both against the runs of
  tate_engine.window_runs, which run_classes expands; classes_in_window
  filters the row walk by contains, one class at a time, against the one
  walk of a chart;
- SequenceView truncates a recorded sequence to the fixed-point or orbit
  half plane and reads the zero-line survivors off it;
- the verify_* checks test properties that hold on every recorded sequence;
- u_k_module and jordan_block_module build the height modules U_k and
  single Jordan blocks, symmetric_walk steps cp_rep._SymmetricChain through
  their symmetric powers, and window_vanishes tests one window of the
  nilpotence suite by kernel and image bases of z and N, the composite of
  its multiplications against the free degree that verdicts.nilpotence_report
  reads off its flags;
- symmetric_power builds one explicit power, whose cp_rep.jordan_decompose
  is the oracle of the profiles that verdicts.jordan_profile folds from the
  character; freeness_check decides freeness at one degree from such a
  power, and free_flags_per_degree proves it degree by degree up to a cap
  with no periodicity, both against the flags of verdicts.free_flags_by_k;
- direct_sum builds the planted-block modules of the Jordan and Tate tests,
  and coordinates_in_span inverts the change of basis of the random ones;
- monomials enumerates exponent tuples of one degree in descending lex
  order, against the arithmetic ranking of cp_rep._SymmetricChain;
- rank_row_loop ranks a list of rows over F_p with Python integers, one
  pivot row at a time, against the dict elimination of verdicts;
- ascii_grid_per_cell fills the chart grid one cell at a time, against
  the rows of chart_render._ascii_text;
- det_tau_exponent reduces the determinant twist of tau mod n^2, against
  the invariant power of delta of mod_arith.invariant_delta_exponent.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations_with_replacement

import numpy as np

from tatedual import cp_rep, linalg, verdicts
from tatedual.cp_rep import CpModule
from tatedual.errors import InvalidInput, ResourceGuard, VerificationFailure
from tatedual.mod_arith import HeightParams
from tatedual.tate_engine import (
    DifferentialMap,
    MonomialClass,
    Page,
    SequenceRecord,
    _family,
    bidegree,
    d_first,
    d_second,
    first_diff_index,
    grading,
    orbit,
    second_diff_index,
)

# ---------------------------------------------------------------------------
# page turning and the dual sequence


def lattice_generators(family: str, params: HeightParams) -> tuple[tuple[int, int], ...]:
    """The periodicity lattice written out as its generators (di, dj): for
    Cp the translations by b d^n and by d^p, for F and G those by beta and
    by the p-th power of Delta.  Against tate_engine.orbit."""
    n, p = params.n, params.p
    if family == "Cp":
        return ((1, n), (0, p))
    return ((1, 0), (0, p))


def contains(page: Page, cls: MonomialClass) -> bool:
    """Whether cls survives to the page."""
    return orbit(cls, page.params) in page.survivors


def window_rows(group: str, params: HeightParams, x_min: int, x_max: int, s_min: int, s_max: int):
    """(eps, i, range of j) of the classes with (t - s, s) in the window, for
    each s ascending: s = eps + 2i fixes eps and i, and t - s is affine in j
    with step t_d (grading)."""
    t_a, t_b, step = grading(_family(group), params)
    for s in range(s_min, s_max + 1):
        eps, i = s % 2, s // 2
        x0 = t_a * eps + t_b * i - s  # t - s at j = 0
        yield eps, i, range(-((x0 - x_min) // step), (x_max - x0) // step + 1)


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum((a*i + b) // m for i in range(n)), m > 0, in O(log m) steps (AtCoder Library floor_sum)."""
    total = 0
    while n:
        total += n * (n - 1) // 2 * (a // m) + n * (b // m)
        a, b = a % m, b % m
        n, b, m, a = divmod(a * n + b, m) + (a, m)
    return total


def window_class_count(group: str, params: HeightParams, x_min: int, x_max: int, s_min: int, s_max: int) -> int:
    """window_rows' total length in closed form: the rows s = eps + 2i of one
    eps have t - s = c + a*i at j = 0, c = (t_a - 1) eps and a = t_b - 2, so
    each holds (x_max - c - a*i) // step + (c + a*i - x_min) // step + 1
    classes, two floor sums per eps."""
    if x_max < x_min:
        return 0  # the only windows where that row count may go negative
    t_a, t_b, step = grading(_family(group), params)
    a = t_b - 2
    total = 0
    for eps in (0, 1):
        lo = (s_min - eps + 1) // 2
        rows = max((s_max - eps) // 2 - lo + 1, 0)
        x0 = (t_a - 1) * eps + a * lo
        total += rows + _floor_sum(rows, step, -a, x_max - x0) + _floor_sum(rows, step, a, x0 - x_min)
    return total


def run_classes(runs) -> list[tuple[int, int, int]]:
    """The (eps, i, j) of the classes of tate_engine.window_runs' runs, in
    (s, j) order, the order of window_rows."""
    return sorted(((eps, i + u * di, j + u * dj) for eps, i, j, di, dj, length in runs for u in range(length)),
                  key=lambda c: (c[0] + 2 * c[1], c[2]))


def classes_in_window(page: Page, x_min: int, x_max: int, s_min: int, s_max: int) -> list[MonomialClass]:
    """The classes of the page with (t - s, s) in the closed window, in (s, t)
    order: the walk of window_rows, filtered by contains."""
    walk = (MonomialClass(eps, i, j, page.family)
            for eps, i, js in window_rows(page.group, page.params, x_min, x_max, s_min, s_max) for j in js)
    return [cls for cls in walk if contains(page, cls)]


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
    if out[0] != cls:
        raise VerificationFailure(f"d_first of {source.label()} hits {out[0].label()}, not {cls.label()}")
    return source, out[1]


def d_second_incoming(cls: MonomialClass, params: HeightParams) -> tuple[MonomialClass, int] | None:
    """The class whose second differential would hit cls, with the
    coefficient, whether or not that class survives to the middle page."""
    n = params.n
    if cls.eps == 1:
        return None
    if cls.family == "Cp":
        source = MonomialClass(1, cls.i - n * n - 1, cls.j - n + 1, cls.family)
    else:
        source = MonomialClass(1, cls.i - n * n - 1, cls.j + n, cls.family)
    out = d_second(source, params)
    if out is None or out[0] != cls:
        raise VerificationFailure(f"d_second of {source.label()} does not hit {cls.label()}")
    return source, out[1]


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
    in_rank = 1 if inc is not None and inc[1] % params.p and contains(page, inc[0]) else 0
    return out_rank, in_rank


def turn_page_rank_route(page: Page, diff: DifferentialMap) -> Page:
    """Independent page turner: homology at a class from its per-class
    kernel and image ranks.  Used to cross-check turn_page."""
    alive = [orbit(cls, page.params) for cls in page.fundamental_domain() if _ranks(page, diff.r, cls) == (0, 0)]
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
                fates[orbit(cls, params)] = "source" if out_rank else "target"
        alive = frozenset(key for key in page.survivors if fates[key] == "survives")
        page = Page(group=page.group, params=params, r=r + 1, survivors=alive)
    return fates


def is_boundary(record: SequenceRecord, base: MonomialClass, r: int) -> bool:
    """D(base) is an r-boundary iff base supports an r-differential."""
    params = record.params
    if r == first_diff_index(params):
        return d_first(base, params) is not None
    if r == second_diff_index(params):
        return base.eps == 1 and contains(record.pages[1], base)
    raise InvalidInput(f"unsupported page index r={r}")


def dual_pairs(record: SequenceRecord, stage: int) -> list:
    """The pairings of one stage reversed, D(target) -> c D(source), as
    (target, source, c) in base classes."""
    return [(tgt, src, coeff) for src, tgt, coeff in record.diffs[stage].pairs]


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
            and contains(self.record.pages[1], cls)
            and self.contains_filtration(s + r2)
        ):
            return "source"
        inc2 = d_second_incoming(cls, params)
        if (
            inc2 is not None
            and contains(self.record.pages[1], inc2[0])
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
        full = classes_in_window(self.record.pages[0], x_min, x_max, s_min, s_max)
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


def verify_bidegree_law(diff: DifferentialMap, params: HeightParams) -> None:
    """Every recorded pair moves by (s, t) -> (s + r, t + r - 1)."""
    for src, tgt, _ in diff.pairs:
        s0, t0 = bidegree(src, params)
        s1, t1 = bidegree(tgt, params)
        if (s1 - s0, t1 - t0) != (diff.r, diff.r - 1):
            raise VerificationFailure(
                f"bidegree law violated at d_{diff.r}: {src.label()} -> {tgt.label()} "
                f"moves by {(s1 - s0, t1 - t0)}"
            )


def verify_d_squared(record: SequenceRecord) -> None:
    """No class is a target and a source at the same page index."""
    for name, page, dmap in zip(("first", "second"), record.pages, record.diffs):
        sources = {orbit(src, page.params) for src, _, _ in dmap.pairs}
        if sources & {orbit(tgt, page.params) for _, tgt, _ in dmap.pairs}:
            raise VerificationFailure(f"d o d != 0 at the {name} differential")


def verify_lattice_equivariance(record: SequenceRecord) -> None:
    """Both differentials commute with both lattice translations."""
    params = record.params
    for dmap in record.diffs:
        closed = d_first if dmap.r == first_diff_index(params) else d_second
        for src, tgt, coeff in dmap.pairs:
            for di, dj in lattice_generators(record.family, params):
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
    differential on each reversed source, read off the record by target, is
    the original coefficient."""
    for stage, dmap in enumerate(record.diffs):
        reversed_pairs = dual_pairs(record, stage)
        if len(reversed_pairs) != len(dmap.pairs):
            raise VerificationFailure("dual pairing count mismatch")
        for (dsrc, dtgt, coeff), (src, tgt, c0) in zip(reversed_pairs, dmap.pairs):
            if dsrc != tgt or dtgt != src or coeff != c0:
                raise VerificationFailure("dual pairing is not the exact reversal")
            got = record.partner(dmap.r, "target", dsrc)
            if got is None or got[0] != src or got[1] != coeff:
                raise VerificationFailure("dual differential disagrees with reversed pairing")


# ---------------------------------------------------------------------------
# C_p-modules


def u_k_module(params: HeightParams, k: int) -> CpModule:
    """The height module on z_n, ..., z_k: zeta shifts each z_i by z_{i-1}
    and fixes z_k.  A single Jordan block of size n - k + 1."""
    return jordan_block_module(params.p, verdicts.level_vars(params, k))


def jordan_block_module(p: int, size: int) -> CpModule:
    """A single unipotent Jordan block; size must be between 1 and p."""
    mat = np.eye(size, dtype=np.int64)
    for t in range(size - 1):
        mat[t + 1, t] = 1
    return CpModule(p=p, dim=size, gen_action=mat)


def symmetric_walk(base: CpModule, max_deg: int):
    """Yield (deg, module, embed) for the symmetric powers of base in degrees
    0, 1, ..., max_deg, where embed is the index scatter of multiplication by
    the last variable from degree deg - 1 (None in degree 0).

    The dimension cap is checked once, for max_deg, before any step.
    """
    verdicts.check_dim_cap(base.dim, max_deg)
    chain = cp_rep._SymmetricChain(base)
    yield 0, chain.current_module(), None
    for _ in range(max_deg):
        chain.step()
        yield chain.deg, chain.current_module(), chain.last_var_embed


def window_vanishes(p: int, window: list) -> bool:
    """The explicit test of one window of consecutive degrees, given as the
    (deg, module, embed) triples of symmetric_walk: the embeds after the
    first compose into one index scatter, the multiplication from the first
    degree to the last, whose map on Tate cohomology is the composite of
    the maps of each step and must be zero.  Only the two end degrees get
    Tate data.  Against the flags of verdicts.nilpotence_report, which
    certify a window by a free degree in it."""
    if not all(mod.is_dense() for _, mod, _ in window):
        raise ResourceGuard(
            f"window {window[0][0]}..{window[-1][0]} has no vanishing degree and exceeds the dense limit"
        )
    (first, src_mod, _), (_, tgt_mod, _) = window[0], window[-1]
    composite = np.arange(src_mod.dim)
    for _, _, embed in window[1:]:
        composite = embed[composite]
    return cp_rep._induced_step(p, composite, tgt_mod.dim, cp_rep._tate_data(src_mod),
                                cp_rep._tate_data(tgt_mod), first)


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


def symmetric_power(m: CpModule, deg: int) -> CpModule:
    """The induced action on the monomial basis of total degree deg, the
    last degree of symmetric_walk."""
    _, module, _ = deque(symmetric_walk(m, deg), maxlen=1)[0]
    return m if deg == 1 else module


def freeness_check(params: HeightParams, k: int, deg: int) -> bool:
    """Is the degree-deg symmetric power of the height module free over
    F_p[C_p]?  Decided by the rank of zeta - 1 alone, dense or sparse."""
    return cp_rep._free_by_rank(symmetric_power(u_k_module(params, k), deg))


def free_flags_per_degree(params: HeightParams, caps: dict[int, int]) -> dict[int, list[bool]]:
    """Whether Sym^d(U_k) is free, d = 0, ..., caps[k], for every k of caps,
    each degree proved on its own: the pass of verdicts.free_flags_by_k run
    up to caps[k] rather than over one period, with no budget.  Down the
    levels U_n, whose powers are not free, ..., U_k for the lowest k, a degree
    of U_j is not free when p does not divide its dimension, free when the
    degree below it and the same degree of U_(j+1) are, or when rank D =
    dim - dim/p, and otherwise decided by freeness_check."""
    p, n, low = params.p, params.n, min(caps)
    reach = {j: max(c for k, c in caps.items() if k <= j) for j in range(low, n + 1)}
    levels = {n: [False] * (reach[n] + 1)}
    for j in range(n - 1, low - 1, -1):
        upper, flags, nvars = levels[j + 1], [False], n - j + 1
        for deg in range(1, reach[j] + 1):
            dim = verdicts.symmetric_dimension(nvars, deg)
            if dim % p:
                flags.append(False)
            elif (flags[-1] and upper[deg]) or verdicts.weight_rank(p, nvars, deg) == dim - dim // p:
                flags.append(True)
            else:
                flags.append(freeness_check(params, j, deg))
        levels[j] = flags
    return {k: levels[k][: caps[k] + 1] for k in caps}


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


def rank_row_loop(rows: list[list[int]], p: int) -> int:
    """Rank over F_p of a matrix given as a list of rows: each column in
    turn takes the first remaining row with a nonzero entry there as pivot
    and clears that column from every other remaining row."""
    rest = [[v % p for v in row] for row in rows]
    rank = 0
    for c in range(len(rest[0]) if rest else 0):
        pivot = next((row for row in rest if row[c]), None)
        if pivot is None:
            continue
        rest.remove(pivot)
        inv = pow(pivot[c], -1, p)
        rest = [[(v - row[c] * inv * w) % p for v, w in zip(row, pivot)] for row in rest]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# the ASCII chart grid


def ascii_grid_per_cell(doc: dict) -> list[str]:
    """The rows of the ASCII chart grid, top s first, each cell looked up
    on its own in a dict of the dots by (x, s)."""
    x0, x1 = doc["spec"]["window"]["x"]
    s0, s1 = doc["spec"]["window"]["s"]
    overlay = doc["spec"]["overlay"]
    cells = {(dot["x"], dot["s"]): dot for dot in doc["dots"]}
    lines = []
    for s in range(s1, s0 - 1, -1):
        row = []
        for x in range(x0, x1 + 1):
            dot = cells.get((x, s))
            if dot is None:
                row.append(".")
            elif overlay:
                row.append("O" if dot.get("fate") == "survives" else "x")
            else:
                row.append("o")
        lines.append("{:5d} |{}".format(s, "".join(row)))
    return lines


# ---------------------------------------------------------------------------
# the determinant twist


def det_tau_exponent(params: HeightParams) -> int:
    """The exponent of eta in the determinant action of tau, mod n^2.

    tau twists a class x by eta^((p^n - 1)/n); since eta has order n^2 only
    the residue of (p^n - 1)/n modulo n^2 matters.  Returned as the least
    nonnegative representative.
    """
    p, n = params.p, params.n
    return (p**n - 1) // n % (n * n)
