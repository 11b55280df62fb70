"""Deterministic chart rendering of spectral sequence pages.

Charts live in (t - s, s) coordinates.  A chart lists its window's runs of
classes once (tate_engine.window_runs): the class budget is the sum of their
lengths, and the dots and arrows walk the classes in (s, j) order.  (x, s)
fixes the class, so a cell holds at most one.  Output formats: a
fixed-layout ASCII grid (one character per lattice cell), a minimal SVG 1.1
subset (circles, lines, text), and a JSON document that round-trips
byte-identically.

Each chart reads one recorded run of the spectral sequence
(tate_engine.run_to_einfty): a class is a dot when its orbit
(tate_engine.orbit, taken once per class) survives to the page on display,
and its fate is that orbit's in the record.  Every arrow is read off the
record too, the recorded pair of its source's orbit moved onto the source
by the lattice; no differential is evaluated here.

Every byte of output is a function of the chart spec alone; there are no
timestamps, float formatting surprises, or hash-ordered collections.
"""

from __future__ import annotations

import io
from collections import namedtuple

from . import tate_engine as eng
from .errors import InvalidInput, ResourceGuard
from .mod_arith import HeightParams, height_params

# arrow colour of each differential family, first then second
COLORS = {"first": "gray", "second": "blue"}

# a window is refused above this many lattice cells, before any page is
# built: the ASCII grid alone writes one character per cell
MAX_CHART_CELLS = 10**7
# and above this many classes on E_2, counted in closed form before the run
MAX_CHART_CLASSES = 10**5


class ChartSpec(namedtuple("ChartSpec", "group p page x_min x_max s_min s_max fmt")):
    __slots__ = ()

    def __new__(cls, group: str, p: int, page: int, x_min: int, x_max: int, s_min: int, s_max: int,
                fmt: str = "ascii") -> ChartSpec:
        if page < 2:
            raise InvalidInput("page index must be at least 2")
        cells = max(x_max - x_min + 1, 0) * max(s_max - s_min + 1, 0)
        if cells > MAX_CHART_CELLS:
            raise ResourceGuard(
                f"chart window has {cells} cells, above the budget of {MAX_CHART_CELLS}; "
                "choose a smaller window"
            )
        return super().__new__(cls, group, p, page, x_min, x_max, s_min, s_max, fmt)

    def params(self) -> HeightParams:
        return height_params(self.p)

    def window(self) -> tuple[int, int, int, int]:
        return (self.x_min, self.x_max, self.s_min, self.s_max)


def build_document(spec: ChartSpec, overlay: bool = False) -> dict:
    """The format-independent chart content: dots and arrows in the window.

    With the overlay, each dot carries its fate and arrows of both
    differential families are included; otherwise only the current page's
    differential family is drawn.
    """
    params = spec.params()
    runs = list(eng.window_runs(spec.group, params, *spec.window()))
    count = sum(run[-1] for run in runs)
    if count > MAX_CHART_CLASSES:
        raise ResourceGuard(f"chart window holds {count} classes, above the budget of "
                            f"{MAX_CHART_CLASSES}; choose a smaller window")
    record = eng.run_to_einfty(spec.group, params)
    page = record.page_at(spec.page)
    # the families drawn, each collecting its arrows: the E_2 walk serves
    # both, as partner finds no r-arrow at a class off stage r's page
    drawn = [(color, dmap, []) for color, stage_page, dmap in zip(COLORS.values(), record.pages, record.diffs)
             if overlay or stage_page is page]
    dots = []
    # (s, j) fixes the class, as s = eps + 2i
    for s, j in sorted((eps + 2 * (i + u * di), j + u * dj)
                       for eps, i, j, di, dj, length in runs for u in range(length)):
        cls = eng.MonomialClass(s % 2, s // 2, j, record.family)
        orbit = eng.orbit(cls, params)
        if orbit in page.survivors:
            dot = _class_json(cls, params)
            dot.update(x=dot["t"] - dot["s"], label=cls.label())
            if overlay:
                dot["fate"] = record.fates[orbit]
            dots.append(dot)
        for color, dmap, family in drawn:
            out = record.partner(dmap.r, "source", cls)
            if out is not None:
                family.append({**pair_json(cls, *out, dmap.r, params), "color": color})

    return {
        "spec": {
            "group": spec.group,
            "p": spec.p,
            "page": spec.page,
            "window": {"x": [spec.x_min, spec.x_max], "s": [spec.s_min, spec.s_max]},
            "format": spec.fmt,
            "colors": dict(COLORS),
            "overlay": overlay,
        },
        # survivors carry one copy of F_(p^n) for Cp and F, of F_p for G
        "coeff_field_degree": 1 if spec.group == "G" else params.n,
        "dots": dots,
        "arrows": [arrow for _, _, family in drawn for arrow in family],
    }


def _class_json(cls: eng.MonomialClass, params: HeightParams) -> dict:
    s, t = eng.bidegree(cls, params)
    return {"eps": cls.eps, "i": cls.i, "j": cls.j, "s": s, "t": t}


def pair_json(src: eng.MonomialClass, tgt: eng.MonomialClass, coeff: int, r: int, params: HeightParams) -> dict:
    return {"source": _class_json(src, params), "target": _class_json(tgt, params), "coeff": coeff, "r": r}


# ---------------------------------------------------------------------------
# ASCII


def _ascii_text(doc: dict) -> str:
    """The ASCII chart, written into one buffer: a row without a dot is the
    one blank row, so a tall window keeps no string per row."""
    spec = doc["spec"]
    x0, x1 = spec["window"]["x"]
    s0, s1 = spec["window"]["s"]
    deg = doc["coeff_field_degree"]
    overlay = spec["overlay"]
    out = io.StringIO()
    out.write("# tate chart  group={}  p={}  page={}\n".format(spec["group"], spec["p"], spec["page"]))
    out.write("# window: t-s in [{}, {}], s in [{}, {}]\n".format(x0, x1, s0, s1))
    out.write("# dot = one copy of F_(p^{})  legend: o class, 2-9 classes in cell, * 10+\n".format(deg))
    if overlay:
        out.write("# overlay: O survives, x killed\n")

    # (x, s) fixes eps, i and t, hence j: one class per cell at most
    rows: dict[int, list[dict]] = {}
    for dot in doc["dots"]:
        rows.setdefault(dot["s"], []).append(dot)

    width = max(x1 - x0 + 1, 0)
    blank = "." * width
    for s in range(s1, s0 - 1, -1):
        row = blank
        if s in rows:
            cells = list(blank)
            for dot in rows[s]:
                cells[dot["x"] - x0] = ("O" if dot.get("fate") == "survives" else "x") if overlay else "o"
            row = "".join(cells)
        out.write(f"{s:5d} |{row}\n")
    out.write("      +{}\n".format("-" * width))
    out.write("       t-s from {} to {} (one column per unit)\n".format(x0, x1))

    for arrow in doc["arrows"]:
        src, tgt = arrow["source"], arrow["target"]
        out.write("# d{} [{}]: {} ({},{}) -> {} ({},{}) coeff {}\n".format(
            arrow["r"], arrow["color"], _label(src, spec["group"]), src["t"] - src["s"], src["s"],
            _label(tgt, spec["group"]), tgt["t"] - tgt["s"], tgt["s"], arrow["coeff"]))
    return out.getvalue()


def _label(entry: dict, group: str) -> str:
    return eng.MonomialClass(entry["eps"], entry["i"], entry["j"], eng._family(group)).label()


# ---------------------------------------------------------------------------
# SVG


_SCALE = 16
_MARGIN = 40
_DOT_RADIUS = 3


def _svg_lines(doc: dict) -> list[str]:
    spec = doc["spec"]
    x0, x1 = spec["window"]["x"]
    s0, s1 = spec["window"]["s"]
    width = (max(x1 - x0, 0)) * _SCALE + 2 * _MARGIN
    height = (max(s1 - s0, 0)) * _SCALE + 2 * _MARGIN

    def px(x):
        return _MARGIN + (x - x0) * _SCALE

    def py(s):
        return _MARGIN + (s1 - s) * _SCALE

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{}" height="{}">'.format(
            width, height
        ),
        '<title>group {} p {} page {}</title>'.format(spec["group"], spec["p"], spec["page"]),
        '<rect x="0" y="0" width="{}" height="{}" fill="white"/>'.format(width, height),
    ]
    if x0 <= 0 <= x1:
        lines.append(
            '<line x1="{0}" y1="{1}" x2="{0}" y2="{2}" stroke="#cccccc" stroke-width="1"/>'.format(
                px(0), py(s1), py(s0)
            )
        )
    if s0 <= 0 <= s1:
        lines.append(
            '<line x1="{1}" y1="{0}" x2="{2}" y2="{0}" stroke="#cccccc" stroke-width="1"/>'.format(
                py(0), px(x0), px(x1)
            )
        )
    for arrow in doc["arrows"]:
        src, tgt = arrow["source"], arrow["target"]
        lines.append(
            '<line x1="{}" y1="{}" x2="{}" y2="{}" stroke="{}" stroke-width="1"/>'.format(
                px(src["t"] - src["s"]), py(src["s"]), px(tgt["t"] - tgt["s"]), py(tgt["s"]), arrow["color"]
            )
        )
    for dot in doc["dots"]:
        fate = dot.get("fate")
        if spec["overlay"] and fate != "survives":
            fill = "none"
            extra = ' stroke="black" stroke-width="1"'
        else:
            fill = "black"
            extra = ""
        lines.append(
            '<circle cx="{}" cy="{}" r="{}" fill="{}"{}/>'.format(
                px(dot["x"]), py(dot["s"]), _DOT_RADIUS, fill, extra
            )
        )
        if spec["overlay"] and fate != "survives":
            x, y = px(dot["x"]), py(dot["s"])
            lines.append(
                '<line x1="{}" y1="{}" x2="{}" y2="{}" stroke="black" stroke-width="1"/>'.format(
                    x - _DOT_RADIUS, y - _DOT_RADIUS, x + _DOT_RADIUS, y + _DOT_RADIUS
                )
            )
    lines.append("</svg>")
    return lines


# ---------------------------------------------------------------------------
# entry points


def serialize(doc: dict, fmt: str) -> str:
    if fmt == "ascii":
        return _ascii_text(doc)
    if fmt == "svg":
        return "\n".join(_svg_lines(doc)) + "\n"
    import json

    return json.dumps(doc, indent=1) + "\n"


def render(spec: ChartSpec) -> str:
    """Render a page chart; byte-identical output for identical specs."""
    return serialize(build_document(spec), spec.fmt)


def diff_overlay(spec: ChartSpec) -> str:
    """Chart with per-class fates: killed classes struck, survivors kept."""
    return serialize(build_document(spec, overlay=True), spec.fmt)

