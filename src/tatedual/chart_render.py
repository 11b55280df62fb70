"""Deterministic chart rendering of spectral sequence pages.

Charts live in (t - s, s) coordinates.  Dots are instantiated from the
fundamental domain by lattice translation, so a chart window of any size is
exact.  Output formats: a fixed-layout ASCII grid (one character per
lattice cell), a minimal SVG 1.1 subset (circles, lines, text), and a JSON
document that round-trips byte-identically.

Each chart reads one recorded run of the spectral sequence
(tate_engine.run_to_einfty): the page on display and each dot's fate come
from that record, and so does every arrow, the recorded pair of its
source's orbit moved onto the source by the lattice; no differential is
evaluated here.

Every byte of output is a function of the chart spec alone; there are no
timestamps, float formatting surprises, or hash-ordered collections.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tate_engine as eng
from .errors import InvalidInput, ResourceGuard
from .mod_arith import FORMATS, HeightParams, height_params

# arrow colour of each differential family, first then second
COLORS = {"first": "gray", "second": "blue"}

# a window is refused above this many lattice cells, before any page is
# built: the ASCII grid alone writes one character per cell
MAX_CHART_CELLS = 10**7


@dataclass(frozen=True)
class ChartSpec:
    group: str
    p: int
    page: int
    x_min: int
    x_max: int
    s_min: int
    s_max: int
    fmt: str = "ascii"

    def __post_init__(self):
        if self.fmt not in FORMATS:
            raise InvalidInput(f"unknown format {self.fmt!r}; expected one of {FORMATS}")
        if self.group not in eng.GROUPS:
            raise InvalidInput(f"unknown group {self.group!r}")
        if self.page < 2:
            raise InvalidInput("page index must be at least 2")
        cells = max(self.x_max - self.x_min + 1, 0) * max(self.s_max - self.s_min + 1, 0)
        if cells > MAX_CHART_CELLS:
            raise ResourceGuard(
                f"chart window has {cells} cells, above the budget of {MAX_CHART_CELLS}; "
                "choose a smaller window"
            )

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
    record = eng.run_to_einfty(spec.group, params)
    page = record.page_at(spec.page)
    x0, x1, s0, s1 = spec.window()

    dots = []
    for cls in page.classes_in_window(x0, x1, s0, s1):
        s, t = eng.bidegree(cls, params)
        dot = {
            "eps": cls.eps,
            "i": cls.i,
            "j": cls.j,
            "s": s,
            "t": t,
            "x": t - s,
            "label": cls.label(),
        }
        if overlay:
            dot["fate"] = record.fates[page.canonical(cls)]
        dots.append(dot)

    arrows = []
    for color, stage_page, dmap in zip(COLORS.values(), record.pages, record.diffs):
        if not overlay and stage_page is not page:
            continue
        for cls in stage_page.classes_in_window(x0, x1, s0, s1):
            out = record.partner(dmap.r, "source", cls)
            if out is not None:
                arrows.append({**eng.pair_json(cls, *out, dmap.r, params), "color": color})

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
        "coeff_field_degree": page.coeff_field_degree,
        "dots": dots,
        "arrows": arrows,
    }


# ---------------------------------------------------------------------------
# ASCII


def _ascii_lines(doc: dict) -> list[str]:
    spec = doc["spec"]
    x0, x1 = spec["window"]["x"]
    s0, s1 = spec["window"]["s"]
    deg = doc["coeff_field_degree"]
    overlay = spec["overlay"]
    lines = [
        "# tate chart  group={}  p={}  page={}".format(spec["group"], spec["p"], spec["page"]),
        "# window: t-s in [{}, {}], s in [{}, {}]".format(x0, x1, s0, s1),
        "# dot = one copy of F_(p^{})  legend: o class, 2-9 classes in cell, * 10+".format(deg),
    ]
    if overlay:
        lines.append("# overlay: O survives, x killed")

    cells: dict[tuple[int, int], list[dict]] = {}
    for dot in doc["dots"]:
        cells.setdefault((dot["x"], dot["s"]), []).append(dot)

    width = max(x1 - x0 + 1, 0)
    for s in range(s1, s0 - 1, -1):
        row = []
        for x in range(x0, x1 + 1):
            here = cells.get((x, s))
            if not here:
                row.append(".")
            elif len(here) > 1:
                row.append(str(len(here)) if len(here) <= 9 else "*")
            elif overlay:
                row.append("O" if here[0].get("fate") == "survives" else "x")
            else:
                row.append("o")
        lines.append("{:5d} |{}".format(s, "".join(row)))
    lines.append("      +{}".format("-" * width))
    lines.append("       t-s from {} to {} (one column per unit)".format(x0, x1))

    for arrow in doc["arrows"]:
        src, tgt = arrow["source"], arrow["target"]
        lines.append(
            "# d{} [{}]: {} ({},{}) -> {} ({},{}) coeff {}".format(
                arrow["r"],
                arrow["color"],
                _label(src, spec["group"]),
                src["t"] - src["s"],
                src["s"],
                _label(tgt, spec["group"]),
                tgt["t"] - tgt["s"],
                tgt["s"],
                arrow["coeff"],
            )
        )
    return lines


def _label(entry: dict, group: str) -> str:
    family = "Cp" if group == "Cp" else "F"
    return eng.MonomialClass(entry["eps"], entry["i"], entry["j"], family).label()


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
        return "\n".join(_ascii_lines(doc)) + "\n"
    if fmt == "svg":
        return "\n".join(_svg_lines(doc)) + "\n"
    if fmt == "json":
        import json

        return json.dumps(doc, indent=1) + "\n"
    raise InvalidInput(f"unknown format {fmt!r}")


def render(spec: ChartSpec) -> str:
    """Render a page chart; byte-identical output for identical specs."""
    return serialize(build_document(spec), spec.fmt)


def diff_overlay(spec: ChartSpec) -> str:
    """Chart with per-class fates: killed classes struck, survivors kept."""
    return serialize(build_document(spec, overlay=True), spec.fmt)

