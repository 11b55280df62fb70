from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from tatedual import chart_render as cr
from tatedual import cli
from tatedual import tate_engine as eng
from tatedual.errors import InvalidInput, ResourceGuard
from tatedual.mod_arith import height_params

from oracles import hfpss_view

GOLDEN = Path(__file__).parent / "golden"


def spec_cp(**kw):
    base = dict(group="Cp", p=5, page=2, x_min=-20, x_max=20, s_min=-10, s_max=10)
    base.update(kw)
    return cr.ChartSpec(**base)


class TestDeterminism:
    def test_render_is_reproducible(self):
        spec = spec_cp()
        assert cr.render(spec) == cr.render(spec)

    def test_json_roundtrip_is_byte_identical(self):
        spec = spec_cp(fmt="json")
        text = cr.render(spec)
        assert json.dumps(json.loads(text), indent=1) + "\n" == text

    def test_svg_roundtrip_via_spec(self):
        spec = spec_cp(fmt="svg")
        assert cr.render(spec) == cr.render(spec_cp(fmt="svg"))


class TestGoldens:
    @pytest.mark.parametrize(
        "argv,golden",
        [
            (("--group", "Cp", "--prime", "5", "--window", "-20", "20", "-10", "10"), "chart_cp_p5_e2.txt"),
            (("--group", "F", "--prime", "5", "--window", "-170", "170", "-9", "9"), "chart_f_p5_e2.txt"),
            # the middle page, with the second family's blue arrows
            (("--group", "Cp", "--prime", "5", "--page", "10"), "chart_cp_p5_page10.txt"),
            # a fate on every dot, arrows of both families
            (("--group", "G", "--prime", "3", "--overlay", "--format", "json"), "chart_g_p3_overlay.json"),
        ],
        ids=["cp_p5_e2", "f_p5_e2", "cp_p5_page10", "g_p3_overlay_json"],
    )
    def test_chart_matches_golden(self, capsys, argv, golden):
        assert cli.main(["chart", *argv]) == 0
        assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()

    def test_cp_dot_positions_follow_page_structure(self):
        # dot at (x, s) iff x + s + 2*(s mod 2) = 0 mod 2p: the vertical
        # tower pattern of the first figure
        doc = cr.build_document(spec_cp())
        positions = {(d["x"], d["s"]) for d in doc["dots"]}
        for x in range(-20, 21):
            for s in range(-10, 11):
                expect = (x + s + 2 * (s % 2)) % 10 == 0
                assert ((x, s) in positions) == expect, (x, s)

    def test_f_dot_positions_follow_page_structure(self):
        pa = height_params(5)
        n = pa.n
        doc = cr.build_document(
            cr.ChartSpec(group="F", p=5, page=2, x_min=-170, x_max=170, s_min=-9, s_max=9)
        )
        positions = {(d["x"], d["s"]) for d in doc["dots"]}
        for x in range(-170, 171):
            for s in range(-9, 10):
                eps = s % 2
                i = (s - eps) // 2
                t = x + s
                expect = (t - 2 * n * eps - 2 * 5 * n * i) % (2 * 5 * n * n) == 0
                assert ((x, s) in positions) == expect, (x, s)


class TestInvariants:
    def test_dot_count_matches_translate_enumeration(self):
        spec = spec_cp()
        pa = height_params(5)
        page = eng.run_to_einfty("Cp", pa).page_at(2)
        doc = cr.build_document(spec)
        per_class = 0
        for cls in page.fundamental_domain():
            per_class += len(page._translates_in_window(cls, -20, 20, -10, 10))
        assert len(doc["dots"]) == per_class

    def test_arrow_spans(self):
        # each arrow moves one column left and r rows up
        for spec in (spec_cp(), spec_cp(page=10)):
            doc = cr.build_document(spec)
            assert doc["arrows"], spec.page
            for arrow in doc["arrows"]:
                src, tgt = arrow["source"], arrow["target"]
                dx = (tgt["t"] - tgt["s"]) - (src["t"] - src["s"])
                dsig = tgt["s"] - src["s"]
                assert dx == -1
                assert dsig == arrow["r"]

    def test_arrow_colors(self):
        doc2 = cr.build_document(spec_cp())
        assert {a["color"] for a in doc2["arrows"]} == {"gray"}
        doc10 = cr.build_document(spec_cp(page=10))
        assert {a["color"] for a in doc10["arrows"]} == {"blue"}


class TestWindows:
    def test_cell_budget(self):
        side = 10**5
        cr.ChartSpec(group="F", p=7, page=2, x_min=1, x_max=side, s_min=1, s_max=cr.MAX_CHART_CELLS // side)
        with pytest.raises(ResourceGuard):
            cr.ChartSpec(group="F", p=7, page=2, x_min=0, x_max=side, s_min=1, s_max=cr.MAX_CHART_CELLS // side)

    def test_zero_area_window(self):
        spec = spec_cp(x_min=5, x_max=4, s_min=3, s_max=2)
        out = cr.render(spec)
        assert "window" in out
        assert "o" not in out.split("\n")[3] if len(out.split("\n")) > 3 else True
        doc = cr.build_document(spec)
        assert doc["dots"] == [] and doc["arrows"] == []

    def test_unknown_format_rejected(self):
        with pytest.raises(InvalidInput):
            spec_cp(fmt="png")

    def test_unknown_group_rejected(self):
        with pytest.raises(InvalidInput):
            cr.ChartSpec(group="Sp4", p=5, page=2, x_min=0, x_max=1, s_min=0, s_max=1)

    def test_einfty_page_is_blank(self):
        spec = spec_cp(page=40)
        doc = cr.build_document(spec)
        assert doc["dots"] == []


class TestOverlay:
    def test_all_struck_after_full_run(self):
        spec = cr.ChartSpec(group="Cp", p=3, page=2, x_min=-12, x_max=12, s_min=-6, s_max=6)
        out = cr.diff_overlay(spec)
        grid_rows = [line for line in out.split("\n") if "|" in line]
        assert any("x" in row for row in grid_rows)
        assert all("O" not in row for row in grid_rows)

    def test_fixed_point_zero_line_survivors(self, params5):
        # on the s >= 0 truncation the zero line keeps the p-th powers
        rec = eng.run_to_einfty("F", params5)
        view = hfpss_view(rec)
        pa = params5
        survivors = view.zero_line_einfty_exponents(-6, 7)
        degs = [2 * 5 * pa.n * pa.n * j for j in survivors]
        assert degs == [-800, 0, 800]

    @pytest.mark.parametrize("draw", [cr.render, cr.diff_overlay], ids=["render", "overlay"])
    def test_one_run_per_chart(self, monkeypatch, draw):
        # a chart reads one recorded run: both pages are turned inside it
        calls = {"run": 0, "turn": 0}
        run, turn = eng.run_to_einfty, eng.turn_page

        def counted_run(*args):
            calls["run"] += 1
            return run(*args)

        def counted_turn(*args):
            calls["turn"] += 1
            return turn(*args)

        monkeypatch.setattr(eng, "run_to_einfty", counted_run)
        monkeypatch.setattr(eng, "turn_page", counted_turn)
        draw(spec_cp(page=10))
        assert calls == {"run": 1, "turn": 2}


class TestSvg:
    def test_svg_parses_and_counts(self):
        spec = spec_cp(fmt="svg")
        text = cr.render(spec)
        root = ET.fromstring(text)
        ns = "{http://www.w3.org/2000/svg}"
        circles = root.findall(f"{ns}circle")
        lines = root.findall(f"{ns}line")
        doc = cr.build_document(spec_cp())
        assert len(circles) == len(doc["dots"])
        # axes plus one line per arrow
        assert len(lines) == len(doc["arrows"]) + 2

    def test_svg_overlay_strikes(self):
        spec = cr.ChartSpec(
            group="Cp", p=3, page=2, x_min=-6, x_max=6, s_min=-3, s_max=3, fmt="svg"
        )
        text = cr.diff_overlay(spec)
        root = ET.fromstring(text)
        ns = "{http://www.w3.org/2000/svg}"
        hollow = [c for c in root.findall(f"{ns}circle") if c.get("fill") == "none"]
        assert hollow


class TestJsonDocument:
    def test_document_fields(self):
        doc = cr.build_document(spec_cp(fmt="json"))
        assert doc["spec"]["group"] == "Cp"
        assert doc["coeff_field_degree"] == 4
        for dot in doc["dots"]:
            assert set(dot) == {"eps", "i", "j", "s", "t", "x", "label"}
        payload = json.dumps(doc)
        assert json.loads(payload) == doc
