from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from tatedual import chart_render as cr
from tatedual import cli
from tatedual import duality_shifts as ds
from tatedual import tate_engine as eng
from tatedual.errors import ResourceGuard
from tatedual.mod_arith import GROUPS, height_params

from oracles import (ascii_grid_per_cell, classes_in_window, contains, hfpss_view, run_classes, window_class_count,
                     window_rows)

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"
# exactly MAX_CHART_CLASSES classes: 1000 rows of 100 at p = 3
AT_CAP = ("--prime", "3", "--window", "-300", "299", "-500", "499")


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

    # the ASCII goldens stop at p = 5: the default window of F at p = 11
    # (8801 columns by 405 rows), an overlay on the middle page and a window
    # with x_max < x_min, against the grid filled one cell at a time
    @pytest.mark.parametrize(
        "group,p,page,window,overlay",
        [("F", 11, 2, None, False), ("G", 7, 14, None, True), ("Cp", 5, 2, (20, -20, -10, 10), False)],
        ids=["f_p11_default", "g_p7_overlay_middle_page", "cp_p5_x_max_below_x_min"],
    )
    def test_ascii_grid_matches_the_per_cell_fill(self, group, p, page, window, overlay):
        window = window or cli._default_window(group, height_params(p))
        doc = cr.build_document(cr.ChartSpec(group, p, page, *window), overlay=overlay)
        want = ascii_grid_per_cell(doc)
        lines = cr._ascii_text(doc).split("\n")
        head = lines.index("      +" + "-" * max(window[1] - window[0] + 1, 0)) - len(want)
        assert head == (4 if overlay else 3)
        assert lines[head : head + len(want)] == want
        # the last page is empty, so no dot of an overlay survives
        marks = set("".join(row.split("|")[1] for row in want))
        assert marks == ({".", "x"} if overlay else {".", "o"} if window[0] <= window[1] else set())

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
    def test_dot_count_matches_bidegree_filter(self, params5):
        # brute force over a box of (eps, i, j) that covers the window, on
        # each displayed page
        rec = eng.run_to_einfty("Cp", params5)
        box = [eng.MonomialClass(eps, i, j, "Cp") for eps in (0, 1) for i in range(-30, 31) for j in range(-30, 31)]
        for shown in (2, 10, 40):
            page = rec.page_at(shown)
            brute = 0
            for cls in box:
                s, t = eng.bidegree(cls, params5)
                brute += -20 <= t - s <= 20 and -10 <= s <= 10 and contains(page, cls)
            assert len(cr.build_document(spec_cp(page=shown))["dots"]) == brute, shown

    @pytest.mark.parametrize("group,p", [(g, p) for g in GROUPS for p in (3, 5, 7)])
    def test_one_class_per_cell(self, group, p):
        # (x, s) fixes eps, i and t, hence j: the walk never puts two
        # classes in one cell of the ASCII grid
        params = height_params(p)
        per, s_max = ds.periodicity(group, params), 2 * params.n ** 2 + 2
        classes = classes_in_window(eng.e2_page(group, params), -per, per, -s_max, s_max)
        cells = [(t - s, s) for s, t in (eng.bidegree(c, params) for c in classes)]
        assert classes and len(set(cells)) == len(cells)

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

    def test_class_budget_at_cap_counted_from_rows(self, params3):
        # the count is the total length of the window's runs: no class is
        # built and nothing is rendered
        x0, x1, s0, s1 = map(int, AT_CAP[3:])
        for want, window in ((cr.MAX_CHART_CLASSES, (x0, x1, s0, s1)),
                             (cr.MAX_CHART_CLASSES + 100, (x0, x1, s0, s1 + 1))):
            assert sum(run[-1] for run in eng.window_runs("Cp", params3, *window)) == want
            assert sum(len(js) for _, _, js in window_rows("Cp", params3, *window)) == want
            assert window_class_count("Cp", params3, *window) == want

    @pytest.mark.parametrize("p", [3, 5, 11, 997])
    @pytest.mark.parametrize("group", GROUPS)
    def test_class_count_is_the_rows_total(self, group, p):
        # the runs' total against the closed-form count and the walk of the
        # rows, and the runs against that walk class by class in (s, j)
        # order wherever it is small: plain,
        # negative with odd ends, inverted in x, in s and in both, tall,
        # wide, and random windows of either sign, wide and tall, so that
        # both sides of the walk are taken
        params = height_params(p)
        windows = [(-20, 20, -10, 10), (-301, -7, -99, -3), (5, 4, 0, 10), (0, 10, 10, 0), (5, 4, 3, 2),
                   (0, 0, -20001, 19999), (-3, 2, -5000, 5001), (-10**6, 10**6 + 1, -3, 3), (-10**5, 10**5, 1, 1),
                   (-7, 7, -10**6, 10**6), (2 * 10**9, 2 * 10**9 + 40, -10**6, 10**6)]
        rng = random.Random(p)
        for _ in range(200):
            x0, s0 = rng.randint(-5000, 5000), rng.randint(-500, 500)
            windows.append((x0, x0 + rng.randint(-30, 5000), s0, s0 + rng.randint(-3, 500)))
        for _ in range(100):
            x0, s0 = rng.randint(-5000, 5000), rng.randint(-5000, 5000)
            windows.append((x0, x0 + rng.randint(-3, 30), s0, s0 + rng.randint(-30, 5000)))
        sides = set()
        for window in windows:
            runs = list(eng.window_runs(group, params, *window))
            assert all(length > 0 for *_, length in runs), window
            sides.update((di, dj) == (0, 1) for _, _, _, di, dj, _ in runs)
            total = sum(run[-1] for run in runs)
            assert total == window_class_count(group, params, *window), window
            if window[3] - window[2] <= 50000:
                rows = list(window_rows(group, params, *window))
                assert sum(len(js) for _, _, js in rows) == total, window
                if total <= 5000:
                    assert run_classes(runs) == [(eps, i, j) for eps, i, js in rows for j in js], window
        assert sides == {True, False}

    def test_class_budget_refused_through_cli(self, capsys, monkeypatch):
        # 1,666,666 classes: refused with exit 2 before the sequence runs
        def no_run(*args):
            raise AssertionError("the sequence ran before the class budget")

        monkeypatch.setattr(eng, "run_to_einfty", no_run)
        start = time.perf_counter()
        code = cli.main(["chart", "--prime", "3", "--window", "-5000", "4999", "-500", "499", "--format", "json"])
        out, err = capsys.readouterr()
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "1666666 classes" in err and str(cr.MAX_CHART_CLASSES) in err

    def test_tall_window_class_budget_refused_within_1s(self):
        # 10^7 rows of one column: the class count walks no row, so a fresh
        # interpreter refuses at once
        env = dict(os.environ, PYTHONPATH=str(SRC))
        argv = ["chart", "--prime", "3", "--window", "0", "0", "-5000000", "4999999", "--format", "json"]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "tatedual.cli", *argv], env=env, capture_output=True,
                              timeout=30)
        assert time.perf_counter() - start < 1.0
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert b"1666667 classes" in proc.stderr

    @pytest.mark.parametrize("argv,circles,dots", [
        (("--group", "F", "--prime", "11", "--format", "json"), 0, 4545),
        (("--group", "G", "--prime", "997", "--format", "svg"), 1, 0),
    ], ids=["f-p11-json", "g-p997-svg"])
    def test_tall_window_accepted_within_1s(self, argv, circles, dots):
        # 10^7 rows of one column: the walk takes the column, so a fresh
        # interpreter draws it at once
        env = dict(os.environ, PYTHONPATH=str(SRC))
        argv = ["chart", *argv, "--window", "0", "0", "-5000000", "4999999"]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "tatedual.cli", *argv], env=env, capture_output=True,
                              timeout=30)
        assert time.perf_counter() - start < 1.0
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.count(b"<circle") == circles and proc.stdout.count(b'"label"') == dots

    def test_default_windows_within_class_budget(self):
        # every default window the cell budget accepts stays accepted; the
        # largest is Cp at p = 23, with 89,329 classes
        largest = 0
        for group in GROUPS:
            for p in (3, 5, 7, 11, 13, 17, 19, 23):
                params = height_params(p)
                window = cli._default_window(group, params)
                if (window[1] - window[0] + 1) * (window[3] - window[2] + 1) > cr.MAX_CHART_CELLS:
                    break
                largest = max(largest, sum(run[-1] for run in eng.window_runs(group, params, *window)))
        assert largest == 89329 <= cr.MAX_CHART_CLASSES

    @pytest.mark.slow
    def test_class_budget_at_cap_overlay_json_within_20s(self):
        # the largest accepted window, overlaid, in a fresh interpreter
        env = dict(os.environ, PYTHONPATH=str(SRC))
        argv = ["chart", *AT_CAP, "--overlay", "--format", "json"]
        proc = subprocess.run([sys.executable, "-m", "tatedual.cli", *argv], env=env, capture_output=True,
                              timeout=20)
        assert proc.returncode == 0 and proc.stderr == b""
        assert len(json.loads(proc.stdout)["dots"]) == cr.MAX_CHART_CLASSES

    def test_zero_area_window(self):
        spec = spec_cp(x_min=5, x_max=4, s_min=3, s_max=2)
        out = cr.render(spec)
        assert "window" in out
        assert "o" not in out.split("\n")[3] if len(out.split("\n")) > 3 else True
        doc = cr.build_document(spec)
        assert doc["dots"] == [] and doc["arrows"] == []

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

    @pytest.mark.parametrize("group,p", [(g, p) for g in GROUPS for p in (3, 5, 7)])
    def test_overlay_arrows_are_the_closed_forms(self, group, p):
        # the arrows are recorded pairs moved by the lattice; over two
        # periods of the pure periodicity, and every s that an arrow of
        # either family spans, they must be the closed forms at exactly the
        # classes of each stage page where those do not vanish
        params = height_params(p)
        per, s_max = ds.periodicity(group, params), 2 * params.n ** 2 + 2
        spec = cr.ChartSpec(group=group, p=p, page=2, x_min=-per, x_max=per, s_min=-s_max, s_max=s_max)
        rec = eng.run_to_einfty(group, params)
        r1, r2 = eng.first_diff_index(params), eng.second_diff_index(params)
        want = []
        for stage_page, closed, r, color in zip(rec.pages, (eng.d_first, eng.d_second), (r1, r2), ("gray", "blue")):
            for cls in classes_in_window(stage_page, *spec.window()):
                out = closed(cls, params)
                if out is not None:
                    want.append({**cr.pair_json(cls, *out, r, params), "color": color})
        assert cr.build_document(spec, overlay=True)["arrows"] == want
        assert {a["r"] for a in want} == {r1, r2}
        # and some of them lie off the fundamental domain
        assert any((a["source"]["i"], a["source"]["j"] // p) != (0, 0) for a in want)

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

    @pytest.mark.parametrize("draw", [cr.render, cr.diff_overlay], ids=["render", "overlay"])
    def test_one_window_walk_per_chart(self, monkeypatch, draw):
        # the dots and the arrows of both families read one walk of the window
        walks = []
        walk = eng.window_runs

        def counted(group, *args):
            walks.append(group)
            return walk(group, *args)

        monkeypatch.setattr(eng, "window_runs", counted)
        draw(spec_cp(page=10))
        assert walks == ["Cp"]


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

    @pytest.mark.parametrize("group,p,degree", [("G", 3, 1), ("F", 5, 4), ("G", 7, 1)])
    def test_coeff_field_degree(self, group, p, degree):
        # a dot is one copy of F_(p^n) for Cp and F, of F_p for G
        spec = cr.ChartSpec(group=group, p=p, page=2, x_min=0, x_max=0, s_min=0, s_max=0)
        assert cr.build_document(spec)["coeff_field_degree"] == degree
