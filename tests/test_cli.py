from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tatedual import cli, mod_arith

EXPECTED_SHIFTS_P3 = """\
group   p  route   shift  periodicity  certificate         degree
Cp      3  dual        4           18  D(a)                     6
F       3  both       22           72  D(a D^-1)               24
G       3  both       22           72  D(a D^-1)               24
"""


GOLDEN = Path(__file__).parent / "golden"
BENCH_EXPECTED = Path(__file__).parent.parent / "bench" / "expected"
SRC = Path(__file__).parent.parent / "src"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shifts_table_p3(capsys):
    code, out, err = run_cli(capsys, "shifts", "--prime", "3")
    assert code == 0
    assert out == EXPECTED_SHIFTS_P3
    assert err == ""


def test_shifts_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "shifts", "--prime", "5")
    _, out2, _ = run_cli(capsys, "shifts", "--prime", "5")
    assert out1 == out2
    assert " 16 " in out1.replace("  ", " ")
    assert "116" in out1


def test_shifts_routes(capsys):
    code, out, _ = run_cli(capsys, "shifts", "--prime", "5", "--route", "dual")
    assert code == 0
    assert out.count("dual") == 3
    code, out, _ = run_cli(capsys, "shifts", "--prime", "5", "--route", "det")
    assert code == 0
    assert "Cp" not in out


@pytest.mark.parametrize("route", ["det", "dual"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_shifts_single_route_golden(capsys, p, route):
    code, out, err = run_cli(capsys, "shifts", "--prime", str(p), "--route", route)
    assert code == 0
    assert err == ""
    assert out.encode() == (GOLDEN / f"shifts_p{p}_{route}.txt").read_bytes()


def test_composite_prime_rejected(capsys):
    code, out, err = run_cli(capsys, "shifts", "--prime", "4")
    assert code == 2
    assert out == ""
    assert "odd prime" in err


def test_unknown_flag_exits_2(capsys):
    code, _, err = run_cli(capsys, "shifts", "--primes", "3")
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run_cli(capsys, "transmogrify")
    assert code == 2


def test_verify_congruence(capsys):
    code, out, _ = run_cli(capsys, "verify", "congruence", "--max-prime", "101")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "PASS congruence p=3 invariant_exponent=0 modulus=4"
    assert lines[-1] == "congruence: 25/25 primes verified (p <= 101)"


def test_congruence_max_prime_above_range_refused_before_output(capsys):
    code, out, err = run_cli(capsys, "verify", "congruence", "--max-prime", "1100")
    assert code == 2
    assert out == ""
    assert f"exceeds the supported range ({mod_arith.MAX_PRIME})" in err


@pytest.mark.parametrize("max_prime", ["2", "-7"])
def test_congruence_max_prime_below_three_refused_before_output(capsys, max_prime):
    # no odd prime lies below 3: a suite that checks nothing must not pass
    code, out, err = run_cli(capsys, "verify", "congruence", "--max-prime", max_prime)
    assert code == 2
    assert out == ""
    assert f"--max-prime must be at least 3, got {max_prime}" in err


def test_congruence_max_prime_at_range_runs_every_prime(capsys):
    code, out, _ = run_cli(capsys, "verify", "congruence", "--max-prime", str(mod_arith.MAX_PRIME))
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 168
    assert lines[-2] == "PASS congruence p=997 invariant_exponent=-495012 modulus=992016"
    assert lines[-1] == "congruence: 167/167 primes verified (p <= 1000)"


def test_verify_cancellation(capsys):
    code, out, _ = run_cli(capsys, "verify", "cancellation", "--prime", "3")
    assert code == 0
    assert out.count("PASS cancellation") == 3


def test_verify_nilpotence_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "nilpotence", "--prime", "3", "--max-degree", "9")
    assert code == 0
    assert "PASS nilpotence p=3 k=1 max_degree=9" in out


@pytest.mark.parametrize(
    "argv,golden",
    [
        (("--prime", "3"), "nilpotence_p3.json"),
        (("--prime", "5", "--k", "2"), "nilpotence_p5_k2.json"),
        # degree 13 (dimension 2380) is ranked above DENSE_LIMIT and free;
        # degree 14 (dimension 3060) is reported from its dimension alone
        (("--prime", "7", "--k", "2"), "nilpotence_p7_k2.json"),
        # the largest dense Tate data: dimensions up to 1771
        (("--prime", "5", "--k", "1"), "nilpotence_p5_k1.json"),
        # every k at p = 7; the k = 1 powers above DENSE_LIMIT, degrees 9 to
        # 14, are free by extension or not a multiple of 7 in dimension
        (("--prime", "7"), "nilpotence_p7.json"),
    ],
)
def test_verify_nilpotence_json_golden(capsys, argv, golden):
    code, out, _ = run_cli(capsys, "verify", "nilpotence", *argv, "--json")
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()


def test_nilpotence_json_over_tate_budget_refused_at_once(capsys):
    # the Tate dimensions up to degree 1500 would rank about 7.5e8 dense
    # cells; the refusal comes before the freeness pass, which alone takes
    # seconds at that degree
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "nilpotence", "--prime", "3", "--json", "--max-degree", "1500")
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert out == ""
    assert "k=1 degree 334" in err and "budget" in err


def test_tate_budget_boundary():
    # at p = 3, U_1 has dimension d + 1, and the degrees d = 0, 1 mod 3 are
    # not free: their squares first pass 2^23 at degree 334
    from tatedual import verdicts
    from tatedual.errors import ResourceGuard

    params = mod_arith.height_params(3)
    cells = sum((d + 1) ** 2 for d in range(335) if d % 3 <= 1)
    assert cells - 335**2 <= verdicts.TATE_CELLS < cells
    verdicts.check_tate_budget(params, {1: 333})
    with pytest.raises(ResourceGuard):
        verdicts.check_tate_budget(params, {1: 334})


def test_verify_nilpotence_p7_golden(capsys):
    # the plain verdict at every k = 1, ..., 5 of p = 7, the README command
    code, out, _ = run_cli(capsys, "verify", "nilpotence", "--prime", "7")
    assert code == 0
    assert out.encode() == (GOLDEN / "nilpotence_p7.txt").read_bytes()


@pytest.mark.parametrize("max_degree", ["2", "3"])
def test_nilpotence_late_refusal_prints_nothing(capsys, max_degree):
    # k = 1 passes and a later k is refused for max_deg < k + 1: the refusal
    # must come before any PASS line
    code, out, err = run_cli(capsys, "verify", "nilpotence", "--prime", "5", "--max-degree", max_degree)
    assert (code, out) == (2, "")
    assert err == "error: max_deg must be at least k + 1\n"


def test_verify_freeness_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "freeness", "--prime", "3", "--max-degree", "8")
    assert code == 0
    assert "PASS freeness p=3 k=0" in out
    assert "PASS freeness p=3 k=1" in out


@pytest.mark.parametrize("suite", ["nilpotence", "freeness"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_max_degree_below_one_refused(capsys, suite, value):
    code, out, err = run_cli(capsys, "verify", suite, "--prime", "3", "--max-degree", value)
    assert code == 2
    assert out == ""
    assert "--max-degree must be at least 1" in err


@pytest.mark.parametrize(
    "k,code,out,err",
    [
        (5, 2, "", "error: k must lie in [0, 4], got 5\n"),
        (4, 0, "PASS freeness p=5 k=4 degrees_checked=0 max_degree=25\n", ""),
    ],
    ids=["k5-refused", "k4-no-degrees"],
)
def test_freeness_k_checked_without_degrees(capsys, k, code, out, err):
    # no degree has k+1 <= d mod p <= p-1 once k >= p - 1; k is still checked
    assert run_cli(capsys, "verify", "freeness", "--prime", "5", "--k", str(k)) == (code, out, err)


def test_max_degree_one_is_honoured(capsys):
    code, out, _ = run_cli(capsys, "verify", "freeness", "--prime", "3", "--max-degree", "1")
    assert code == 0
    assert out == (
        "PASS freeness p=3 k=0 degrees_checked=1 max_degree=1\n"
        "PASS freeness p=3 k=1 degrees_checked=0 max_degree=1\n"
    )


@pytest.mark.parametrize(
    "k,code,out,err",
    [
        (3, 2, "", "error: k=3 degree 1000000000000: symmetric power dimension 1000000000001 "
                   "exceeds cap 50000\n"),
        (4, 0, "PASS freeness p=5 k=4 degrees_checked=0 max_degree=1000000000000\n", ""),
    ],
    ids=["k3-refused", "k4-no-degrees"],
)
def test_freeness_huge_max_degree_answers_at_once(k, code, out, err):
    # the wanted degrees are read lazily: k = 3 is refused by DIM_CAP before
    # any row is built, and k = 4 wants no degree at all.  A fresh interpreter,
    # so that a run that lists every degree is killed at the time limit
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = ["verify", "freeness", "--prime", "5", "--k", str(k), "--max-degree", str(10**12)]
    proc = subprocess.run([sys.executable, "-m", "tatedual.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=2)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


@pytest.mark.parametrize("degree", [7, 10**8])
def test_sympow_trivial_level_answers_at_once(degree):
    # every power of U_4 at p = 5 has dimension 1, so no cap refuses it; its
    # profile is one block of size 1 at every degree, read without building
    # a power.  A fresh interpreter, so that a walk up to the degree is
    # killed at the time limit
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = ["sympow", "--prime", "5", "--k", "4", "--degree", str(degree)]
    proc = subprocess.run([sys.executable, "-m", "tatedual.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=2)
    out = {"p": 5, "k": 4, "degree": degree, "dimension": 1, "jordan": {"blocks": [1], "total": 1},
           "tate": {"even_dim": 1, "odd_dim": 1}, "free": False}
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, json.dumps(out, indent=2) + "\n", "")


def test_sympow_json(capsys):
    code, out, _ = run_cli(capsys, "sympow", "--prime", "3", "--k", "1", "--degree", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob == {
        "p": 3,
        "k": 1,
        "degree": 2,
        "dimension": 3,
        "jordan": {"blocks": [3], "total": 3},
        "tate": {"even_dim": 0, "odd_dim": 0},
        "free": True,
    }


@pytest.mark.parametrize(
    "argv,golden",
    [
        (("--prime", "5", "--k", "1", "--degree", "6"), "sympow_p5_k1_d6.json"),
        (("--prime", "7", "--k", "4", "--degree", "9"), "sympow_p7_k4_d9.json"),
        (("--prime", "5", "--k", "1", "--degree", "20"), "sympow_p5_k1_d20.json"),
    ],
)
def test_sympow_golden(capsys, argv, golden):
    # Tate dimensions 1, 2 and 1: blocks smaller than p, one, two and one of
    # them; degree 20 (dimension 1771) is the largest power sympow decomposes
    # at its default suites
    code, out, err = run_cli(capsys, "sympow", *argv)
    assert code == 0
    assert err == ""
    assert out.encode() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize(
    "p,k,degree,route",
    [(5, 1, 6, "leaf"), (5, 1, 20, "leaf"), (7, 4, 9, "dense")],
)
def test_sympow_golden_routes(p, k, degree, route, monkeypatch):
    # the three goldens take the two routes of sympow at their base degree
    # d mod p: the rank of D alone decides S^1(U_1) at p = 5 (one block of
    # size 4) and S^0(U_1) (one of size 1); S^2(U_4) at p = 7 has blocks 5
    # and 1, which it does not decide, and goes to jordan_decompose.  The
    # free blocks of degrees 6, 20 and 9 come on top
    from tatedual import cp_rep, verdicts

    decomposed = []
    real = cp_rep.jordan_decompose
    monkeypatch.setattr(cp_rep, "jordan_decompose", lambda m: decomposed.append(m.dim) or real(m))
    params = mod_arith.height_params(p)
    profile = verdicts.jordan_profile(params, k, degree)
    assert decomposed == {"leaf": [], "dense": [6]}[route]
    # no freeness flag is needed: the leaf or the decomposition decides alone
    monkeypatch.setattr(verdicts, "free_flags_by_k",
                        lambda params, caps: {j: [False] * (c + 1) for j, c in caps.items()})
    assert verdicts.jordan_profile(params, k, degree) == profile


@pytest.mark.parametrize(
    "argv",
    [("verify", "nilpotence", "--prime", "3", "--json"),
     ("verify", "nilpotence", "--prime", "5", "--json"),
     ("verify", "nilpotence", "--prime", "7", "--json"),
     ("sympow", "--prime", "7", "--k", "4", "--degree", "9"),
     ("sympow", "--prime", "13", "--k", "11", "--degree", "1999")],
    ids=lambda argv: " ".join(argv),
)
def test_no_walk_past_base_degree(capsys, monkeypatch, argv):
    # every Jordan profile and Tate dimension is read off the base degree d
    # mod p, so no symmetric power past degree p - 1 is built, and every
    # default --json suite and sympow answer at once
    from tatedual import cp_rep

    stepped = []
    step = cp_rep._SymmetricChain.step

    def counted(chain):
        stepped.append(chain.deg + 1)
        step(chain)

    monkeypatch.setattr(cp_rep._SymmetricChain, "step", counted)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1
    assert (code, err) == (0, "")
    assert max(stepped, default=0) < int(argv[argv.index("--prime") + 1])


def test_sympow_far_past_p():
    # S^1999(U_11) at p = 13, the largest power of U_11 that sympow accepts:
    # 1999 = 10 mod 13, S^10(U_11) is one block of size 11, and the other
    # 1989 dimensions are 153 free blocks
    from tatedual import verdicts

    profile = verdicts.jordan_profile(mod_arith.height_params(13), 11, 1999)
    assert profile.blocks == (13,) * 153 + (11,)


@pytest.mark.parametrize("argv", [("--prime", "3", "--k", "2", "--degree", "-1"),
                                  ("--prime", "5", "--k", "4", "--degree", "-3")])
def test_sympow_negative_degree_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "sympow", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: degree must be nonnegative, got {argv[-1]}\n"


def test_sympow_resource_guard(capsys, monkeypatch):
    from tatedual import verdicts

    monkeypatch.setattr(verdicts, "DIM_CAP", 5)
    code, out, err = run_cli(capsys, "sympow", "--prime", "5", "--k", "0", "--degree", "3")
    assert code == 2
    assert "cap" in err


def test_sympow_above_dense_limit_refused_before_walking(capsys, monkeypatch):
    # S^14(U_0) at p = 7 has dimension 38760: no dense Jordan profile exists,
    # so the command must refuse before building any symmetric power
    from tatedual import cp_rep

    def no_steps(self):
        raise AssertionError("sympow stepped the chain")

    monkeypatch.setattr(cp_rep._SymmetricChain, "step", no_steps)
    code, out, err = run_cli(capsys, "sympow", "--prime", "7", "--k", "0", "--degree", "14")
    assert code == 2
    assert out == ""
    assert "38760" in err and "verify freeness" in err


def test_freeness_over_rank_budget_exits_2(capsys, monkeypatch):
    # degree 16 of U_0 at p = 5 has dimension 4845 and, with its weight
    # certificate forced short, falls back to a rank of z, as 16 = 0 + 1
    # mod 5; its float32 work array of 4 * 4845^2 bytes is one byte over the
    # patched budget; the command must refuse before building any
    # symmetric power
    from tatedual import cp_rep, linalg, verdicts

    def no_steps(self):
        raise AssertionError("freeness stepped the chain")

    real = verdicts.weight_rank
    monkeypatch.setattr(cp_rep._SymmetricChain, "step", no_steps)
    monkeypatch.setattr(verdicts, "weight_rank", lambda p, nvars, deg: -1 if deg == 16 else real(p, nvars, deg))
    monkeypatch.setattr(linalg, "RANK_BYTES", 4 * 4845**2 - 1)
    code, out, err = run_cli(capsys, "verify", "freeness", "--prime", "5", "--k", "0", "--max-degree", "16")
    assert code == 2
    assert out == ""
    assert "4845 x 4845" in err and "byte budget" in err
    assert "k=0" in err and "degree 16" in err


def test_verify_freeness_golden(capsys):
    # every k at p = 7, the README command: each level ranks only its
    # degrees d = k + 1 mod 7, the largest at dimension 3003 (k = 0,
    # degree 8); U_0 at degrees 11 to 13, dimensions 12376 to 27132, is free
    # by extension
    code, out, err = run_cli(capsys, "verify", "freeness", "--prime", "7")
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / "freeness_p7.txt").read_bytes()


def test_verify_freeness_p5_golden(capsys):
    # every k at p = 5, the README command: U_0 at degree 21 (dimension
    # 12650) is decided by the rank of D, where a rank of z was over budget
    code, out, err = run_cli(capsys, "verify", "freeness", "--prime", "5")
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / "freeness_p5.txt").read_bytes()


@pytest.mark.parametrize("p", ["101", "997"])
def test_freeness_many_variables(capsys, p):
    # U_0 has p variables, past the int64 range of the binomials C(a, b),
    # a < p + 1, b < p, from p = 67 on; degree 1 is one Jordan block of size p
    code, out, err = run_cli(capsys, "verify", "freeness", "--prime", p, "--k", "0", "--max-degree", "1")
    assert (code, out, err) == (0, f"PASS freeness p={p} k=0 degrees_checked=1 max_degree=1\n", "")


def test_chart_stdout_and_file(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "chart", "--group", "Cp", "--prime", "5", "--window", "-20", "20", "-10", "10"
    )
    assert code == 0
    golden = (tmp_path / "c.txt")
    code2, _, _ = run_cli(
        capsys,
        "chart", "--group", "Cp", "--prime", "5",
        "--window", "-20", "20", "-10", "10", "--out", str(golden),
    )
    assert code2 == 0
    assert golden.read_text() == out


def test_chart_bad_directory_is_io_error_not_verification(capsys):
    code, out, err = run_cli(
        capsys, "chart", "--out", "/nonexistent-dir/x.txt", "--window", "-4", "4", "-2", "2"
    )
    assert code == 2
    assert "cannot write" in err


def test_chart_overlay(capsys):
    code, out, _ = run_cli(
        capsys, "chart", "--prime", "3", "--overlay", "--window", "-6", "6", "-4", "4"
    )
    assert code == 0
    assert "# overlay: O survives, x killed" in out


def test_chart_svg_format(capsys):
    code, out, _ = run_cli(
        capsys, "chart", "--format", "svg", "--window", "-6", "6", "-4", "4"
    )
    assert code == 0
    assert out.startswith("<?xml")


def test_chart_default_window(capsys):
    code, out, _ = run_cli(capsys, "chart", "--prime", "3")
    assert code == 0
    assert "window: t-s in [-18, 18], s in [-10, 10]" in out


def test_chart_over_cell_budget_refused(capsys):
    # the default F window at p = 31 has about 8e8 cells
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "chart", "--group", "F", "--prime", "31")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "cells" in err


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("--group", "F", "--prime", "7", "--format", "svg"), "chart-f-p7.svg"),
        (("--prime", "5", "--overlay"), "chart-overlay-p5.out"),
    ],
)
def test_bench_charts_within_budget(capsys, argv, expected):
    code, out, _ = run_cli(capsys, "chart", *argv)
    assert code == 0
    assert out.encode() == (BENCH_EXPECTED / expected).read_bytes()


def test_verification_failure_exit_code(capsys, monkeypatch):
    from tatedual import duality_shifts as ds

    def broken(group, params):
        raise ds.VerificationFailure("synthetic failure")

    monkeypatch.setattr(ds, "shift_dual_route", broken)
    code, out, err = run_cli(capsys, "shifts", "--prime", "3")
    assert code == 1
    assert "VERIFICATION FAILED" in out


def _loaded_after(code, report):
    """The value of the expression report in a fresh interpreter on src/
    after running code, its standard output muted; report is evaluated
    before the probe imports json to print it."""
    probe = (
        "import contextlib, io, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + f"seen = {report}\n"
        "import json\n"
        "print(json.dumps(seen))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _modules_after(code):
    """Which of numpy, scipy and scipy.sparse have been loaded after code."""
    return _loaded_after(code, "[m for m in ('numpy', 'scipy', 'scipy.sparse') if m in sys.modules]")


def _layers_after(code):
    """The tatedual modules, without the package prefix, and which of
    dataclasses and json have been loaded after code, sorted."""
    return _loaded_after(code, "sorted(m.removeprefix('tatedual.') for m in sys.modules "
                               "if m.startswith('tatedual') or m in ('dataclasses', 'json'))")


def _main(argv):
    return f"from tatedual import cli\nassert cli.main({list(argv)!r}) == 0"


def _command_id(argv):
    return " ".join(argv) or "import"


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("shifts", "--prime", "7"),
        ("chart", "--prime", "5", "--overlay"),
        ("verify", "cancellation", "--prime", "3"),
        ("verify", "congruence"),
    ],
    ids=_command_id,
)
def test_closed_form_commands_load_no_numpy(argv):
    assert _modules_after(_main(argv) if argv else "import tatedual.cli") == []


@pytest.mark.parametrize(
    "argv",
    [("sympow", "--prime", "7", "--k", "4", "--degree", "9")],
    ids=_command_id,
)
def test_dense_commands_load_numpy_without_scipy(argv):
    assert _modules_after(_main(argv)) == ["numpy"]


@pytest.mark.parametrize(
    "argv,expected",
    [(("verify", "nilpotence", "--prime", "5"), BENCH_EXPECTED / "nilpotence-p5.out"),
     (("verify", "nilpotence", "--prime", "7", "--k", "2"), BENCH_EXPECTED / "nilpotence-p7-k2.out"),
     (("verify", "freeness", "--prime", "5", "--k", "1"), BENCH_EXPECTED / "freeness-p5-k1.out"),
     (("sympow", "--prime", "5", "--k", "1", "--degree", "6"), BENCH_EXPECTED / "sympow-p5-k1-d6.out"),
     (("sympow", "--prime", "5", "--k", "1", "--degree", "20"), GOLDEN / "sympow_p5_k1_d20.json"),
     (("verify", "nilpotence", "--prime", "3", "--json"), GOLDEN / "nilpotence_p3.json")],
    ids=["nilp-p5", "nilp-p7-k2", "free-p5-k1", "sympow-d6", "sympow-d20", "nilp-p3-json"],
)
def test_verdicts_load_no_numpy(argv, expected):
    # the verdicts of the benchmark workloads, and the Jordan profiles and
    # Tate dimensions that the weight certificate decides at the base
    # degree, come from exponent rows alone: a fresh interpreter prints the
    # recorded bytes and never loads numpy
    probe = (
        "import contextlib, io, json, sys\n"
        "from tatedual import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    code = cli.main({list(argv)!r})\n"
        "print(json.dumps([code, out.getvalue(), 'numpy' in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, expected.read_text(), False]


_CLI_IMPORT = ["cli", "errors", "mod_arith", "tatedual"]


@pytest.mark.parametrize(
    "argv,extra",
    [
        ((), []),
        (("verify", "congruence"), []),
        (("verify", "nilpotence", "--prime", "5"), ["verdicts"]),
        (("verify", "nilpotence", "--prime", "7", "--k", "2"), ["verdicts"]),
        (("verify", "freeness", "--prime", "5", "--k", "1"), ["verdicts"]),
        (("shifts", "--prime", "7"), ["duality_shifts", "tate_engine"]),
        (("verify", "cancellation", "--prime", "3"), ["tate_engine"]),
        (("chart", "--prime", "5", "--overlay"), ["chart_render", "tate_engine"]),
        (("verify", "nilpotence", "--prime", "3", "--json"), ["json", "verdicts"]),
        (("sympow", "--prime", "5", "--k", "1", "--degree", "6"), ["json", "verdicts"]),
    ],
    ids=_command_id,
)
def test_commands_load_only_their_layers(argv, extra):
    # importing the command line loads no layer, and each command adds the
    # layers it runs; no command loads dataclasses, and the verdicts no json
    assert _layers_after(_main(argv) if argv else "import tatedual.cli") == sorted(_CLI_IMPORT + extra)


def test_step_past_dense_limit_loads_numpy_without_scipy():
    # S^13(U_2) at p = 7 (dimension 2380) is kept as triplets, and its rank
    # goes through the float kernel
    code = (
        "from tatedual import cp_rep\n"
        "from tatedual.mod_arith import height_params\n"
        "m = cp_rep.symmetric_power(cp_rep.u_k_module(height_params(7), 2), 13)\n"
        "assert m.dim == 2380 > cp_rep.DENSE_LIMIT and not m.is_dense()\n"
        "assert cp_rep._free_by_rank(m)"
    )
    assert _modules_after(code) == ["numpy"]
