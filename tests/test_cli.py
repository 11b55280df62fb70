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
        (3, 2, "", "error: k=3 degree 11589 has dimension 11590: a rank of a 11590 x 11590 matrix "
                   "mod 5 needs 537312400 bytes, over the 536870912 byte budget\n"),
        (4, 0, "PASS freeness p=5 k=4 degrees_checked=0 max_degree=1000000000000\n", ""),
    ],
    ids=["k3-refused", "k4-no-degrees"],
)
def test_freeness_huge_max_degree_answers_at_once(k, code, out, err):
    # the wanted degrees are read lazily: k = 3 is refused at its first rank
    # over budget, and k = 4 wants no degree at all.  A fresh interpreter,
    # so that a run that lists every degree is killed at the time limit
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = ["verify", "freeness", "--prime", "5", "--k", str(k), "--max-degree", str(10**12)]
    proc = subprocess.run([sys.executable, "-m", "tatedual.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=2)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


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


@pytest.mark.parametrize("argv", [("--prime", "3", "--k", "2", "--degree", "-1"),
                                  ("--prime", "5", "--k", "4", "--degree", "-3")])
def test_sympow_negative_degree_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "sympow", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: degree must be nonnegative, got {argv[-1]}\n"


def test_sympow_resource_guard(capsys, monkeypatch):
    from tatedual import cp_rep

    monkeypatch.setattr(cp_rep, "DIM_CAP", 5)
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
    # degree 16 of U_0 at p = 5 has dimension 4845 and takes a rank of z, as
    # 16 = 0 + 1 mod 5; its float32 work array of 4 * 4845^2 bytes is one
    # byte over the patched budget; the command must refuse before building
    # any symmetric power
    from tatedual import cp_rep, linalg

    def no_steps(self):
        raise AssertionError("freeness stepped the chain")

    monkeypatch.setattr(cp_rep._SymmetricChain, "step", no_steps)
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


def _modules_after(code):
    """Which of numpy, scipy and scipy.sparse a fresh interpreter on src/
    has loaded after running code."""
    probe = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "print(json.dumps([m for m in ('numpy', 'scipy', 'scipy.sparse') if m in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


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
    [("verify", "nilpotence", "--prime", "3"), ("sympow", "--prime", "5", "--k", "1", "--degree", "6")],
    ids=_command_id,
)
def test_dense_commands_load_numpy_without_scipy(argv):
    assert _modules_after(_main(argv)) == ["numpy"]


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
