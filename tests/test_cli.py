from __future__ import annotations

import functools
import importlib.util
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


# Every input is checked once, where it enters: by argparse, HeightParams,
# level_vars, symmetric_dimension, ChartSpec, the budgets, cmd_verify,
# _verify_congruence and cmd_sympow; the layers below trust their callers.
# Each refusal exits 2 before any output, with this last line on stderr
REFUSALS = [
    ("shifts --prime 2", "error: p must be an odd prime, got 2"),
    ("shifts --prime 4", "error: p must be an odd prime, got 4"),
    ("chart --prime 9", "error: p must be an odd prime, got 9"),
    ("verify cancellation --prime 1009", "error: p = 1009 exceeds supported range (1000)"),
    ("sympow --prime 5 --k 5 --degree 3", "error: k must lie in [0, 4], got 5"),
    ("sympow --prime 5 --k -1 --degree 3", "error: k must lie in [0, 4], got -1"),
    ("verify freeness --prime 5 --k -1", "error: k must lie in [0, 4], got -1"),
    ("verify nilpotence --prime 5 --k 4", "error: k must lie in [0, 3], got 4"),
    ("verify nilpotence --prime 5 --k -1", "error: k must lie in [0, 3], got -1"),
    ("chart --page 1", "error: page index must be at least 2"),
    ("chart --group F --prime 31",
     "error: chart window has 804639605 cells, above the budget of 10000000; choose a smaller window"),
    ("chart --prime 3 --window -5000 4999 -500 499",
     "error: chart window holds 1666666 classes, above the budget of 100000; choose a smaller window"),
    ("verify congruence --max-prime 1001", "error: --max-prime 1001 exceeds the supported range (1000)"),
    ("verify nilpotence --max-degree 0", "error: --max-degree must be at least 1, got 0"),
    ("verify freeness --max-degree 0", "error: --max-degree must be at least 1, got 0"),
    ("sympow --prime 7 --k 0 --degree 14",
     "error: sympow needs dimension <= 2000, but degree 14 has dimension 38760; "
     "`tatedual verify freeness` checks larger powers from ranks"),
    # --json lists every degree, so DIM_CAP at --max-degree bounds its output
    ("verify nilpotence --prime 3 --json --max-degree 1000000000000",
     "error: k=1 degree 1000000000000: symmetric power dimension 1000000000001 exceeds cap 50000"),
    # U_995 at p = 997 has two variables, so degree 50000 is the first past DIM_CAP
    ("verify nilpotence --prime 997 --k 995 --json --max-degree 50000",
     "error: k=995 degree 50000: symmetric power dimension 50001 exceeds cap 50000"),
]


@pytest.mark.parametrize("argv,last", REFUSALS, ids=[argv for argv, _ in REFUSALS])
def test_refused_at_the_boundary(capsys, argv, last):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out, err.splitlines()[-1]) == (2, "", last)


@pytest.mark.parametrize("argv,option", [("chart --group Q8", "--group"), ("chart --format png", "--format"),
                                         ("shifts --route sideways", "--route"), ("verify everything", "suite")])
def test_unknown_choice_refused_by_the_parser(capsys, argv, option):
    # the groups, formats, routes and suites are checked by argparse alone;
    # the list of choices after the refused value is worded by the Python version
    code, out, err = run_cli(capsys, *argv.split())
    value = argv.split()[-1]
    prefix = f"tatedual {argv.split()[0]}: error: argument {option}: invalid choice: '{value}'"
    assert (code, out) == (2, "") and err.splitlines()[-1].startswith(prefix)


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
        # degree 14 (dimension 3060) takes the Tate dimension of its base
        # degree 0, unbuilt
        (("--prime", "7", "--k", "2"), "nilpotence_p7_k2.json"),
        # the largest dense Tate data: dimensions up to 1771
        (("--prime", "5", "--k", "1"), "nilpotence_p5_k1.json"),
        # every k at p = 7; the k = 1 powers above DENSE_LIMIT, degrees 9 to
        # 13, are free by extension or not a multiple of 7 in dimension, and
        # degree 14 (dimension 11628) takes the Tate dimension of degree 0
        (("--prime", "7"), "nilpotence_p7.json"),
    ],
)
def test_verify_nilpotence_json_golden(capsys, argv, golden):
    code, out, _ = run_cli(capsys, "verify", "nilpotence", *argv, "--json")
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()


def test_nilpotence_json_p997_k995_answers_at_once(capsys):
    # U_995 at p = 997 is one block of size 2, and for b < p, Sym^b of a
    # block of size 2 is one block of size b + 1: every base b <= 995 has
    # Tate dimension 1, and degree 996 is one free block.  996 bases are
    # folded from their characters, and none is decomposed
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "nilpotence", "--prime", "997", "--k", "995", "--json",
                             "--max-degree", "996")
    assert time.perf_counter() - t0 < 1
    assert (code, err) == (0, "")
    [report] = json.loads(out)
    assert report["holds"] and report["windows_checked"] == 1
    assert report["degrees"] == [{"degree": d, "dimension": d + 1, "even_dim": int(d < 996), "odd_dim": int(d < 996),
                                  "free": d == 996} for d in range(997)]


def test_nilpotence_json_over_tate_budget_refused_at_once(capsys, monkeypatch):
    # no Tate budget is left: the one refusal of a JSON report is DIM_CAP at
    # --max-degree, and it comes before the freeness pass, however far past
    # the degrees that the dense Tate ranks once refused
    from tatedual import verdicts

    def no_pass(params, caps):
        raise AssertionError("the freeness pass ran")

    monkeypatch.setattr(verdicts, "free_flags_by_k", no_pass)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "nilpotence", "--prime", "997", "--k", "995", "--json",
                             "--max-degree", "1000000000000")
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == ("error: k=995 degree 1000000000000: symmetric power dimension "
                                    "1000000000001 exceeds cap 50000")


def test_nilpotence_json_past_old_tate_budget(capsys):
    # at p = 3 only the bases 0 and 1 of U_1 are folded, so the degrees that
    # once passed the Tate budget, 334 on, are answered, and every degree
    # that is not free has its Tate dimension
    code, out, err = run_cli(capsys, "verify", "nilpotence", "--prime", "3", "--json", "--max-degree", "334")
    assert (code, err) == (0, "")
    degrees = json.loads(out)[0]["degrees"]
    assert len(degrees) == 335
    assert all(d["even_dim"] == d["odd_dim"] == (0 if d["free"] else 1) for d in degrees)


@pytest.mark.parametrize(
    "argv,passes",
    [("verify nilpotence --prime 5 --json", 1),
     ("verify nilpotence --prime 7 --json", 1),
     ("verify nilpotence --prime 13 --k 8 --json", 1),
     ("sympow --prime 5 --k 1 --degree 6", 0),
     ("sympow --prime 7 --k 4 --degree 9", 0)],
)
def test_one_freeness_pass_per_command(capsys, monkeypatch, argv, passes):
    # the verdict decides every k in one pass, and the Jordan profiles of
    # the Tate dimensions and of sympow take none of their own
    from tatedual import verdicts

    calls = []
    real = verdicts.free_flags_by_k
    monkeypatch.setattr(verdicts, "free_flags_by_k", lambda params, caps: calls.append(caps) or real(params, caps))
    code, _, err = run_cli(capsys, *argv.split())
    assert (code, err, len(calls)) == (0, "", passes)


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
    # the first k refused is the one with k + 1 > max_degree, k = max_degree
    k = int(max_degree)
    assert err == f"error: --max-degree {max_degree} is below k + 1 = {k + 1} for k={k}\n"


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


def _python(*args, timeout):
    """A fresh interpreter on src/ run with args, killed after timeout s."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout)


def _run_fresh(argv):
    """(exit code, stdout, stderr) of the command line in a fresh interpreter,
    killed after 2 s, so that a run that walks or lists every degree up to
    the one asked for fails."""
    proc = _python("-m", "tatedual.cli", *argv, timeout=2)
    return proc.returncode, proc.stdout, proc.stderr


def _freeness_line(p, k, cap):
    """The PASS line of freeness at k: the degrees d <= cap with d mod p > k
    are cap // p full periods of p - 1 - k each and the cap % p - k past them."""
    checked = cap // p * (p - 1 - k) + max(0, cap % p - k)
    return f"PASS freeness p={p} k={k} degrees_checked={checked} max_degree={cap}\n"


@pytest.mark.parametrize(
    "k,out",
    [
        (3, "PASS freeness p=5 k=3 degrees_checked=200000000000 max_degree=1000000000000\n"),
        (4, "PASS freeness p=5 k=4 degrees_checked=0 max_degree=1000000000000\n"),
    ],
    ids=["k3-answered", "k4-no-degrees"],
)
def test_freeness_huge_max_degree_answers_at_once(k, out):
    # every degree reads its base d mod p: k = 3 is decided on degrees 0 to
    # 4 and counts the degrees d = 4 mod 5, and k = 4 wants no degree at all
    argv = ["verify", "freeness", "--prime", "5", "--k", str(k), "--max-degree", str(10**12)]
    assert _run_fresh(argv) == (0, out, "")
    assert out == _freeness_line(5, k, 10**12)


@pytest.mark.parametrize("p", [11, 13])
@pytest.mark.parametrize("suite", ["nilpotence", "freeness"])
def test_default_verdicts_at_p11_and_p13_answer(suite, p):
    # each k at its default cap 2p: the bases b < p decide every degree
    if suite == "nilpotence":
        out = "".join(f"PASS nilpotence p={p} k={k} max_degree={2 * p} windows={2 * p - k}\n"
                      for k in range(1, p - 1))
    else:
        out = "".join(_freeness_line(p, k, 2 * p) for k in range(p - 1))
    assert _run_fresh(["verify", suite, "--prime", str(p)]) == (0, out, "")


@pytest.mark.parametrize(
    "argv,out",
    [(("nilpotence", "--prime", "3"), f"PASS nilpotence p=3 k=1 max_degree={10**9} windows={10**9 - 1}\n"),
     (("freeness", "--prime", "5", "--k", "2"), _freeness_line(5, 2, 10**9))],
    ids=["nilpotence-p3", "freeness-p5-k2"],
)
def test_plain_verdict_huge_max_degree_answers_at_once(argv, out):
    assert _run_fresh(["verify", *argv, "--max-degree", str(10**9)]) == (0, out, "")


@pytest.mark.parametrize("degree", [7, 10**8])
def test_sympow_trivial_level_answers_at_once(degree):
    # every power of U_4 at p = 5 has dimension 1, so no cap refuses it; its
    # profile is one block of size 1 at every degree, read without building
    # a power
    out = {"p": 5, "k": 4, "degree": degree, "dimension": 1, "jordan": {"blocks": [1], "total": 1},
           "tate": {"even_dim": 1, "odd_dim": 1}, "free": False}
    argv = ["sympow", "--prime", "5", "--k", "4", "--degree", str(degree)]
    assert _run_fresh(argv) == (0, json.dumps(out, indent=2) + "\n", "")


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
    # them; degree 20 (dimension 1771) is the largest power of the default
    # suites
    code, out, err = run_cli(capsys, "sympow", *argv)
    assert code == 0
    assert err == ""
    assert out.encode() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize(
    "p,k,degree,route",
    [(5, 1, 6, "leaf"), (5, 1, 20, "leaf"), (7, 4, 9, "dense")],
)
def test_sympow_golden_routes(p, k, degree, route):
    # the three goldens at their base degree d mod p, against two
    # certificates that share nothing with the fold: where c = ceil(dim/p)
    # blocks are forced, a "leaf", rank D = dim - c proves them, as for
    # S^1(U_1) at p = 5 (one block of size 4) and S^0(U_1) (one of size 1);
    # S^2(U_4) at p = 7 has blocks 5 and 1, which rank D leaves open, and
    # the explicit power's decomposition gives them
    from tatedual import cp_rep, verdicts

    from oracles import symmetric_power, u_k_module

    params = mod_arith.height_params(p)
    b, nvars = degree % p, p - k
    dim = verdicts.symmetric_dimension(nvars, b)
    free = (verdicts.symmetric_dimension(nvars, degree) - dim) // p
    blocks = verdicts.jordan_profile(params, k, degree).blocks
    assert blocks[:free] == (p,) * free
    base = blocks[free:]
    if route == "leaf":
        assert len(base) == -(-dim // p) and verdicts.weight_rank(p, nvars, b) == dim - len(base)
    else:
        assert base == cp_rep.jordan_decompose(symmetric_power(u_k_module(params, k), b)).blocks == (5, 1)


@pytest.mark.parametrize(
    "argv",
    [("verify", "nilpotence", "--prime", "3", "--json"),
     ("verify", "nilpotence", "--prime", "5", "--json"),
     ("verify", "nilpotence", "--prime", "7", "--json"),
     ("sympow", "--prime", "7", "--k", "4", "--degree", "9"),
     ("sympow", "--prime", "13", "--k", "11", "--degree", "1999")],
    ids=lambda argv: " ".join(argv),
)
def test_no_walk_past_base_degree(capsys, argv):
    # every Jordan profile and Tate dimension is read off the base degree d
    # mod p, so every default --json suite and sympow answer at once
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1
    assert (code, err) == (0, "")


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

    # S^9(U_4) at p = 7 has dimension 55, and its base S^2(U_4) dimension 6.
    # No power is built, so a DIM_CAP below both refuses nothing; the one
    # guard of sympow is its output bound, DENSE_LIMIT on the power itself
    monkeypatch.setattr(verdicts, "DIM_CAP", 5)
    code, out, err = run_cli(capsys, "sympow", "--prime", "7", "--k", "4", "--degree", "9")
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / "sympow_p7_k4_d9.json").read_bytes()
    monkeypatch.setattr(verdicts, "DENSE_LIMIT", 54)
    code, out, err = run_cli(capsys, "sympow", "--prime", "7", "--k", "4", "--degree", "9")
    assert (code, out) == (2, "")
    assert err.startswith("error: sympow needs dimension <= 54, but degree 9 has dimension 55;")


def test_sympow_above_dense_limit_refused_before_walking(capsys):
    # S^14(U_0) at p = 7 has dimension 38760, past sympow's output bound
    code, out, err = run_cli(capsys, "sympow", "--prime", "7", "--k", "0", "--degree", "14")
    assert code == 2
    assert out == ""
    assert "38760" in err and "verify freeness" in err


def test_verify_freeness_golden(capsys):
    # every k at p = 7, the README command: each level U_k ranks only its
    # base degree k + 1, the largest at dimension 35 (k = 2 and 3), and
    # every degree up to 14 reads the flag of its base d mod 7
    code, out, err = run_cli(capsys, "verify", "freeness", "--prime", "7")
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / "freeness_p7.txt").read_bytes()


def test_verify_freeness_p5_golden(capsys):
    # every k at p = 5, the README command: U_0 at degree 21 (dimension
    # 12650) reads the flag of its base 1, where a rank of z was over budget
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
    assert (code, out) == (2, "")
    assert err == "error: [Errno 2] No such file or directory: '/nonexistent-dir/x.txt'\n"


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


def test_bench_commands_print_expected_bytes(capsys, monkeypatch):
    # every command of every bench workload, run in process: exit 0 and
    # bench/run.py's own check, the bytes in bench/expected/ and, for
    # shifts, the paper's shift column.  bench/ goes on sys.path for the
    # script's import of its launcher
    monkeypatch.syspath_prepend(str(BENCH_EXPECTED.parent))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_EXPECTED.parent / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    for cmd in (cmd for commands in run.WORKLOADS.values() for cmd in commands):
        code, out, _ = run_cli(capsys, *cmd.argv)
        assert (code, run.check_output(cmd, out.encode())) == (0, None), cmd.argv


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


# the layers that a command can load; the probe refuses numpy and the dense
# oracle, cp_rep and linalg, which only the tests and bench/launcher.py call
_LIVE = ("cli", "verdicts", "tate_engine", "duality_shifts", "chart_render", "mod_arith", "errors")
_REFUSED = ("numpy", "tatedual.cp_rep", "tatedual.linalg")

_PROBE = """\
import contextlib, io, sys

class Refuse:
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name in {refused!r} or name.startswith("numpy."):
            self.seen.append(name)
            raise ModuleNotFoundError(f"import of {{name}} refused")

sys.meta_path.insert(0, Refuse())
argv = {argv!r}
out = io.StringIO()
with contextlib.redirect_stdout(out):
    from tatedual import cli
    code = cli.main(argv) if argv else 0
loaded = sorted(m.removeprefix("tatedual.") for m in sys.modules
                if m.startswith("tatedual") or m in ("dataclasses", "json"))
from tatedual import {live}
import json
print(json.dumps([code, out.getvalue(), loaded, Refuse.seen]))
"""


@functools.lru_cache(maxsize=None)
def _probe(argv):
    """cli.main(argv) in a fresh interpreter on src/ whose import system
    refuses numpy, cp_rep and linalg (an empty argv only imports the command
    line): its exit code, its standard output, the tatedual modules (without
    the package prefix) and which of dataclasses and json it loaded, and
    every refused import, a guarded one included.  The probe then imports
    every live layer, which must load under the refusal too.  One
    interpreter per distinct argv serves every load check below."""
    code = _PROBE.format(refused=_REFUSED, argv=list(argv), live=", ".join(_LIVE))
    proc = _python("-c", code, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    return tuple(json.loads(proc.stdout))


_CLI_IMPORT = ["cli", "errors", "mod_arith", "tatedual"]
_NILP, _FREE, _SYMPOW = ("verify", "nilpotence", "--prime"), ("verify", "freeness", "--prime"), ("sympow", "--prime")

# every probed command: its argv, its recorded standard output, the layers
# it adds to the command line's import, and its name if it runs a verdict
PROBED = [
    ((), None, [], None),
    (("verify", "congruence"), BENCH_EXPECTED / "congruence.out", [], None),
    (("shifts", "--prime", "7"), BENCH_EXPECTED / "shifts-p7.out", ["duality_shifts", "tate_engine"], None),
    (("verify", "cancellation", "--prime", "3"), GOLDEN / "cancellation_p3.txt", ["tate_engine"], None),
    (("chart", "--prime", "5", "--overlay"), BENCH_EXPECTED / "chart-overlay-p5.out", ["chart_render", "tate_engine"],
     None),
    ((*_NILP, "5"), BENCH_EXPECTED / "nilpotence-p5.out", ["verdicts"], "nilp-p5"),
    ((*_NILP, "7", "--k", "2"), BENCH_EXPECTED / "nilpotence-p7-k2.out", ["verdicts"], "nilp-p7-k2"),
    ((*_FREE, "5", "--k", "1"), BENCH_EXPECTED / "freeness-p5-k1.out", ["verdicts"], "free-p5-k1"),
    ((*_SYMPOW, "5", "--k", "1", "--degree", "6"), BENCH_EXPECTED / "sympow-p5-k1-d6.out", ["json", "verdicts"],
     "sympow-d6"),
    ((*_SYMPOW, "5", "--k", "1", "--degree", "20"), GOLDEN / "sympow_p5_k1_d20.json", ["json", "verdicts"],
     "sympow-d20"),
    ((*_SYMPOW, "7", "--k", "4", "--degree", "9"), GOLDEN / "sympow_p7_k4_d9.json", ["json", "verdicts"],
     "sympow-p7-k4-d9"),
    # a base of dimension 924, the README's example of a folded profile
    ((*_SYMPOW, "13", "--k", "6", "--degree", "6"), GOLDEN / "sympow_p13_k6_d6.json", ["json", "verdicts"],
     "sympow-p13-k6-d6"),
    ((*_NILP, "3", "--json"), GOLDEN / "nilpotence_p3.json", ["json", "verdicts"], "nilp-p3-json"),
    ((*_NILP, "5", "--k", "1", "--json"), GOLDEN / "nilpotence_p5_k1.json", ["json", "verdicts"], "nilp-p5-k1-json"),
    ((*_NILP, "7", "--json"), GOLDEN / "nilpotence_p7.json", ["json", "verdicts"], "nilp-p7-json"),
]


def _probed(argv, recorded):
    """The modules that the probe of argv loaded, once it has exited 0,
    printed the recorded bytes and asked for no refused import."""
    code, out, loaded, refused = _probe(argv)
    assert (code, out.encode(), refused) == (0, recorded.read_bytes() if recorded else b"", [])
    return loaded


def _command_id(argv):
    return " ".join(argv) or "import"


@pytest.mark.parametrize("argv,recorded", [(a, r) for a, r, _, name in PROBED if not name],
                         ids=[_command_id(a) for a, _, _, name in PROBED if not name])
def test_closed_form_commands_load_no_numpy(argv, recorded):
    _probed(argv, recorded)


@pytest.mark.parametrize("argv,recorded", [(a, r) for a, r, _, name in PROBED if name],
                         ids=[name for _, _, _, name in PROBED if name])
def test_verdicts_load_no_numpy(argv, recorded):
    # the verdicts of the benchmark workloads, from exponent rows alone, and
    # every Jordan profile and Tate dimension, folded from the character of
    # the base degree
    _probed(argv, recorded)


@pytest.mark.parametrize("argv,recorded,extra", [case[:3] for case in PROBED],
                         ids=[f"{_command_id(a)}-{_command_id(x)}" for a, _, x, _ in PROBED])
def test_commands_load_only_their_layers(argv, recorded, extra):
    # importing the command line loads no layer, and each command adds the
    # layers it runs; no command loads dataclasses, and the verdicts no json
    assert _probed(argv, recorded) == sorted(_CLI_IMPORT + extra)


def test_step_past_dense_limit_loads_numpy_without_scipy():
    # S^13(U_2) at p = 7 (dimension 2380) is kept as triplets, and its rank
    # goes through the float kernel
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from oracles import symmetric_walk, u_k_module\n"
        "from tatedual import cp_rep\n"
        "from tatedual.mod_arith import height_params\n"
        "_, m, _ = list(symmetric_walk(u_k_module(height_params(7), 2), 13))[-1]\n"
        "assert m.dim == 2380 > cp_rep.DENSE_LIMIT and not m.is_dense()\n"
        "assert cp_rep._free_by_rank(m)\n"
        "print([m for m in ('numpy', 'scipy') if m in sys.modules])"
    )
    proc = _python("-c", code, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "['numpy']\n"), proc.stderr
