"""End-to-end and per-layer benchmark of the tatedual command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each README command of the chosen
workload runs as a fresh ``python3`` subprocess on ``src/``, one after
another (a closed loop with one client), and its standard output must equal
the bytes recorded in ``bench/expected/``.  A command that exits non-zero,
prints anything else or goes over its wall budget (it is then killed) counts
as failed.  The seed only permutes the order of the commands in a pass; the
inputs themselves are the paper's parameters.

``--trace 0`` repeats whole passes of the workload until S seconds have gone
(at least two passes) and reports the end-to-end metrics: median pass wall time, median CPU time of
the pass's children, median over passes of the largest child peak RSS (CPU
and RSS come from each child's own rusage), and the median time for a fresh
interpreter to import ``tatedual.cli``.

``--trace 1`` alternates an untraced pass with a pass whose commands run
under ``bench/launcher.py``, which times the calls into each layer, and
reports the per-layer metrics aggregated from those spans (median over the
traced passes) together with the tracing overhead.

Earlier lines of standard output describe the machine and the passes; the
last line is the JSON result.  The metric names and units are the ones
listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from launcher import LAYER_CALLS  # bench/ is the script's directory

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected"
SPAN_DIR = ROOT / ".bench_out"

# the installed console script, run against the checkout's sources
CONSOLE = "import sys; from tatedual.cli import main; sys.exit(main())"
# set-up is sampled half before and half after the measured passes
SETUP_REPEATS = 6
# untraced passes per run, even past --seconds: one pass of a heavy workload
# outlasts a run, and its median should rest on more than one sample
MIN_PASSES = 2
TRACE_BUDGET_FACTOR = 1.5


class Command(NamedTuple):
    argv: tuple[str, ...]
    expected: str  # file under bench/expected
    budget_s: float


def _cmd(line: str, expected: str, budget_s: float) -> Command:
    return Command(tuple(line.split()), expected, budget_s)


# Wall budgets are about three times the time measured at commit 3a26b2b for
# the heavy commands and ten times for the interactive ones.
WORKLOADS = {
    "nilp-p5": [_cmd("verify nilpotence --prime 5", "nilpotence-p5.out", 45)],
    "nilp-p7-k2": [_cmd("verify nilpotence --prime 7 --k 2", "nilpotence-p7-k2.out", 45)],
    "free-p5-k1": [_cmd("verify freeness --prime 5 --k 1", "freeness-p5-k1.out", 25)],
    "quick": [
        _cmd("shifts --prime 3", "shifts-p3.out", 5),
        _cmd("shifts --prime 5", "shifts-p5.out", 5),
        _cmd("shifts --prime 7", "shifts-p7.out", 5),
        _cmd("verify cancellation --prime 7", "cancellation-p7.out", 5),
        _cmd("chart --group F --prime 7 --format svg", "chart-f-p7.svg", 5),
        _cmd("chart --prime 5 --overlay", "chart-overlay-p5.out", 5),
        _cmd("verify congruence", "congruence.out", 5),
        _cmd("sympow --prime 5 --k 1 --degree 6", "sympow-p5-k1-d6.out", 5),
        _cmd("verify nilpotence --prime 3", "nilpotence-p3.out", 5),
    ],
}

# The paper's shift table: n^2 for Cp and n p^2 + n^2 for F and G, n = p - 1.
PAPER_SHIFTS = {3: {"Cp": 4, "F": 22, "G": 22},
                5: {"Cp": 16, "F": 116, "G": 116},
                7: {"Cp": 36, "F": 330, "G": 330}}


class Child(NamedTuple):
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    error: str | None  # None when the command exited 0 within its budget


def run_child(argv: list[str], env: dict, budget_s: float) -> Child:
    """Run argv to completion or until the budget, reaping it with wait4 so
    that CPU time and peak RSS are this child's own."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            wait = None if timed_out else max(0.0, t0 + budget_s - time.perf_counter())
            events = sel.select(wait)
            if not events and not timed_out:
                timed_out = True
                proc.kill()
            for key, _ in events:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = b"".join(chunks[proc.stdout.fileno()])
    stderr = b"".join(chunks[proc.stderr.fileno()])
    proc.stdout.close()
    proc.stderr.close()
    error = None
    if timed_out:
        error = f"killed after its {budget_s:g} s budget"
    elif proc.returncode != 0:
        error = f"exit {proc.returncode}: {stderr.decode(errors='replace').strip()[-300:]}"
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, stdout, error)


def check_output(cmd: Command, stdout: bytes) -> str | None:
    """None if stdout is the recorded output (and, for shifts, the paper's table)."""
    if stdout != (EXPECTED / cmd.expected).read_bytes():
        return "stdout differs from " + cmd.expected
    if cmd.argv[0] == "shifts":
        p = int(cmd.argv[cmd.argv.index("--prime") + 1])
        rows = [line.split() for line in stdout.decode().splitlines()[1:]]
        shifts = {row[0]: int(row[3]) for row in rows if int(row[1]) == p}
        if shifts != PAPER_SHIFTS[p]:
            return f"shift column {shifts} is not the paper's {PAPER_SHIFTS[p]}"
    return None


class Pass(NamedTuple):
    wall_s: float
    cpu_s: float
    rss_mb: float
    children: list[tuple[Command, Child]]
    failures: list[str]
    spans: list[list[dict]]  # per command, traced passes only


def run_pass(commands: list[Command], env: dict, traced: bool) -> Pass:
    children, failures, spans = [], [], []
    t0 = time.perf_counter()
    for i, cmd in enumerate(commands):
        if traced:
            span_file = SPAN_DIR / f"spans-{os.getpid()}-{i}.json"
            span_file.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "launcher.py"), str(span_file), "--", *cmd.argv]
            child = run_child(argv, env, cmd.budget_s * TRACE_BUDGET_FACTOR)
        else:
            argv = [sys.executable, "-c", CONSOLE, *cmd.argv]
            child = run_child(argv, env, cmd.budget_s)
        error = child.error or check_output(cmd, child.stdout)
        if traced:
            try:
                spans.append(json.loads(span_file.read_text()))
                span_file.unlink()
            except (OSError, ValueError) as exc:
                error = error or f"no spans: {exc}"
                spans.append([])
        if error:
            failures.append(f"{' '.join(cmd.argv)}: {error}")
        children.append((cmd, child))
    wall = time.perf_counter() - t0
    return Pass(wall, sum(c.cpu_s for _, c in children), max(c.rss_mb for _, c in children),
                children, failures, spans)


# --- per-layer metrics from spans -------------------------------------------

SPAN_NAMES = sorted({name for _, _, name, _ in LAYER_CALLS} | {"cli.import", "cli.main"})
COUNTERS = ("linalg.elim.max_dim", "linalg.sparse_rank.max_dim", "linalg.matmul.gflop",
            "cp_rep.chain_step.sparse_calls", "chart_render.render.bytes", "unattributed_s")


def layer_metrics(p: Pass) -> dict[str, float]:
    """Sums over the pass's commands.  ``<span>.s`` is inclusive time of the
    outermost spans of that name, ``<span>.self_s`` excludes the time of
    the span's children, ``<span>.calls`` counts every span."""
    m = dict.fromkeys([f"{name}.{kind}" for name in SPAN_NAMES for kind in ("calls", "s", "self_s")]
                      + list(COUNTERS), 0.0)
    useful = steps = 0
    for (_, child), spans in zip(p.children, p.spans):
        covered = [0.0] * len(spans)
        for s in spans:
            if s["parent"] >= 0:
                covered[s["parent"]] += s["end"] - s["start"]
        degrees = set()
        for i, s in enumerate(spans):
            name, dur, attrs = s["name"], s["end"] - s["start"], s["attrs"]
            m[f"{name}.calls"] += 1
            m[f"{name}.self_s"] += dur - covered[i]
            up = s["parent"]
            while up >= 0 and spans[up]["name"] != name:
                up = spans[up]["parent"]
            if up < 0:
                m[f"{name}.s"] += dur
                if name == "chart_render.render":
                    m["chart_render.render.bytes"] += attrs["bytes"]
            if name in ("linalg.naive", "linalg.blocked"):
                m["linalg.elim.max_dim"] = max(m["linalg.elim.max_dim"], *attrs["shape"])
            elif name == "linalg.sparse_rank":
                m["linalg.sparse_rank.max_dim"] = max(m["linalg.sparse_rank.max_dim"], *attrs["shape"])
            elif name == "linalg.matmul":
                rows, inner, cols = attrs["shape"]
                m["linalg.matmul.gflop"] += 2 * rows * inner * cols / 1e9
            elif name == "cp_rep.chain_step":
                m["cp_rep.chain_step.sparse_calls"] += attrs["path"] == "sparse"
                degrees.add((attrs["base"], attrs["degree"]))
                steps += 1
            if s["parent"] < 0:
                m["unattributed_s"] -= dur
        m["unattributed_s"] += child.wall_s
        useful += len(degrees)
    m["cp_rep.chain_step.useful_ratio"] = useful / steps if steps else 0.0
    matmul_s = m["linalg.matmul.s"]
    m["linalg.matmul.gflops"] = m["linalg.matmul.gflop"] / matmul_s if matmul_s else 0.0
    return m


# --- driver -----------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TATEDUAL_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def check_program(env: dict) -> None:
    """Import the package once (which also compiles its bytecode) and make
    sure it is the checkout's own."""
    probe = "import tatedual.cli; print(tatedual.cli.__file__)"
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"cannot import tatedual from {SRC}: {proc.stderr.strip()[-500:]}")
    if Path(proc.stdout.strip()).resolve() != SRC / "tatedual" / "cli.py":
        raise SystemExit(f"tatedual imported from {proc.stdout.strip()}, not from {SRC}")


def machine_record(env: dict) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "machine.py")], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def import_times(env: dict, repeats: int) -> list[float]:
    argv = [sys.executable, "-c", "import tatedual.cli"]
    times = []
    for _ in range(repeats):
        child = run_child(argv, env, 60)
        if child.error:
            raise SystemExit(f"import failed: {child.error}")
        times.append(child.wall_s)
    return times


def metric_specs() -> dict[str, list[dict]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def emit(specs: list[dict], values: dict[str, float], correct: bool, attempted: int, failed: int):
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not computed: {missing}")
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tatedual" / "cli.py").is_file():
        print(f"error: no tatedual sources under {SRC}", file=sys.stderr)
        return 2
    specs = metric_specs()
    env = child_env()
    check_program(env)
    machine = machine_record(env)
    print("machine " + json.dumps(machine), flush=True)
    setup = import_times(env, SETUP_REPEATS // 2)
    SPAN_DIR.mkdir(exist_ok=True)

    rng = random.Random(args.seed)
    commands = WORKLOADS[args.workload]
    plain: list[Pass] = []
    traced: list[Pass] = []
    min_passes = 1 if args.trace else MIN_PASSES
    deadline = time.perf_counter() + args.seconds
    while len(plain) < min_passes or time.perf_counter() < deadline:
        order = rng.sample(commands, len(commands))
        plain.append(run_pass(order, env, traced=False))
        if args.trace:
            traced.append(run_pass(order, env, traced=True))
    setup += import_times(env, SETUP_REPEATS - len(setup))

    passes = plain + traced
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.children) for p in passes)
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    print("passes " + json.dumps({
        "workload": args.workload, "seed": args.seed, "traced": bool(args.trace),
        "samples": len(plain), "pass_walls_s": [round(p.wall_s, 4) for p in plain],
        "commands": [[" ".join(c.argv), round(ch.wall_s, 4)] for c, ch in plain[0].children],
    }), flush=True)

    if args.trace:
        per_pass = [layer_metrics(p) for p in traced]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["machine.gemm_gflops"] = machine["gemm_gflops"]
        values["linalg.matmul.gemm_frac"] = values["linalg.matmul.gflops"] / machine["gemm_gflops"]
        values["trace.overhead_frac"] = (statistics.median(p.wall_s for p in traced)
                                         / statistics.median(p.wall_s for p in plain) - 1)
        emit(specs["per_layer"], values, not failures, attempted, len(failures))
    else:
        values = {
            "wall_s": statistics.median(p.wall_s for p in plain),
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(p.cpu_s for p in plain),
            "peak_rss_mb": statistics.median(p.rss_mb for p in plain),
        }
        emit(specs["end_to_end"], values, not failures, attempted, len(failures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
