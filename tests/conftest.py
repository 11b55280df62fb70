from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tatedual import cp_rep, linalg, verdicts
from tatedual.mod_arith import height_params

from oracles import coordinates_in_span, direct_sum, jordan_block_module


@pytest.fixture(scope="session")
def params3():
    return height_params(3)


@pytest.fixture(scope="session")
def params5():
    return height_params(5)


@pytest.fixture(scope="session")
def params7():
    return height_params(7)


def report_for_k(params, k: int, max_deg: int, tate_dims: bool = False) -> verdicts.NilpotenceReport:
    """The nilpotence report of k alone up to max_deg, as the CLI builds it."""
    return verdicts.nilpotence_reports(params, {k: max_deg}, tate_dims)[0]


def main_with_rank_d_one_short(argv) -> tuple[int, str, list[str]]:
    """cli.main(argv) in a fresh interpreter on src/, with every rank of D
    compared one short (verdicts.weight_rank one above the rank, so no
    level is certified): its exit code, its standard output, and which of
    numpy, tatedual.cp_rep and tatedual.linalg it loaded."""
    probe = (
        "import contextlib, io, json, sys\n"
        "from tatedual import cli, verdicts\n"
        "real = verdicts.weight_rank\n"
        "verdicts.weight_rank = lambda p, nvars, deg: real(p, nvars, deg) + 1\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    code = cli.main({list(argv)!r})\n"
        "loaded = [m for m in ('numpy', 'tatedual.cp_rep', 'tatedual.linalg') if m in sys.modules]\n"
        "print(json.dumps([code, out.getvalue(), loaded]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


def random_invertible(rng: np.random.Generator, dim: int, p: int) -> np.ndarray:
    while True:
        m = rng.integers(0, p, size=(dim, dim), dtype=np.int64)
        if linalg.rank_mod(m, p) == dim:
            return m


def inverse_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Inverse of an invertible square matrix: coordinates of the identity
    in its columns (raises ValueError when a is singular)."""
    return coordinates_in_span(a, np.eye(a.shape[0], dtype=np.int64), p)


def random_cp_module(rng: np.random.Generator, p: int, max_dim: int = 40) -> cp_rep.CpModule:
    """A random unipotent module: random Jordan blocks scrambled by a random
    change of basis."""
    blocks = []
    total = 0
    target = int(rng.integers(1, max_dim + 1))
    while total < target:
        size = int(rng.integers(1, min(p, target - total) + 1))
        blocks.append(size)
        total += size
    plain = direct_sum([jordan_block_module(p, b) for b in blocks])
    basis = random_invertible(rng, plain.dim, p)
    action = linalg.matmul_mod(
        linalg.matmul_mod(basis, plain.gen_action, p), inverse_mod(basis, p), p
    )
    module = cp_rep.CpModule(p=p, dim=plain.dim, gen_action=action)
    return module, tuple(sorted(blocks, reverse=True))
