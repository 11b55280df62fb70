from __future__ import annotations

import numpy as np
import pytest

from tatedual import cp_rep, linalg
from tatedual.mod_arith import height_params


@pytest.fixture(scope="session")
def params3():
    return height_params(3)


@pytest.fixture(scope="session")
def params5():
    return height_params(5)


@pytest.fixture(scope="session")
def params7():
    return height_params(7)


def random_invertible(rng: np.random.Generator, dim: int, p: int) -> np.ndarray:
    while True:
        m = rng.integers(0, p, size=(dim, dim), dtype=np.int64)
        if linalg.rank_mod(m, p) == dim:
            return m


def inverse_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Inverse of an invertible square matrix: coordinates of the identity
    in its columns (raises ValueError when a is singular)."""
    return linalg.coordinates_in_span(a, np.eye(a.shape[0], dtype=np.int64), p)


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
    plain = cp_rep.direct_sum([cp_rep.jordan_block_module(p, b) for b in blocks])
    basis = random_invertible(rng, plain.dim, p)
    action = linalg.matmul_mod(
        linalg.matmul_mod(basis, plain.gen_action, p), inverse_mod(basis, p), p
    )
    module = cp_rep.CpModule(p=p, dim=plain.dim, gen_action=action)
    return module, tuple(sorted(blocks, reverse=True))
