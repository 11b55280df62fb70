"""Print one JSON line describing the machine the benchmark runs on.

    python3 bench/machine.py

Records the processor count, the BLAS library numpy uses and its thread
count, the numpy and scipy versions, and the measured float64 GEMM rate
(median of several 1500 x 1500 products), against which the CLI's own
matrix products can be read.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import statistics
import time

import numpy as np
import scipy

GEMM_N = 1500
GEMM_REPEATS = 9


def blas_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": None}
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                record["blas_threads"] = fn()
                return record
    return record


def gemm_gflops() -> float:
    rng = np.random.default_rng(0)
    a = rng.random((GEMM_N, GEMM_N))
    b = rng.random((GEMM_N, GEMM_N))
    a @ b
    rates = []
    for _ in range(GEMM_REPEATS):
        t0 = time.perf_counter()
        a @ b
        rates.append(2 * GEMM_N**3 / (time.perf_counter() - t0) / 1e9)
    return statistics.median(rates)


def main() -> None:
    record = {"nproc": len(os.sched_getaffinity(0)), **blas_record(),
              "numpy": np.__version__, "scipy": scipy.__version__,
              "gemm_gflops": gemm_gflops()}
    print(json.dumps(record))


if __name__ == "__main__":
    main()
