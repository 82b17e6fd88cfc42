"""Table I — SGEMM run-times for different alpha/beta values.

The paper ran 100 iterations of an M=N=8192, K=4 SGEMM on five
device/library pairs with (alpha, beta) in {(1,0), (4,0), (1,2)} and
found: beta=0 gives a 1.2x-1.7x speedup over beta=2 (libraries skip the
``beta*C + AB`` update), while alpha's value changes nothing (~1%).

This reproduction measures the same three scalar configurations through
(a) the calibrated device models (A100 is substituted by the H100 model —
the only Table I device without a system model here) and (b) a *real*
NumPy execution of our own kernels on this host, which implements the
same beta=0 fast path.  CPU model rows are single-threaded, as in the
paper.
"""

from __future__ import annotations

import time

import numpy as np

from harness import run_once, write_csv_rows
from repro.blas import numpy_backend as nb
from repro.blas.registry import get_cpu_library, get_gpu_library
from repro.sim.gpu import GpuModel
from repro.sim.cpu import CpuModel
from repro.systems.dawn import MAX_1550_TILE, XEON_8468
from repro.systems.isambard import H100_GH200
from repro.systems.lumi import EPYC_7A53, MI250X_GCD
from repro.types import Dims, Precision

M, N, K = 8192, 8192, 4
ITERATIONS = 100
CASES = (("alpha=1 beta=0", 1.0, 0.0),
         ("alpha=4 beta=0", 4.0, 0.0),
         ("alpha=1 beta=2", 1.0, 2.0))


def _model_rows() -> list[tuple[str, dict[str, float]]]:
    dims = Dims(M, N, K)
    devices = [
        ("cuBLAS / H100 (for A100)",
         GpuModel(H100_GH200, get_gpu_library("cublas"))),
        ("rocBLAS / MI250X GCD",
         GpuModel(MI250X_GCD, get_gpu_library("rocblas"))),
        ("oneMKL / Max 1550 tile",
         GpuModel(MAX_1550_TILE, get_gpu_library("onemkl-gpu"))),
        ("oneMKL / Xeon 8468 (1 thread)",
         CpuModel(XEON_8468, get_cpu_library("onemkl"), max_threads=1)),
        ("AOCL / EPYC 7A53 (1 thread, for 7543P)",
         CpuModel(EPYC_7A53, get_cpu_library("aocl"), max_threads=1)),
    ]
    rows = []
    for label, model in devices:
        times = {}
        for case, alpha, beta in CASES:
            if isinstance(model, GpuModel):
                t = ITERATIONS * model.kernel_time(
                    dims, Precision.SINGLE, alpha=alpha, beta=beta
                )
            else:
                t = model.time(
                    dims, Precision.SINGLE, ITERATIONS, alpha=alpha, beta=beta
                )
            times[case] = t * 1e3  # ms
        rows.append((label, times))
    return rows


def _real_host_row() -> tuple[str, dict[str, float]]:
    # Smaller M=N so the real run stays quick; the fast-path structure is
    # identical at any size.
    m = n = 2048
    a, b, c = nb.make_operands_gemm(m, n, K, np.dtype(np.float32))
    times = {}
    for case, alpha, beta in CASES:
        nb.gemm(m, n, K, alpha, a, m, b, K, beta, c, m)  # warm-up
        start = time.perf_counter()
        for _ in range(20):
            nb.gemm(m, n, K, alpha, a, m, b, K, beta, c, m)
        times[case] = (time.perf_counter() - start) * 1e3
    return (f"NumPy kernels on this host (M=N={m}, 20 iters)", times)


def test_table1_alpha_beta(benchmark):
    rows = run_once(benchmark, _model_rows)
    rows.append(_real_host_row())

    header = ["Device / library"] + [case for case, _, _ in CASES] + [
        "beta2/beta0", "alpha4/alpha1",
    ]
    out_rows = [header]
    print("\nTable I — SGEMM run-times (ms), varying alpha and beta")
    print(f"{header[0]:44s} {header[1]:>16s} {header[2]:>16s} "
          f"{header[3]:>16s} {header[4]:>12s} {header[5]:>13s}")
    for label, times in rows:
        beta_ratio = times["alpha=1 beta=2"] / times["alpha=1 beta=0"]
        alpha_ratio = times["alpha=4 beta=0"] / times["alpha=1 beta=0"]
        print(f"{label:44s} "
              f"{times['alpha=1 beta=0']:14.2f}ms "
              f"{times['alpha=4 beta=0']:14.2f}ms "
              f"{times['alpha=1 beta=2']:14.2f}ms "
              f"{beta_ratio:11.2f}x {alpha_ratio:12.3f}x")
        out_rows.append([label] + [f"{times[c]:.3f}" for c, _, _ in CASES]
                        + [f"{beta_ratio:.3f}", f"{alpha_ratio:.3f}"])

    write_csv_rows("table1", "alphabeta.csv", out_rows)

    # Paper shape: beta=0 is a 1.2x-1.7x win; alpha is noise (<~2%).
    for label, times in rows[:-1]:  # model rows are noise-free enough
        beta_ratio = times["alpha=1 beta=2"] / times["alpha=1 beta=0"]
        alpha_ratio = times["alpha=4 beta=0"] / times["alpha=1 beta=0"]
        assert 1.1 <= beta_ratio <= 1.9, (label, beta_ratio)
        assert 0.95 <= alpha_ratio <= 1.05, (label, alpha_ratio)
