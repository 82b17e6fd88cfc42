#!/usr/bin/env python
"""BLAS library choice is a performance decision: two paper case studies.

1. **LUMI, AOCL vs OpenBLAS** (§IV-B, Fig. 6): AOCL never parallelizes
   GEMV (the paper measured 0.89 CPUs in use), so LUMI shows low GEMV
   offload thresholds; switching to OpenBLAS removes them entirely.
2. **Isambard, NVPL threading** (§IV-A, Fig. 3): NVPL wakes all 72
   threads for every size, wrecking small-GEMM performance vs ArmPL or a
   single-threaded build — one reason the GH200's thresholds are so low.

Run:  python examples/library_choice.py
"""

from __future__ import annotations

from repro import (
    AnalyticBackend,
    Dims,
    Kernel,
    Precision,
    RunConfig,
    TransferType,
    make_model,
    run_sweep,
    threshold_for_series,
)
from repro.blas.registry import NVPL, get_gpu_library
from repro.sim.perfmodel import NodePerfModel
from repro.systems import ISAMBARD_AI


def lumi_gemv_study() -> None:
    print("=== LUMI square DGEMV, 128 iterations: AOCL vs OpenBLAS")
    config = RunConfig(min_dim=1, max_dim=4096, iterations=128, step=8,
                       precisions=(Precision.DOUBLE,),
                       kernels=(Kernel.GEMV,), problem_idents=("square",))
    for library in ("aocl", "openblas"):
        model = make_model("lumi", cpu_library=library)
        run = run_sweep(AnalyticBackend(model), config, system_name="lumi")
        series = run.series[0]
        threshold = threshold_for_series(series, TransferType.ONCE)
        cpu_peak = max(series.cpu.gflops.tolist())
        print(f"  {library:9s} peak CPU {cpu_peak:8.1f} GFLOP/s | "
              f"Transfer-Once offload threshold: {threshold}")
    print("  -> the vendor library *creates* the offload threshold; the\n"
          "     open-source one removes any reason to use the GPU here.\n")


def isambard_threading_study() -> None:
    print("=== Isambard small square SGEMM: the NVPL threading heuristic")
    gpu_library = get_gpu_library("cublas")
    variants = {
        "NVPL, 72 threads": make_model("isambard-ai"),
        "NVPL, 1 thread": NodePerfModel(
            ISAMBARD_AI, NVPL.with_threads(1), gpu_library
        ),
        "ArmPL, 72 threads": make_model("isambard-ai", cpu_library="armpl"),
    }
    sizes = (16, 32, 64, 128)
    header = "  " + f"{'library':20s}" + "".join(f"  m={m:<6d}" for m in sizes)
    print(header + " (CPU GFLOP/s)")
    for name, model in variants.items():
        cells = "".join(
            f"  {model.cpu_gflops(Dims(m, m, m), Precision.SINGLE, 1):<8.1f}"
            for m in sizes
        )
        print(f"  {name:20s}{cells}")
    print("  -> waking 72 threads for a 32x32 GEMM costs an order of\n"
          "     magnitude; heuristics, not silicon, set the small-size rate.")


if __name__ == "__main__":
    lumi_gemv_study()
    isambard_threading_study()
