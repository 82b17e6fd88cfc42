"""Fig. 3 — square SGEMM on Isambard-AI for different CPU libraries.

Compares NVPL with 72 threads, NVPL pinned to one thread, and ArmPL over
the first 192 problem sizes at 1 and 8 iterations.  The paper's finding:
NVPL wakes every thread regardless of size, so at small sizes both ArmPL
and single-threaded NVPL "perform considerably better" — one cause of
Isambard's extremely low offload thresholds.
"""

from __future__ import annotations

from harness import run_once, write_csv_rows
from repro.analysis.graphs import Curve, CurveSet, ascii_plot
from repro.backends.simulated import AnalyticBackend
from repro.blas.registry import NVPL, get_gpu_library
from repro.core.config import RunConfig
from repro.core.runner import run_sweep
from repro.sim.perfmodel import NodePerfModel
from repro.systems import ISAMBARD_AI
from repro.systems.catalog import make_model
from repro.types import Kernel, Precision

MAX_DIM = 192


def _cpu_only_curve(model, iterations: int, label: str) -> Curve:
    cfg = RunConfig(min_dim=1, max_dim=MAX_DIM, iterations=iterations,
                    precisions=(Precision.SINGLE,), kernels=(Kernel.GEMM,),
                    problem_idents=("square",), gpu_enabled=False,
                    transfers=())
    run = run_sweep(AnalyticBackend(model), cfg)
    cpu = run.series[0].cpu
    return Curve(label=label,
                 sizes=tuple(cpu.m.tolist()),
                 gflops=tuple(cpu.gflops.tolist()))


def test_fig3_isambard_cpu_libraries(benchmark):
    def build():
        nvpl_72 = make_model("isambard-ai")
        nvpl_1 = NodePerfModel(ISAMBARD_AI, NVPL.with_threads(1),
                               get_gpu_library("cublas"))
        armpl = make_model("isambard-ai", cpu_library="armpl")
        out = {}
        for iterations in (1, 8):
            out[iterations] = [
                _cpu_only_curve(nvpl_72, iterations, "NVPL 72 threads"),
                _cpu_only_curve(nvpl_1, iterations, "NVPL 1 thread"),
                _cpu_only_curve(armpl, iterations, "ArmPL 72 threads"),
            ]
        return out

    curves_by_iter = run_once(benchmark, build)

    for iterations, curves in curves_by_iter.items():
        cs = CurveSet(
            title=f"Fig. 3: Isambard square SGEMM CPU libraries, i={iterations}",
            curves=curves,
        )
        write_csv_rows("fig3", f"isambard_libs_i{iterations}.csv",
                       cs.to_csv_rows())
        print("\n" + ascii_plot(cs))

    for iterations in (1, 8):
        nvpl_72, nvpl_1, armpl = curves_by_iter[iterations]
        # Small sizes: both alternatives clearly beat NVPL-72T.
        for size in (8, 16, 32, 64):
            assert nvpl_1.at(size) > 1.3 * nvpl_72.at(size)
            assert armpl.at(size) > 1.5 * nvpl_72.at(size)
        # By the top of this window the 72-thread build has caught up
        # with (or passed) the single-threaded one.
        assert nvpl_72.at(MAX_DIM) > 0.8 * nvpl_1.at(MAX_DIM)
