"""Real-host mode: the GPU-BLOB code path on this machine's actual CPU.

Runs a small sweep with genuine wall-clock timing of our NumPy kernels
(the paper's LUMI CPU-only workflow), pairs it with the simulated
Isambard GPU through the combined backend, and produces a real offload
threshold for this (host CPU, simulated GH200) pairing — demonstrating
that the benchmark logic is identical in real and simulated modes.
"""

from __future__ import annotations

from harness import run_once, write_csv_rows, write_text
from repro.analysis.graphs import performance_curves
from repro.backends.host import CombinedBackend, HostCpuBackend
from repro.backends.simulated import AnalyticBackend
from repro.core.config import RunConfig
from repro.core.csvio import write_run
from repro.core.runner import run_sweep
from repro.core.tables import run_summary
from repro.systems.catalog import make_model
from repro.types import Kernel, Precision

CFG = RunConfig(min_dim=16, max_dim=256, iterations=4, step=16,
                precisions=(Precision.SINGLE,), kernels=(Kernel.GEMM,),
                problem_idents=("square",))


def _run():
    backend = CombinedBackend(
        HostCpuBackend(), AnalyticBackend(make_model("isambard-ai"))
    )
    return run_sweep(backend, CFG, system_name="host+simulated-gh200")


def test_real_host_sweep(benchmark):
    result = run_once(benchmark, _run)
    (series,) = result.series

    summary = run_summary(result)
    print("\n" + summary)
    write_text("real_host", "summary.txt", summary)
    curves = performance_curves(series, title="Real host CPU vs simulated GH200")
    write_csv_rows("real_host", "curves.csv", curves.to_csv_rows())
    import harness

    write_run(result, harness.results_dir("real_host"))

    cpu = series.cpu.samples()
    # Real measurements: positive durations and checksums recorded.
    assert cpu and all(s.seconds > 0 for s in cpu)
    # Real NumPy GEMM on any host manages more than 1 GFLOP/s at size 256.
    assert cpu[-1].gflops > 1.0
