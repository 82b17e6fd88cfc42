"""Ablation — discrete-event backend vs closed-form analytic backend.

The DES executes every measurement as explicit commands on simulated DMA
and compute engines; the analytic model sums closed-form costs.  They
must agree exactly (the harness is single-stream, so no overlap exists),
and this bench quantifies the simulation-speed price of the DES — the
reason full 1..4096 sweeps default to the analytic path.
"""

from __future__ import annotations

import time

from harness import run_once, write_csv_rows
from repro.backends.simulated import AnalyticBackend, DesBackend
from repro.core.config import RunConfig
from repro.core.runner import run_sweep
from repro.systems.catalog import make_model
from repro.types import Precision

CFG = RunConfig(min_dim=1, max_dim=256, iterations=8, step=4,
                precisions=(Precision.SINGLE,),
                problem_idents=("square",))


def _run_both():
    model = make_model("lumi")
    out = {}
    for name, backend in (("analytic", AnalyticBackend(model)),
                          ("des", DesBackend(model))):
        start = time.perf_counter()
        result = run_sweep(backend, CFG)
        out[name] = (time.perf_counter() - start, result)
    return out


def test_ablation_des_vs_analytic(benchmark):
    out = run_once(benchmark, _run_both)
    analytic_wall, analytic_run = out["analytic"]
    des_wall, des_run = out["des"]

    mismatches = 0
    total = 0
    worst = 0.0
    for series_a, series_d in zip(analytic_run.series, des_run.series):
        for sample_a, sample_d in zip(series_a.all_samples(), series_d.all_samples()):
            total += 1
            rel = abs(sample_a.seconds - sample_d.seconds) / sample_a.seconds
            worst = max(worst, rel)
            if rel > 1e-9:
                mismatches += 1

    slowdown = des_wall / analytic_wall
    print(f"\nDES vs analytic: {total} samples, worst relative "
          f"difference {worst:.2e}, DES harness cost {slowdown:.1f}x")
    write_csv_rows("ablation_des", "agreement.csv", [
        ["samples", "worst_rel_diff", "mismatches", "des_slowdown_x"],
        [str(total), f"{worst:.3e}", str(mismatches), f"{slowdown:.2f}"],
    ])

    assert mismatches == 0
    assert total > 500
