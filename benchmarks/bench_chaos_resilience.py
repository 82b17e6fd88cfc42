"""Chaos resilience — sweeps under a seeded fault plan stay trustworthy.

Runs the same LUMI sweep three ways: clean, under an aggressive seeded
fault plan with retries enabled, and chaos checkpointed-then-resumed
through the JSONL journal.  The fault plan mixes raising faults (kernel
failures, DMA errors) with hangs; the retry policy's per-sample deadline
converts hangs into timeouts, so every sample the chaos sweep *keeps*
carries clean timing and its surviving thresholds can be held against
the clean sweep.  Reports retry/quarantine counts and threshold
agreement under ``results/chaos_resilience/``.
"""

from __future__ import annotations

import tempfile
import warnings
from pathlib import Path

from harness import run_once, write_csv_rows, write_text
from repro.backends.simulated import AnalyticBackend
from repro.chaos import ChaosKind, ChaosPlan
from repro.core.config import RunConfig
from repro.core.runner import RetryPolicy, run_sweep
from repro.errors import PartialSweepWarning
from repro.faults import FaultInjector
from repro.systems.catalog import make_model
from repro.types import Precision

CFG = RunConfig(min_dim=1, max_dim=2048, iterations=8, step=16,
                precisions=(Precision.SINGLE,),
                problem_idents=("square",))
# Raising faults plus hangs; no ECC, so kept samples keep exact timings
# and surviving thresholds are comparable against the clean sweep.
PLAN = ChaosPlan(seed=2024, rates={
    ChaosKind.KERNEL: 0.25,
    ChaosKind.TRANSFER: 0.25,
    ChaosKind.HANG: 0.25,
}, hang_s=30.0)
RETRY = RetryPolicy(max_retries=3, sample_timeout_s=10.0)


def _chaos_backend():
    return FaultInjector(AnalyticBackend(make_model("lumi")), PLAN)


def _run_all():
    clean = run_sweep(AnalyticBackend(make_model("lumi")), CFG)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PartialSweepWarning)
        chaos = run_sweep(_chaos_backend(), CFG, retry=RETRY)
        with tempfile.TemporaryDirectory() as td:
            ck = Path(td) / "ck.jsonl"
            # journal a full run, then resume it — a maximal replay
            run_sweep(_chaos_backend(), CFG, retry=RETRY, checkpoint=ck)
            resumed = run_sweep(_chaos_backend(), CFG, retry=RETRY,
                                checkpoint=ck, resume=True)
    return clean, chaos, resumed


def test_chaos_resilience(benchmark):
    clean, chaos, resumed = run_once(benchmark, _run_all)

    # resume identity: the journaled replay equals the straight-through run
    assert resumed.series == chaos.series
    assert resumed.quarantine == chaos.quarantine

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PartialSweepWarning)
        clean_thr = clean.thresholds()
        chaos_thr = chaos.thresholds()
    step = CFG.step
    found = {k for k, v in chaos_thr.items() if v.found}
    agree = {
        k for k in found
        if clean_thr[k].found
        and abs(chaos_thr[k].dims.m - clean_thr[k].dims.m) <= 2 * step
    }

    cells = sum(len(s.all_samples()) for s in chaos.series)
    total = sum(len(s.all_samples()) for s in clean.series)
    print(
        f"\nchaos sweep: {cells}/{total} cells kept, "
        f"{len(chaos.quarantine)} quarantined, "
        f"{chaos.stats.retries} retries "
        f"({chaos.stats.backoff_s:.1f}s simulated backoff); "
        f"{len(agree)}/{len(found)} thresholds within {2 * step} of clean"
    )
    write_csv_rows("chaos_resilience", "summary.csv", [
        ["cells_kept", "cells_total", "quarantined", "retries",
         "backoff_s", "thresholds_found", "thresholds_agree"],
        [str(cells), str(total), str(len(chaos.quarantine)),
         str(chaos.stats.retries), f"{chaos.stats.backoff_s:.3f}",
         str(len(found)), str(len(agree))],
    ])
    write_csv_rows("chaos_resilience", "thresholds.csv", [
        ["blas", "ident", "transfer", "clean", "chaos"],
        *[
            [k[0], k[1], k[2].value, str(clean_thr[k]), str(chaos_thr[k])]
            for k in sorted(chaos_thr, key=lambda k: (k[0], k[1], k[2].value))
        ],
    ])
    write_text("chaos_resilience", "quarantine.txt", "\n".join(
        str(e) for e in chaos.quarantine
    ) or "(empty)")

    # chaos never crashes the sweep: every cell is kept or quarantined
    assert cells + len(chaos.quarantine) == total
    assert chaos.stats.retries > 0
    # the fault rate is high enough that some cells do get quarantined...
    assert chaos.quarantine
    # ...yet every surviving threshold stays faithful to the clean sweep
    assert found and agree == found
