"""Sweep-executor throughput: per-cell vs vectorized vs pool vs cache.

Times the Table III configuration (square GEMM and GEMV on dawn, the
full 1-4096 range at stride 8, both precisions, all three transfer
paradigms) through the execution strategies of
:func:`repro.core.runner.run_sweep` and reports cells/second for each.
The per-cell loop prices every cell as a batch of one; the vectorized
path prices each (device, transfer) column in one call.  Two kernels x
two precisions give the parallel executor four shards to spread over
the warm worker pool; each worker runs the vectorized path internally,
so the ``vectorized+jobs=N`` rows measure the combined stack (warm-pool
dispatch + shared-memory results + batched kernels) against the
in-process vectorized path.  All strategies produce bit-identical
series — asserted here on every run — so the numbers compare pure
executor overhead.  The cache rows time storing the vectorized result
in the content-addressed sweep cache and replaying it through
``run_sweep(..., cache_dir=...)``: a hit only pays when it costs less
than the recompute it replaces.

Analytic work is too cheap to pay for the pool's dispatch.  The DES
rows time the work the pool is for: a discrete-event sweep (dawn, 128
iterations, square GEMM and GEMV, both precisions, 1-4096 at stride
64) in process and on the warm pool at jobs=2.

Writes ``results/BENCH_sweep_throughput.json``.  Runnable standalone::

    PYTHONPATH=src:benchmarks python benchmarks/bench_sweep_throughput.py
    PYTHONPATH=src:benchmarks python benchmarks/bench_sweep_throughput.py --check

``--check`` exits non-zero unless the vectorized path clears
``SPEEDUP_FLOOR`` x the per-cell cells/s, the DES sweep at jobs=2 clears
``DES_POOL_FLOOR`` x the same sweep in process, AND a cache hit costs
no more than one vectorized recompute (the CI perf-smoke gates).
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

from harness import RESULTS_DIR, backend_for, run_once
from repro.backends import make_backend
from repro.core import workerpool
from repro.core.config import RunConfig
from repro.core.runner import run_sweep
from repro.core.sweepcache import store_run
from repro.types import Kernel

SYSTEM = "dawn"
#: vectorized over per-cell cells/s: below every one of the 7 runs
#: measured on a 2-vCPU container when it was set (19.0-35.0x, median
#: 22.5x) and at least half their median
SPEEDUP_FLOOR = 12.0
PARALLEL_JOBS = (2, 4)
#: DES at jobs=2 over DES in process: above 1 (the pool must pay for
#: itself on the work it exists for) and below every one of the same 7
#: runs (1.61-2.04x, median 1.79x)
DES_POOL_FLOOR = 1.25
DES_JOBS = 2
#: a cache hit may cost at most this many vectorized recomputes
HIT_CEILING = 1.0
#: timing repeats per strategy (after one untimed warmup); best-of wins
ROUNDS = 3
#: repeats of the cache rows and the recompute they are compared with:
#: both take tens of ms, so more rounds steady the gated ratio
CACHE_ROUNDS = 10


class _ScalarOnly:
    """Proxy hiding a backend's batch entry points, forcing the
    per-cell reference path through the runner."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        if name.endswith("_batch"):
            raise AttributeError(name)
        return getattr(self._inner, name)

    @property
    def gpu_transfers(self):
        return self._inner.gpu_transfers

    @property
    def has_gpu(self):
        return self._inner.has_gpu


def _table3_config() -> RunConfig:
    return RunConfig(
        min_dim=1,
        max_dim=4096,
        step=8,
        iterations=8,
        kernels=(Kernel.GEMM, Kernel.GEMV),
        problem_idents=("square",),
    )


def _des_config() -> RunConfig:
    return RunConfig(
        min_dim=1,
        max_dim=4096,
        step=64,
        iterations=128,
        kernels=(Kernel.GEMM, Kernel.GEMV),
        problem_idents=("square",),
    )


def _cell_count(result) -> int:
    return sum(len(series.all_samples()) for series in result.series)


def measure() -> dict:
    config = _table3_config()
    backend = backend_for(SYSTEM)

    def timed(run, rounds=ROUNDS):
        """Best wall time of ``rounds`` repeats after one warmup: the
        sweep is deterministic, so the minimum is the least-noisy
        estimate of its cost.  The warmup also spawns the warm worker
        pool, so the timed parallel rounds measure steady-state reuse
        — exactly what campaigns and the serving daemon see."""
        result = run()
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            result = run()
            best = min(best, time.perf_counter() - t0)
        return result, best

    serial_result, serial_s = timed(
        lambda: run_sweep(_ScalarOnly(backend), config, SYSTEM)
    )
    vector_result, vector_s = timed(
        lambda: run_sweep(backend, config, SYSTEM)
    )
    assert vector_result.series == serial_result.series, (
        "vectorized sweep diverged from the per-cell sweep"
    )

    cells = _cell_count(serial_result)
    with tempfile.TemporaryDirectory() as cache_dir:
        entry, store_s = timed(
            lambda: store_run(cache_dir, backend, vector_result),
            CACHE_ROUNDS,
        )
        entry_bytes = Path(entry).stat().st_size
        hit_result, hit_s = timed(
            lambda: run_sweep(backend, config, SYSTEM, cache_dir=cache_dir),
            CACHE_ROUNDS,
        )
    # the recompute a hit replaces, timed right after it the same way
    _, recompute_s = timed(
        lambda: run_sweep(backend, config, SYSTEM), CACHE_ROUNDS
    )
    assert hit_result.cache_hit, "the cache-hit row did not hit"
    assert hit_result.series == serial_result.series, (
        "cache replay diverged from the per-cell sweep"
    )

    scaling = []
    for jobs in PARALLEL_JOBS:
        workerpool.shutdown_all()
        workerpool.reset_stats()
        par_result, par_s = timed(
            lambda jobs=jobs: run_sweep(backend, config, SYSTEM, jobs=jobs)
        )
        pool = workerpool.pool_stats()
        assert par_result.series == serial_result.series, (
            f"jobs={jobs} sweep diverged from the per-cell sweep"
        )
        scaling.append({
            "mode": f"vectorized+jobs={jobs}",
            "jobs": jobs,
            "seconds": par_s,
            "cells_per_s": cells / par_s,
            "speedup_vs_vectorized": vector_s / par_s,
            # warm-pool telemetry over the 1 warmup + ROUNDS timed
            # sweeps: one spawn, the rest reuse, zero pickle fallbacks
            "pool_warm_reuse": pool["reuses"],
            "pool_spawns": pool["spawns"],
            "shard_bytes_transferred": pool["shm_bytes"],
            "pickle_fallbacks": pool["pickle_fallbacks"],
        })

    des_config = _des_config()
    des_backend = make_backend("des", system=SYSTEM)
    workerpool.shutdown_all()
    des_serial, des_serial_s = timed(
        lambda: run_sweep(des_backend, des_config, SYSTEM)
    )
    des_pool, des_pool_s = timed(
        lambda: run_sweep(des_backend, des_config, SYSTEM, jobs=DES_JOBS)
    )
    workerpool.shutdown_all()
    assert des_pool.series == des_serial.series, (
        f"DES jobs={DES_JOBS} sweep diverged from the in-process DES sweep"
    )

    return {
        "config": {
            "system": SYSTEM,
            "problem": "gemm:square+gemv:square",
            "min_dim": config.min_dim,
            "max_dim": config.max_dim,
            "step": config.step,
            "iterations": config.iterations,
            "cells": cells,
        },
        "serial": {"seconds": serial_s, "cells_per_s": cells / serial_s},
        "vectorized": {
            "seconds": vector_s,
            "cells_per_s": cells / vector_s,
            "speedup_vs_serial": serial_s / vector_s,
        },
        "parallel": scaling,
        "des": {
            "problem": "gemm:square+gemv:square",
            "min_dim": des_config.min_dim,
            "max_dim": des_config.max_dim,
            "step": des_config.step,
            "iterations": des_config.iterations,
            "cells": _cell_count(des_serial),
            "in_process_seconds": des_serial_s,
            "jobs": DES_JOBS,
            "pool_seconds": des_pool_s,
            "pool_speedup": des_serial_s / des_pool_s,
        },
        "cache": {
            "entry_bytes": entry_bytes,
            "store_seconds": store_s,
            "hit_seconds": hit_s,
            "recompute_seconds": recompute_s,
            "hit_vs_recompute": hit_s / recompute_s,
        },
    }


def report(data: dict) -> str:
    lines = [
        f"sweep throughput — {data['config']['system']} "
        f"{data['config']['problem']}, {data['config']['cells']} cells",
        f"  per-cell           : {data['serial']['cells_per_s']:10.0f} cells/s",
        f"  vectorized         : "
        f"{data['vectorized']['cells_per_s']:10.0f} cells/s"
        f"  ({data['vectorized']['speedup_vs_serial']:.1f}x)",
    ]
    for row in data["parallel"]:
        lines.append(
            f"  {row['mode']:<19}: {row['cells_per_s']:10.0f} cells/s"
            f"  ({row['speedup_vs_vectorized']:.2f}x vectorized, "
            f"{row['pool_warm_reuse']} warm reuse(s), "
            f"{row['shard_bytes_transferred']} shm bytes)"
        )
    cache = data["cache"]
    des = data["des"]
    lines += [
        f"  DES in process     : {des['in_process_seconds']:10.2f} s"
        f"  ({des['cells']} cells, {des['iterations']} iterations)",
        f"  DES jobs={des['jobs']:<10}: {des['pool_seconds']:10.2f} s"
        f"  ({des['pool_speedup']:.2f}x in process)",
        f"  cache store        : {cache['store_seconds'] * 1e3:10.1f} ms"
        f"  ({cache['entry_bytes']} bytes)",
        f"  cache hit          : {cache['hit_seconds'] * 1e3:10.1f} ms"
        f"  ({cache['hit_vs_recompute']:.2f}x a vectorized recompute)",
    ]
    return "\n".join(lines)


def write_json(data: dict) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "BENCH_sweep_throughput.json"
    path.write_text(json.dumps(data, indent=2) + "\n")


def test_sweep_throughput(benchmark):
    data = run_once(benchmark, measure)
    write_json(data)
    print("\n" + report(data))
    assert data["vectorized"]["speedup_vs_serial"] >= SPEEDUP_FLOOR
    assert data["des"]["pool_speedup"] >= DES_POOL_FLOOR
    assert data["cache"]["hit_vs_recompute"] <= HIT_CEILING


def main(argv=None) -> int:
    check = "--check" in (argv if argv is not None else sys.argv[1:])
    data = measure()
    write_json(data)
    print(report(data))
    failed = False
    speedup = data["vectorized"]["speedup_vs_serial"]
    if check and speedup < SPEEDUP_FLOOR:
        print(
            f"FAIL: vectorized speedup {speedup:.1f}x is below the "
            f"{SPEEDUP_FLOOR:.1f}x floor",
            file=sys.stderr,
        )
        failed = True
    pool = data["des"]["pool_speedup"]
    if check and pool < DES_POOL_FLOOR:
        print(
            f"FAIL: the DES sweep at jobs={DES_JOBS} runs {pool:.2f}x the "
            f"in-process DES sweep, below the {DES_POOL_FLOOR:.2f}x floor",
            file=sys.stderr,
        )
        failed = True
    hit = data["cache"]["hit_vs_recompute"]
    if check and hit > HIT_CEILING:
        print(
            f"FAIL: a cache hit costs {hit:.2f}x a vectorized recompute, "
            f"above the {HIT_CEILING:.1f}x ceiling",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
