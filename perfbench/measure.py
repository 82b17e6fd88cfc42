"""Shared measurement helpers: fresh-start set-up timing, percentiles,
peak memory and the per-layer metric table."""

from __future__ import annotations

import resource
import time
from typing import Callable, Dict, List, Sequence

import numpy as np

from drift import DriftMeter, correct

#: Fresh starts per run behind ``setup_s`` (the median is reported):
#: one start is a single 0.2-0.4 s span that moved +-18% between runs.
SETUP_STARTS = 5


def timed_starts(meter: DriftMeter, start: Callable[[], object]) -> tuple:
    """Time SETUP_STARTS fresh starts, each bracketed by quanta.

    ``start()`` launches one fresh process and returns once it is ready
    (its own clean-up happens after the clock stops, through the
    ``finish`` callable it may return).  Returns (corrected, raw) lists.
    """
    fixed: List[float] = []
    raw: List[float] = []
    for _ in range(SETUP_STARTS):
        q0 = meter.measure()
        t0 = time.perf_counter()
        finish = start()
        elapsed = time.perf_counter() - t0
        if callable(finish):
            finish()
        q1 = meter.measure()
        raw.append(elapsed)
        fixed.append(correct(elapsed, (q0, q1)))
    return fixed, raw


def pct(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation)."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and every reaped child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


#: Every per-layer metric the traced run prints: name -> unit.  A layer
#: that does not run on a workload reports 0.
LAYER_UNITS: Dict[str, str] = {
    "systems.build_s": "s",
    "systems.builds": "count",
    "backends.simulated.eval_s": "s",
    "backends.simulated.cells": "count",
    "sim.noise.draw_s": "s",
    "sim.noise.keys": "count",
    "backends.des.sample_s": "s",
    "backends.des.cells": "count",
    "sim.engine.run_s": "s",
    "sim.engine.runs": "count",
    "sim.engine.commands": "count",
    "core.invariants.guard_s": "s",
    "core.invariants.cells": "count",
    "core.runner.sweep_s": "s",
    "core.runner.self_s": "s",
    "core.runner.sweeps": "count",
    "core.runner.cells": "count",
    "core.runner.retries": "count",
    "core.threshold.scan_s": "s",
    "core.threshold.scans": "count",
    "core.sweepcache.store_s": "s",
    "core.sweepcache.stores": "count",
    "core.sweepcache.store_bytes": "bytes",
    "core.sweepcache.load_s": "s",
    "core.sweepcache.hits": "count",
    "core.sweepcache.misses": "count",
    "core.sweepcache.hit_ratio": "ratio",
    "core.csvio.write_s": "s",
    "core.csvio.bytes": "bytes",
    "core.csvio.files": "count",
    "core.campaign.run_self_s": "s",
    "core.campaign.report_self_s": "s",
    "core.workerpool.shards": "count",
    "core.workerpool.shm_bytes": "bytes",
    "core.workerpool.pickle_fallbacks": "count",
    "core.workerpool.spawns": "count",
    "core.workerpool.busy_ratio": "ratio",
    "serve.httpd.read_s": "s",
    "serve.httpd.render_s": "s",
    "serve.httpd.requests": "count",
    "serve.httpd.bytes_out": "bytes",
    "serve.jobs.wait_s": "s",
    "serve.jobs.jobs": "count",
    "serve.jobs.coalesced": "count",
    "serve.wal.append_s": "s",
    "serve.wal.appends": "count",
    "serve.wal.errors": "count",
    "serve.service.handle_s": "s",
    "serve.service.server_p50_ms": "ms",
    "serve.service.sweeps_executed": "count",
    "serve.service.rejected": "count",
    "serve.service.hit_rate": "ratio",
    "machine.ref_ms": "ms",
    "trace.overhead_pct": "%",
}


def core_layers(agg, scale: float = 1.0) -> Dict[str, float]:
    """Per-layer metrics of the model, sweep, cache and report layers
    from tracer aggregates, each multiplied by ``scale``."""
    g = lambda layer, key: agg.get((layer, key), 0.0) * scale  # noqa: E731
    hits = g("core.sweepcache.load", "hits")
    misses = g("core.sweepcache.load", "misses")
    return {
        "systems.build_s": g("systems", "time"),
        "systems.builds": g("systems", "builds"),
        "backends.simulated.eval_s": g("backends.simulated", "time"),
        "backends.simulated.cells": g("backends.simulated", "cells"),
        "sim.noise.draw_s": g("sim.noise", "time"),
        "sim.noise.keys": g("sim.noise", "keys"),
        "backends.des.sample_s": g("backends.des", "time"),
        "backends.des.cells": g("backends.des", "cells"),
        "sim.engine.run_s": g("sim.engine", "time"),
        "sim.engine.runs": g("sim.engine", "runs"),
        "sim.engine.commands": g("sim.engine", "commands"),
        "core.invariants.guard_s": g("core.invariants", "time"),
        "core.invariants.cells": g("core.invariants", "cells"),
        "core.runner.sweep_s": g("core.runner", "time"),
        "core.runner.self_s": g("core.runner", "self"),
        "core.runner.sweeps": g("core.runner", "sweeps"),
        "core.runner.cells": g("core.runner", "cells"),
        "core.runner.retries": g("core.runner", "retries"),
        "core.threshold.scan_s": g("core.threshold", "time"),
        "core.threshold.scans": g("core.threshold", "scans"),
        "core.sweepcache.store_s": g("core.sweepcache.store", "time"),
        "core.sweepcache.stores": g("core.sweepcache.store", "stores"),
        "core.sweepcache.store_bytes": g("core.sweepcache.store",
                                         "store_bytes"),
        "core.sweepcache.load_s": g("core.sweepcache.load", "time"),
        "core.sweepcache.hits": hits,
        "core.sweepcache.misses": misses,
        "core.sweepcache.hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "core.csvio.write_s": g("core.csvio", "time"),
        "core.csvio.bytes": g("core.csvio", "bytes"),
        "core.csvio.files": g("core.csvio", "files"),
        "core.campaign.run_self_s": g("core.campaign.run", "self"),
        "core.campaign.report_self_s": g("core.campaign.report", "self"),
    }


def layer_table(values: Dict[str, float]) -> Dict[str, dict]:
    """Every per-layer metric with its unit; absent layers read 0."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in LAYER_UNITS.items()
    }
