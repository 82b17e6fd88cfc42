"""Traced-run plumbing: spans around the calls into each ``repro`` layer.

Nothing here changes the program's code.  :func:`install_core` and
:func:`install_serve` replace public functions and methods *where their
callers look them up* with thin wrappers that record a span (name,
layer, start, end, parent span, request id) and count the work passed
through:

* module-level functions are patched on the module that calls them
  (``guard_samples`` as bound in ``repro.core.runner``, say), or on
  their own module when callers import them at call time
  (``store_run``, ``write_run``, ``make_model``);
* backend and engine methods are patched on the class itself.  A proxy
  or subclass would fail the runner's ``_batch_trustworthy`` test and
  silently drop the sweep to the per-cell path.

Spans are kept in memory and written out by :meth:`Tracer.dump` when
the run ends.  A span's *self* time is its duration minus the time its
direct child spans cover; a layer's time counts only spans whose parent
belongs to another layer, so nested calls within one layer (``make_model``
calling ``resolve_system``) are not counted twice.

Fork-started pool workers inherit the wrappers.  A worker keeps only
aggregates (no span records) and writes them to ``agg-<pid>.json`` in
the trace directory when :meth:`Tracer.flush_workers` asks it to.  The
flush is a pool task, not an exit hook: a warm-pool worker asked to
leave gracefully runs the thread-exit hook ``repro.core.workerpool``
registered before the fork, blocks, and never exits (clearing that hook
in the child lets it exit) -- so the pool is always stopped with
``workerpool.shutdown_all()``, which kills its workers.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import multiprocessing
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Optional

#: Request id of the HTTP request being served; spans inherit it.
REQUEST_ID: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request_id", default=None
)


class Tracer:
    """Span recorder plus per-layer aggregates for one process tree."""

    def __init__(self, out_dir) -> None:
        self.out_dir = Path(out_dir)
        self.owner_pid = os.getpid()
        self.active = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self.spans: list = []
        #: (layer, key) -> accumulated value; key "time" is layer time,
        #: "self" layer self time, anything else a count
        self.agg: Dict[tuple, float] = defaultdict(float)
        #: per-name durations (for percentiles of async spans)
        self.durations: Dict[str, list] = defaultdict(list)

    # -- process bookkeeping ------------------------------------------

    def _in_worker(self) -> bool:
        """Whether this is a forked pool worker.  A worker starts with a
        copy of the parent's state, which is dropped on first use."""
        pid = os.getpid()
        if pid == self.owner_pid:
            return False
        if getattr(self, "_worker_pid", None) != pid:
            self._worker_pid = pid
            self._local = threading.local()
            self._lock = threading.Lock()
            self._reset()
        return True

    def prepare_workers(self, workers: int) -> None:
        """Call before a pool of ``workers`` forks: the workers inherit
        the barrier :func:`flush_workers` meets them at."""
        global _FORKED
        _FORKED = self
        self._barrier = multiprocessing.get_context("fork").Barrier(workers)

    def flush_workers(self, pool, workers: int) -> int:
        """Have every worker of ``pool`` write its aggregates, then fold
        them into this process's.  Each flush task waits at a barrier
        of ``workers`` parties, so no worker can run two of them."""
        for future in [pool.submit(_flush_task) for _ in range(workers)]:
            future.result(timeout=60)
        files = sorted(self.out_dir.glob("agg-*.json"))
        for path in files:
            for layer, key, value in json.loads(path.read_text()):
                self.agg[(layer, key)] += value
            path.unlink()
        return len(files)

    # -- spans ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, layer: str, key: str, value: float = 1) -> None:
        self._in_worker()
        with self._lock:
            self.agg[(layer, key)] += value

    def call(self, name: str, layer: str, fn, args, kwargs, counter=None):
        """Run ``fn`` inside a synchronous span."""
        worker = self._in_worker()
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        frame = [layer, 0.0, sid]  # time covered by direct children
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        dur = end - start
        with self._lock:
            if parent is not None:
                parent[1] += dur
            if parent is None or parent[0] != layer:
                self.agg[(layer, "time")] += dur
            self.agg[(layer, "self")] += dur - frame[1]
            self.agg[(name, "calls")] += 1
            if not worker:
                self.spans.append((
                    sid, name, layer, start, end,
                    parent[2] if parent else None, REQUEST_ID.get(),
                ))
        if counter is not None:
            for key, value in counter(args, kwargs, result, dur):
                self.count(layer, key, value)
        return result

    def record(self, name: str, layer: str, start: float, end: float) -> None:
        """A span measured by the caller (async code, queue waits)."""
        with self._lock:
            self.agg[(layer, "time")] += end - start
            self.agg[(name, "calls")] += 1
            self.durations[name].append(end - start)
            self.spans.append((
                next(self._ids), name, layer, start, end, None,
                REQUEST_ID.get(),
            ))

    def get(self, layer: str, key: str) -> float:
        return self.agg.get((layer, key), 0.0)

    # -- output ---------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans (JSON lines) and the aggregates."""
        path = Path(path)
        with path.open("w") as fh:
            for sid, name, layer, start, end, parent, rid in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "layer": layer, "start": start,
                    "end": end, "parent": parent, "request": rid,
                }) + "\n")
        rows = [[layer, key, value] for (layer, key), value in self.agg.items()]
        durations = {k: v for k, v in self.durations.items()}
        path.with_suffix(".agg.json").write_text(
            json.dumps({"agg": rows, "durations": durations})
        )


#: the tracer whose pool workers :func:`_flush_task` runs in
_FORKED: Optional[Tracer] = None


def _flush_task() -> None:
    tracer = _FORKED
    tracer._barrier.wait(timeout=30)
    tracer._in_worker()
    rows = [[layer, key, value] for (layer, key), value in tracer.agg.items()]
    (tracer.out_dir / f"agg-{os.getpid()}.json").write_text(json.dumps(rows))


def load_aggregates(path) -> tuple:
    """Read what :meth:`Tracer.dump` wrote: (aggregates, durations)."""
    data = json.loads(Path(path).with_suffix(".agg.json").read_text())
    agg: Dict[tuple, float] = defaultdict(float)
    for layer, key, value in data["agg"]:
        agg[(layer, key)] += value
    return agg, data["durations"]


# -- wrapper installation ----------------------------------------------


def _wrap(tracer: Tracer, owner, attr: str, name: str, layer: str,
          counter: Optional[Callable] = None) -> None:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        return tracer.call(name, layer, fn, args, kwargs, counter)

    setattr(owner, attr, wrapper)


def _len_arg(index: int, key: str):
    return lambda args, kwargs, result, dur: ((key, len(args[index])),)


def _sweep_counter(args, kwargs, result, dur):
    stats = result.stats
    out = [
        ("sweeps", 1),
        ("retries", stats.retries + stats.worker_retries
         + stats.inprocess_shards),
    ]
    if not result.cache_hit:
        out.append(("cells", sum(len(s.all_samples()) for s in result.series)))
    if kwargs.get("jobs", 1) > 1:
        out.append(("pooled_s", dur))
    return out


def _store_counter(args, kwargs, path, dur):
    if path is None:
        return ()
    return (("stores", 1), ("store_bytes", os.path.getsize(path)))


def _load_counter(args, kwargs, result, dur):
    return (("hits", 1),) if result is not None else (("misses", 1),)


def _write_counter(args, kwargs, paths, dur):
    return (
        ("files", len(paths)),
        ("bytes", sum(os.path.getsize(p) for p in paths)),
    )


def _engine_counter(args, kwargs, makespan, dur):
    return (("runs", 1), ("commands", len(args[0].trace)))


def install_core(tracer: Tracer) -> None:
    """Wrap the model, sweep, cache and report layers (every workload)."""
    from repro.backends import des, simulated
    from repro.core import campaign, csvio, runner, sweepcache, tables
    from repro.sim import engine, noise
    from repro.systems import catalog

    _wrap(tracer, catalog, "make_model", "systems.make_model", "systems",
          lambda a, k, r, d: (("builds", 1),))
    _wrap(tracer, catalog, "resolve_system", "systems.resolve_system",
          "systems")
    for method in ("cpu_sample_batch", "gpu_sample_batch"):
        _wrap(tracer, simulated.AnalyticBackend, method,
              f"backends.simulated.{method}", "backends.simulated",
              _len_arg(2, "cells"))
    _wrap(tracer, noise.DeterministicNoise, "factor_batch",
          "sim.noise.factor_batch", "sim.noise", _len_arg(1, "keys"))
    for method in ("cpu_sample", "gpu_sample"):
        _wrap(tracer, des.DesBackend, method, f"backends.des.{method}",
              "backends.des", lambda a, k, r, d: (("cells", 1),))
    _wrap(tracer, engine.EventEngine, "run", "sim.engine.run", "sim.engine",
          _engine_counter)
    _wrap(tracer, runner, "guard_samples", "core.invariants.guard_samples",
          "core.invariants", _len_arg(0, "cells"))
    for module in (runner, campaign, tables):
        _wrap(tracer, module, "threshold_for_series",
              "core.threshold.threshold_for_series", "core.threshold",
              lambda a, k, r, d: (("scans", 1),))
    _wrap(tracer, campaign, "run_sweep", "core.runner.run_sweep",
          "core.runner", _sweep_counter)
    _wrap(tracer, sweepcache, "store_run", "core.sweepcache.store_run",
          "core.sweepcache.store", _store_counter)
    _wrap(tracer, sweepcache, "load_cached_run",
          "core.sweepcache.load_cached_run", "core.sweepcache.load",
          _load_counter)
    _wrap(tracer, csvio, "write_run", "core.csvio.write_run", "core.csvio",
          _write_counter)
    _wrap(tracer, campaign, "run_campaign", "core.campaign.run_campaign",
          "core.campaign.run")
    _wrap(tracer, campaign, "write_report", "core.campaign.write_report",
          "core.campaign.report")


class _TimedReader:
    """Stream proxy noting when a request head has arrived, so the
    parse time excludes the keep-alive wait for the next request."""

    def __init__(self, reader) -> None:
        self._reader = reader
        self.head_at: Optional[float] = None

    async def readuntil(self, separator=b"\n"):
        data = await self._reader.readuntil(separator)
        self.head_at = time.perf_counter()
        return data

    async def readexactly(self, n):
        return await self._reader.readexactly(n)


def _context_executor():
    """A thread pool that runs each call in the submitting task's
    context, carrying the request id across ``run_in_executor``."""
    import concurrent.futures

    class ContextExecutor(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            ctx = contextvars.copy_context()
            return super().submit(ctx.run, fn, *args, **kwargs)

    return ContextExecutor(thread_name_prefix="asyncio")


def install_serve(tracer: Tracer) -> None:
    """Wrap the daemon's HTTP, queue, journal and service layers too."""
    import asyncio

    from repro.serve import httpd, jobs, service, wal

    install_core(tracer)
    _wrap(tracer, service, "run_sweep", "core.runner.run_sweep",
          "core.runner", _sweep_counter)
    _wrap(tracer, service, "threshold_for_series",
          "core.threshold.threshold_for_series", "core.threshold",
          lambda a, k, r, d: (("scans", 1),))
    for method in ("append_accept", "mark_complete"):
        _wrap(tracer, wal.WriteAheadLog, method, f"serve.wal.{method}",
              "serve.wal", lambda a, k, r, d: (("appends", 1),))
    _wrap(tracer, httpd, "render_response", "serve.httpd.render_response",
          "serve.httpd.render", lambda a, k, r, d: (("bytes_out", len(r)),))

    read_request = httpd.read_request

    ids = itertools.count(1)

    async def traced_read_request(reader, *args, **kwargs):
        REQUEST_ID.set(next(ids))
        timed = _TimedReader(reader)
        request = await read_request(timed, *args, **kwargs)
        if request is not None and timed.head_at is not None:
            tracer.record("serve.httpd.read_request", "serve.httpd.read",
                          timed.head_at, time.perf_counter())
        return request

    httpd.read_request = traced_read_request

    handle = service.ThresholdService.handle

    async def traced_handle(self, request):
        start = time.perf_counter()
        response = await handle(self, request)
        name = ("serve.service.threshold" if request.path == "/v1/threshold"
                else "serve.service.other")
        tracer.record(name, "serve.service", start, time.perf_counter())
        return response

    service.ThresholdService.handle = traced_handle

    submit = jobs.JobQueue.submit
    executors: set = set()

    def traced_submit(self, key, thunk):
        submitted = time.perf_counter()
        rid = REQUEST_ID.get()

        async def timed_thunk():
            tracer.record("serve.jobs.wait", "serve.jobs", submitted,
                          time.perf_counter())
            loop = asyncio.get_running_loop()
            if loop not in executors:
                loop.set_default_executor(_context_executor())
                executors.add(loop)
            REQUEST_ID.set(rid)
            return await thunk()

        future, coalesced = submit(self, key, timed_thunk)
        tracer.count("serve.jobs", "coalesced" if coalesced else "jobs")
        return future, coalesced

    jobs.JobQueue.submit = traced_submit
