"""The two campaign workloads: ``tables-cold`` and ``des-campaign``.

Both drive the public campaign API exactly as ``gpu-blob campaign``
does -- ``load_campaign``, ``run_campaign``, ``write_report`` -- in
this process, with a fresh sweep-cache and report directory for every
campaign ("rep").  A run repeats the campaign until its time is used.

Drift correction is dense: a quantum is measured before every scenario
(through ``run_campaign(log=...)``), before every sweep-cache store,
before every per-scenario CSV write inside ``write_report`` and after
the report, so no corrected segment spans more than one operation.

Before timing, one small campaign of the same matrix (dims up to 64)
runs untimed, so lazy imports and first-use set-up are paid once
instead of inflating the first timed campaign.
"""

from __future__ import annotations

import dataclasses
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import List

from drift import DriftMeter, Segments, child_pids
from inputs import des_campaign_toml, tables_cold_toml
from measure import core_layers, pct, peak_rss_mb, timed_starts
from tracer import Tracer, install_core

#: Series re-run on the per-cell reference path by the tables-cold check.
SCALAR_CHECK_SERIES = 8


def _is_tracker(pid: int) -> bool:
    """Whether ``pid`` is a multiprocessing resource tracker; this
    process's own one lives until :func:`stop_resource_tracker`."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return b"resource_tracker" in fh.read()
    except OSError:
        return False


def stop_resource_tracker() -> None:
    """Stop and reap the resource tracker this process started when it
    first attached a shared-memory shard result."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and has not ended (zombies have ended)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class _ScalarOnly:
    """Proxy hiding a backend's batch entry points, which forces the
    runner onto its per-cell reference path."""

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


@dataclasses.dataclass
class Rep:
    cells: int
    raw_s: float
    fixed_s: float
    scenarios: int
    bad_scenarios: int
    rows: list


class CampaignBench:
    def __init__(self, ctx, kind: str) -> None:
        self.ctx = ctx
        self.jobs = 2 if kind == "des-campaign" else 1
        make_toml = des_campaign_toml if self.jobs > 1 else tables_cold_toml
        self.spec_path = ctx.state / "campaign.toml"
        self.spec_path.write_text(make_toml(ctx.seed))
        self.warm_path = ctx.state / "warm-up.toml"
        self.warm_path.write_text(make_toml(ctx.seed, max_dim=64))
        # the pool spreads des-campaign over every CPU; tables-cold runs
        # on one thread, tracked best by a quantum on its own CPU
        self.meter = DriftMeter(watch=child_pids, every_cpu=self.jobs > 1)
        self.tracer = None
        self.reps: List[Rep] = []
        #: the latest campaign's result; earlier ones are dropped so
        #: each campaign starts from the same heap
        self.last_result = None

    # -- set-up ---------------------------------------------------------

    def _probe(self):
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("probe.py")),
             str(self.ctx.src), str(self.spec_path), str(self.jobs)],
            stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        if line.strip() != "ready":
            proc.wait()
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")

        def finish():
            proc.stdout.close()
            if proc.wait(timeout=60) != 0:
                raise RuntimeError(f"set-up probe exited {proc.returncode}")

        return finish

    def _warm_pool(self) -> None:
        from repro.core import workerpool

        pool = workerpool.get_pool(self.jobs)
        for future in [pool.submit(abs, -i) for i in range(self.jobs)]:
            future.result()

    def _stop_pool(self) -> None:
        """Kill the warm pool, as the program does at exit, and wait
        until its workers and their resource trackers have ended."""
        from repro.core import workerpool

        workers = [p for p in child_pids() if not _is_tracker(p)]
        procs = workers + [p for w in workers for p in child_pids(w)]
        workerpool.shutdown_all()
        deadline = time.monotonic() + 30
        while any(_running(p) for p in procs):
            if time.monotonic() > deadline:
                raise RuntimeError(f"pool processes {procs} did not end")
            time.sleep(0.01)

    # -- one campaign ---------------------------------------------------

    def warm_up(self) -> None:
        from repro.core import campaign

        spec = campaign.load_campaign(self.warm_path)
        out = self.ctx.state / "warm-up"
        result = campaign.run_campaign(spec, cache_dir=out / "cache")
        campaign.write_report(result, out / "report")
        shutil.rmtree(out)

    def rep(self) -> Rep:
        from repro.core import campaign, csvio, sweepcache

        rep_dir = self.ctx.state / f"rep{len(self.reps)}"
        self.last_result = None
        spec = campaign.load_campaign(self.spec_path)
        seg = Segments(self.meter)
        mark = seg.mark
        if self.tracer is not None:
            tracer = self.tracer
            mark = lambda *a: tracer.call(  # noqa: E731
                "drift.quantum", "drift", seg.mark, (), {})
        write_run, store_run = csvio.write_run, sweepcache.store_run

        def marked(fn):
            def call(*args, **kwargs):
                mark()
                return fn(*args, **kwargs)
            return call

        csvio.write_run = marked(write_run)
        sweepcache.store_run = marked(store_run)
        try:
            result = campaign.run_campaign(
                spec, cache_dir=rep_dir / "cache", log=lambda _msg: mark()
            )
            campaign.write_report(result, rep_dir / "out")
            seg.mark()
        finally:
            csvio.write_run, sweepcache.store_run = write_run, store_run
        runs = result.results
        bad = sum(
            1 for r in runs if r is None or not r.complete or r.degraded
        )
        cells = sum(
            len(s.all_samples()) for r in runs if r is not None
            for s in r.series
        )
        if self.tracer is not None:
            self.tracer.active = False
        rep = Rep(cells, seg.raw_s, seg.fixed_s, len(runs), bad,
                  result.rows())
        if self.tracer is not None:
            self.tracer.active = True
        self.last_result = result
        shutil.rmtree(rep_dir)
        self.reps.append(rep)
        return rep

    def run_reps(self, seconds: float) -> List[Rep]:
        """Campaigns until ``seconds`` of timed phase are used (at least
        one): another starts only if it should end inside the budget."""
        reps: List[Rep] = []
        spent = 0.0
        while True:
            reps.append(self.rep())
            spent += reps[-1].raw_s
            if spent + spent / len(reps) > seconds:
                return reps

    # -- output checks (untimed) -----------------------------------------

    def check_scalar(self, result) -> List[str]:
        """Re-run a seeded sample of series on the per-cell reference
        path; each must match the campaign's series bit for bit."""
        from repro.backends import AnalyticBackend
        from repro.core.runner import run_sweep
        from repro.systems.catalog import make_model

        picks = [
            (scenario, run, series)
            for scenario, run in zip(result.scenarios, result.results)
            for series in run.series
        ]
        rng = random.Random(self.ctx.seed)
        errors = []
        for scenario, run, series in rng.sample(picks, SCALAR_CHECK_SERIES):
            config = dataclasses.replace(
                scenario.config,
                kernels=(series.kernel,),
                problem_idents=(series.ident,),
                precisions=(series.precision,),
            )
            backend = _ScalarOnly(AnalyticBackend(make_model(run.system_name)))
            ref = run_sweep(backend, config, run.system_name)
            if ref.series != [series]:
                errors.append(
                    f"{run.system_name} i={scenario.iterations} "
                    f"{series.kernel.value}/{series.ident}/"
                    f"{series.precision.value}: vectorized series differs "
                    "from the per-cell reference"
                )
        return errors

    def check_des(self, rows) -> List[str]:
        """The DES report must carry the analytic backend's thresholds
        for the same matrix."""
        from repro.core import campaign

        spec = campaign.load_campaign(self.spec_path)
        ref = campaign.run_campaign(spec, backend="analytic", jobs=1).rows()
        if rows == ref:
            return []
        moved = sum(1 for a, b in zip(rows, ref) if a != b)
        return [f"DES report differs from the analytic one in {moved} "
                f"of {len(ref)} row(s)"]


def run(ctx, kind: str) -> dict:
    """Run one campaign workload; returns the result fields."""
    from repro.core import campaign, workerpool
    from repro.systems.catalog import resolve_system

    bench = CampaignBench(ctx, kind)
    setup_fixed, setup_raw = timed_starts(bench.meter, bench._probe)
    for system in campaign.load_campaign(bench.spec_path).systems:
        resolve_system(system)
    notes: List[str] = []
    layers = {}
    try:
        if bench.jobs > 1:
            bench._warm_pool()
        bench.warm_up()
        if ctx.trace:
            untraced = bench.run_reps(0)
            bench._stop_pool()
            bench.tracer = Tracer(ctx.state)
            install_core(bench.tracer)
            pool0 = workerpool.pool_stats()
            if bench.jobs > 1:
                bench.tracer.prepare_workers(bench.jobs)
                bench._warm_pool()
            traced = bench.run_reps(max(1.0, ctx.seconds - untraced[0].raw_s))
            bench.tracer.active = False
            pool1 = workerpool.pool_stats()
            if bench.jobs > 1:
                workers = bench.tracer.flush_workers(
                    workerpool.get_pool(bench.jobs), bench.jobs)
        else:
            timed = bench.run_reps(ctx.seconds)
    finally:
        bench._stop_pool()
        stop_resource_tracker()
    peak_mb = peak_rss_mb()  # before the untimed checks

    errors = (
        bench.check_des(bench.reps[-1].rows) if bench.jobs > 1
        else bench.check_scalar(bench.last_result)
    )
    for i, rep in enumerate(bench.reps[1:], 1):
        if rep.rows != bench.reps[0].rows:
            errors.append(f"campaign {i} report differs from campaign 0")
    attempted = sum(rep.scenarios for rep in bench.reps)
    failed = sum(rep.bad_scenarios for rep in bench.reps)

    if ctx.trace:
        tracer = bench.tracer
        n = len(traced)
        layers = core_layers(tracer.agg, 1.0 / n)
        agg = tracer.agg
        pooled = agg.get(("core.runner", "pooled_s"), 0.0)
        layers.update({
            "core.workerpool.shards":
                (pool1["shards_executed"] - pool0["shards_executed"]) / n,
            "core.workerpool.shm_bytes":
                (pool1["shm_bytes"] - pool0["shm_bytes"]) / n,
            "core.workerpool.pickle_fallbacks":
                (pool1["pickle_fallbacks"] - pool0["pickle_fallbacks"]) / n,
            "core.workerpool.spawns": pool1["spawns"] - pool0["spawns"],
            "core.workerpool.busy_ratio": (
                agg.get(("backends.des", "time"), 0.0)
                / (bench.jobs * pooled) if pooled else 0.0
            ),
        })
        base_rate = untraced[0].cells / untraced[0].fixed_s
        traced_rate = sum(r.cells for r in traced) / sum(
            r.fixed_s for r in traced)
        layers["trace.overhead_pct"] = (base_rate / traced_rate - 1.0) * 100
        layers["machine.ref_ms"] = bench.meter.ref_ms()
        for name in ("backends.simulated.cells", "core.runner.cells"):
            if name == "backends.simulated.cells" and bench.jobs > 1:
                continue
            if layers[name] != untraced[0].cells:
                errors.append(
                    f"traced {name} = {layers[name]:.0f} per campaign, "
                    f"untraced count {untraced[0].cells}"
                )
        tracer.dump(ctx.trace_file)
        notes.append(
            f"traced {n} campaign(s) after 1 untraced; "
            f"{workers if bench.jobs > 1 else 0} pool worker aggregate(s) "
            f"merged; spans in {ctx.trace_file.name}"
        )
        e2e = {}
    else:
        times = [rep.fixed_s for rep in timed]
        raws = [rep.raw_s for rep in timed]
        cells = [rep.cells / rep.fixed_s for rep in timed]
        e2e = {
            "setup_s": (pct(setup_fixed, 50), "s"),
            "cells_per_s": (pct(cells, 50), "cells/s"),
            "requests_per_s": (len(times) / sum(times), "req/s"),
            "p50_ms": (pct(times, 50) * 1e3, "ms"),
            "p90_ms": (pct(times, 90) * 1e3, "ms"),
            "peak_rss_mb": (peak_mb, "MiB"),
        }
        notes.append(
            f"{len(timed)} campaign(s) of {timed[0].cells} cells and "
            f"{timed[0].scenarios} scenarios; a request is one campaign "
            f"(run_campaign + write_report), p50/p90 over "
            f"{len(timed)} sample(s)"
        )
        notes.append(
            "wall.setup_s={:.4f} wall.cells_per_s={:.1f} "
            "wall.requests_per_s={:.5f} wall.p50_ms={:.1f} "
            "wall.p90_ms={:.1f}".format(
                pct(setup_raw, 50),
                pct([rep.cells / rep.raw_s for rep in timed], 50),
                len(raws) / sum(raws), pct(raws, 50) * 1e3,
                pct(raws, 90) * 1e3,
            )
        )
    notes.append(
        f"machine.ref_ms={bench.meter.ref_ms():.4f} over "
        f"{len(bench.meter.quanta)} quanta ({bench.meter.rejected} rejected "
        "with program work in flight)"
    )
    return {
        "e2e": e2e, "layers": layers, "errors": errors, "notes": notes,
        "attempted": attempted, "failed": failed + len(errors),
    }
