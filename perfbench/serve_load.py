"""The ``serve`` workload: ``gpu-blob serve`` under a closed loop.

The daemon runs as a subprocess with default flags (2 job workers, WAL
on, in-process sweeps) on an empty cache directory; the timed phase is
split across DAEMONS fresh daemons in turn.  This process is the client:
a closed loop over 2 keep-alive connections, each sending its next
``POST /v1/threshold`` only after the previous answer's last body byte
arrived.  Each daemon gets its own seeded trace (see
:func:`inputs.serve_trace`): one request in five touches a key for the
first time (WAL append, queue, analytic sweep, cache store) and the rest
repeat one (cache decode).

Requests go out in segments; between segments both connections are
idle, a quantum is measured (rejected if the daemon used CPU during
it), and every latency of the segment is corrected by the quanta around
it (:class:`drift.Segments`).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import List, Optional

from drift import DriftMeter, Segments
from inputs import SYSTEMS, serve_trace
from measure import SETUP_STARTS, core_layers, pct, peak_rss_mb, timed_starts
from tracer import load_aggregates

#: Requests per segment between two quanta (~1 s of traffic).
SEGMENT = 24
CONNECTIONS = 2
TRACE_LENGTH = 8000

#: Fresh daemons the timed phase is split across, each on its own cache
#: and trace.  A daemon settles into one of two states for its life:
#: in ten runs, three peaked at 96 MiB RSS and served ~10% slower than
#: the seven that peaked at 103-106 MiB.  Three daemons a run sample
#: that state instead of betting the whole run on one draw.
DAEMONS = 3


class Daemon:
    """One ``gpu-blob serve`` subprocess on an ephemeral port."""

    def __init__(self, ctx, cache_dir: Path, trace_out: Optional[Path] = None):
        args = ["--port", "0", "--cache-dir", str(cache_dir)]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.cli", "serve", *args]
        else:
            launcher = Path(__file__).with_name("serve_launcher.py")
            cmd = [sys.executable, str(launcher), str(ctx.src),
                   str(trace_out), *args]
        env = dict(os.environ, PYTHONPATH=str(ctx.src))
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     env=env)
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(line.split("listening on http://")[1].split()[0]
                        .rsplit(":", 1)[1])
        while asyncio.run(_get(self.port, "/readyz"))[0] != 200:
            time.sleep(0.005)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> int:
        """Drain with SIGTERM and reap; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        return code


async def _read_response(reader) -> tuple:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name:
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", 0)))
    return status, headers, body


async def _get(port: int, path: str) -> tuple:
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
    except OSError:
        return 0, {}, b""
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: bench\r\n"
                     "Connection: close\r\n\r\n".encode())
        await writer.drain()
        return await _read_response(reader)
    finally:
        writer.close()
        await writer.wait_closed()


class Outcome:
    __slots__ = ("index", "query", "status", "warning", "body", "raw_s",
                 "fixed_s")

    def __init__(self, index, query, status, warning, body, raw_s):
        self.index, self.query = index, query
        self.status, self.warning, self.body = status, warning, body
        self.raw_s = self.fixed_s = raw_s


async def _closed_loop(port: int, trace: List[dict], meter: DriftMeter,
                       seconds: float, limit: Optional[int]) -> tuple:
    """Send the trace until ``seconds`` of timed phase are used or
    ``limit`` requests are answered; returns (outcomes, raw, fixed)."""
    conns = [await asyncio.open_connection("127.0.0.1", port)
             for _ in range(CONNECTIONS)]
    bodies = [json.dumps(q).encode() for q in trace]
    outcomes: List[Outcome] = []
    pending: deque = deque()

    async def worker(reader, writer):
        while pending:
            i = pending.popleft()
            body = bodies[i]
            head = (f"POST /v1/threshold HTTP/1.1\r\nHost: bench\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n").encode()
            t0 = time.perf_counter()
            writer.write(head + body)
            await writer.drain()
            status, headers, payload = await _read_response(reader)
            raw = time.perf_counter() - t0
            outcomes.append(Outcome(i, trace[i], status,
                                    headers.get("warning"), payload, raw))

    seg = Segments(meter)
    bounds = [0]
    try:
        while seg.raw_s < seconds and (limit is None or bounds[-1] < limit):
            sent = bounds[-1]
            count = SEGMENT if limit is None else min(SEGMENT, limit - sent)
            if sent + count > len(trace):
                raise RuntimeError("serve trace exhausted")
            pending.extend(range(sent, sent + count))
            await asyncio.gather(*(worker(r, w) for r, w in conns))
            seg.mark()
            bounds.append(len(outcomes))
    finally:
        for _reader, writer in conns:
            writer.close()
            await writer.wait_closed()
    for factor, lo, hi in zip(seg.factors(), bounds, bounds[1:]):
        for outcome in outcomes[lo:hi]:
            outcome.fixed_s = outcome.raw_s * factor
    outcomes.sort(key=lambda o: o.index)
    return outcomes, seg.raw_s, seg.fixed_s


def _scrape(daemon: Daemon) -> dict:
    status, _headers, body = asyncio.run(_get(daemon.port, "/metrics"))
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return json.loads(body)


def _check(outcomes: List[Outcome]) -> tuple:
    """Each distinct key's answers must equal an in-process ``run_sweep``
    of the same query.  Returns (failed count, error lines)."""
    from repro.backends import make_backend
    from repro.core.runner import run_sweep
    from repro.core.threshold import threshold_for_series
    from repro.serve.service import parse_threshold_query

    failed = 0
    errors: List[str] = []
    refs = {}
    for outcome in outcomes:
        query = parse_threshold_query(outcome.query)
        if outcome.status != 200 or (outcome.warning or "").startswith("110"):
            failed += 1
            continue
        answer = json.loads(outcome.body)
        if answer.get("degraded"):
            failed += 1
            continue
        key = (query.system, query.kernel, query.problem, query.precision,
               query.iterations)
        if key not in refs:
            backend = make_backend("analytic", system=query.system)
            result = run_sweep(backend, query.run_config(), query.system)
            refs[key] = result.series_for(
                query.kernel, query.problem, query.precision
            )
        series = refs[key]
        found = threshold_for_series(series, query.paradigm,
                                     query.min_consecutive)
        expect = {
            "found": found.found,
            "dims": ({"m": found.dims.m, "n": found.dims.n,
                      "k": found.dims.k} if found.found else None),
            "index": found.index,
        }
        got = {k: answer["threshold"][k] for k in expect}
        if got != expect or answer["sweep"]["samples"] != len(
                series.all_samples()):
            failed += 1
            if len(errors) < 5:
                errors.append(f"request {outcome.query}: answered {got}, "
                              f"in-process {expect}")
    return failed, errors


def _realized(outcomes: List[Outcome]) -> tuple:
    """(cold, hot) counts of one daemon's requests: cold ones touch
    their key first."""
    seen = set()
    cold = 0
    for outcome in outcomes:
        query = outcome.query
        key = tuple(query[k] for k in ("system", "kernel", "problem",
                                       "precision", "iterations"))
        if key not in seen:
            seen.add(key)
            cold += 1
    return cold, len(outcomes) - cold


#: Untimed requests that warm a fresh daemon: a cold and a repeated
#: 9-point query per system build its models and finish its lazy
#: imports, on keys the traces never use.
WARM_UP = [
    {"system": system, "kernel": "gemm", "problem": "square",
     "precision": "single", "iterations": 1, "max_dim": 64}
    for system in SYSTEMS for _ in range(2)
]


async def _warm_up(port: int) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for query in WARM_UP:
            body = json.dumps(query).encode()
            writer.write(
                f"POST /v1/threshold HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
            await writer.drain()
            status, _headers, _body = await _read_response(reader)
            if status != 200:
                raise RuntimeError(f"warm-up request answered {status}")
    finally:
        writer.close()
        await writer.wait_closed()


class Phase:
    """One daemon's share of a run: its answers and timed-phase totals."""

    def __init__(self, daemon: Daemon, trace: List[dict], meter: DriftMeter,
                 seconds: float, limit: Optional[int] = None) -> None:
        asyncio.run(_warm_up(daemon.port))
        self.outcomes, self.raw_s, self.fixed_s = asyncio.run(_closed_loop(
            daemon.port, trace, meter, seconds, limit))
        self.metrics = _scrape(daemon)
        self.exit_code = daemon.stop()
        self.cold, self.hot = _realized(self.outcomes)


def run(ctx) -> dict:
    daemons: List[Daemon] = []
    meter = DriftMeter(watch=lambda: [d.pid for d in daemons
                                      if d.proc.poll() is None],
                       every_cpu=True)
    notes: List[str] = []
    e2e: dict = {}
    layers: dict = {}
    phases: List[Phase] = []
    try:
        if ctx.trace:
            trace = serve_trace(ctx.seed, TRACE_LENGTH)
            daemons.append(Daemon(ctx, ctx.state / "cache-untraced"))
            phases.append(Phase(daemons[-1], trace, meter, ctx.seconds / 2))
            trace_out = ctx.state / "daemon-trace.jsonl"
            daemons.append(Daemon(ctx, ctx.state / "cache-traced", trace_out))
            phases.append(Phase(daemons[-1], trace, meter, float("inf"),
                                len(phases[0].outcomes)))
        else:
            def start():
                index = len(daemons)
                daemons.append(Daemon(ctx, ctx.state / f"cache-{index}"))
                if index < SETUP_STARTS - 1:
                    return daemons[-1].stop
                return None

            setup_fixed, setup_raw = timed_starts(meter, start)
            for i in range(DAEMONS):
                if i:
                    daemons.append(Daemon(ctx, ctx.state / f"cache-run{i}"))
                trace = serve_trace(ctx.seed * DAEMONS + i, TRACE_LENGTH)
                phases.append(Phase(daemons[-1], trace, meter,
                                    ctx.seconds / DAEMONS))
    finally:
        codes = [d.stop() for d in daemons]
    peak_mb = peak_rss_mb()  # before the in-process check sweeps
    errors: List[str] = []
    if any(codes):
        errors.append(f"daemon exit codes {codes} (SIGTERM drain must exit 0)")

    answered = [o for p in phases for o in p.outcomes]
    failed, check_errors = _check(answered)
    errors.extend(check_errors)
    timed = phases[1:] if ctx.trace else phases
    outcomes = [o for p in timed for o in p.outcomes]
    raw = sum(p.raw_s for p in timed)
    fixed = sum(p.fixed_s for p in timed)
    cache = [p.metrics["cache"] for p in timed]
    notes.append(
        f"{len(outcomes)} requests over {CONNECTIONS} connections to "
        f"{len(timed)} daemon(s): {sum(p.cold for p in timed)} cold, "
        f"{sum(p.hot for p in timed)} hot, "
        f"{sum(c['coalesced'] for c in cache)} coalesced; daemon cache "
        f"hits {sum(c['hits'] for c in cache)}, "
        f"misses {sum(c['misses'] for c in cache)}"
    )

    if ctx.trace:
        agg, durations = load_aggregates(trace_out)
        scraped = phases[1].metrics
        jobs = scraped["jobs"]
        handled = durations.get("serve.service.threshold", [])
        g = lambda layer, key: agg.get((layer, key), 0.0)  # noqa: E731
        layers = core_layers(agg)
        layers.update({
            "serve.httpd.read_s": g("serve.httpd.read", "time"),
            "serve.httpd.render_s": g("serve.httpd.render", "time"),
            "serve.httpd.requests": g("serve.httpd.read_request", "calls"),
            "serve.httpd.bytes_out": g("serve.httpd.render", "bytes_out"),
            "serve.jobs.wait_s": g("serve.jobs", "time"),
            "serve.jobs.jobs": g("serve.jobs", "jobs"),
            "serve.jobs.coalesced": g("serve.jobs", "coalesced"),
            "serve.wal.append_s": g("serve.wal", "time"),
            "serve.wal.appends": g("serve.wal", "appends"),
            "serve.wal.errors": scraped["wal_errors"],
            "serve.service.handle_s": sum(handled),
            "serve.service.server_p50_ms": pct(handled, 50) * 1e3,
            "serve.service.sweeps_executed": jobs["sweeps_executed"],
            "serve.service.rejected": (
                jobs["rate_limited"] + jobs["queue_rejected"]
                + jobs["deadline_expired"]
                + scraped["degraded"]["unavailable"]
            ),
            "serve.service.hit_rate": scraped["cache"]["hit_rate"],
            "machine.ref_ms": meter.ref_ms(),
            "trace.overhead_pct": (
                (len(phases[0].outcomes) / phases[0].fixed_s)
                / (len(outcomes) / fixed) - 1.0
            ) * 100,
        })
        spans = ctx.trace_file
        spans.write_text(trace_out.read_text())
        notes.append(f"traced the same {len(outcomes)} requests after an "
                     f"untraced daemon; spans in {spans.name}")
    else:
        lat = [o.fixed_s * 1e3 for o in outcomes]
        lat_raw = [o.raw_s * 1e3 for o in outcomes]
        cells = sum(json.loads(o.body)["sweep"]["samples"]
                    for o in outcomes if o.status == 200)
        e2e = {
            "setup_s": (pct(setup_fixed, 50), "s"),
            "cells_per_s": (cells / fixed, "cells/s"),
            "requests_per_s": (len(outcomes) / fixed, "req/s"),
            "p50_ms": (pct(lat, 50), "ms"),
            "p90_ms": (pct(lat, 90), "ms"),
            "peak_rss_mb": (peak_mb, "MiB"),
        }
        beyond = sum(x > e2e["p90_ms"][0] for x in lat)
        notes.append(
            f"latency over {len(lat)} samples, {beyond} beyond p90; "
            "cells_per_s counts the series cells behind each answer"
        )
        notes.append(
            "wall.setup_s={:.4f} wall.cells_per_s={:.1f} "
            "wall.requests_per_s={:.3f} wall.p50_ms={:.2f} "
            "wall.p90_ms={:.2f}".format(
                pct(setup_raw, 50), cells / raw, len(outcomes) / raw,
                pct(lat_raw, 50), pct(lat_raw, 90),
            )
        )
    notes.append(
        f"machine.ref_ms={meter.ref_ms():.4f} over {len(meter.quanta)} "
        f"quanta ({meter.rejected} rejected with program work in flight)"
    )
    return {
        "e2e": e2e, "layers": layers, "errors": errors, "notes": notes,
        "attempted": len(answered), "failed": failed,
    }
