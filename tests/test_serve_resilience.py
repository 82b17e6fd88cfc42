"""Failure-path behaviour of the daemon as one system.

Drain must finish accepted work exactly once (even when six waiters
coalesced onto it), a full queue must answer an honest 503 with its
depth and a latency-derived ``Retry-After``, the client must pace
itself off that hint, and a stalling journal must degrade the daemon
to cache-only (``/readyz`` flips) rather than failing requests.
"""

from __future__ import annotations

import asyncio
import json
import time

from repro import AnalyticBackend, RunConfig, make_model, run_sweep
from repro.chaos import ChaosKind, ChaosPlan
from repro.core.runner import RetryPolicy
from repro.serve.client import ServeClient
from repro.serve.service import ServeConfig, start_server
from repro.types import Kernel, Precision

BODY = {
    "system": "dawn",
    "kernel": "gemm",
    "problem": "square",
    "precision": "single",
    "iterations": 8,
    "paradigm": "once",
    "min_dim": 1,
    "max_dim": 64,
    "step": 16,
}


class CountingSweep:
    """A ``run_sweep`` stand-in: real result, controlled latency."""

    def __init__(self, delay_s: float = 0.0) -> None:
        self.calls = 0
        self.delay_s = delay_s
        config = RunConfig(
            max_dim=64, step=16, iterations=8,
            kernels=(Kernel.GEMM,), precisions=(Precision.SINGLE,),
        )
        self._result = run_sweep(
            AnalyticBackend(make_model("dawn")), config, "dawn"
        )

    def __call__(self, backend, config, system_name=None, cache_dir=None):
        self.calls += 1
        if self.delay_s:
            time.sleep(self.delay_s)
        return self._result


def test_drain_completes_coalesced_job_exactly_once(tmp_path):
    """SIGTERM mid-burst: six waiters coalesced onto one in-flight job
    all get the same bytes, the journal holds exactly one ``complete``
    record for it, and a second drain is a no-op."""
    sweep = CountingSweep(delay_s=0.3)
    cache = tmp_path / "cache"

    async def check():
        config = ServeConfig(port=0, cache_dir=str(cache))
        handle = await start_server(config, sweep_fn=sweep)
        clients = [ServeClient(handle.host, handle.port) for _ in range(6)]
        try:
            pending = [
                asyncio.ensure_future(c.post("/v1/threshold", BODY))
                for c in clients
            ]
            await asyncio.sleep(0.1)  # the job is in flight, waiters parked
            assert await handle.drain(10.0) is True
            responses = await asyncio.gather(*pending)
            assert [r.status for r in responses] == [200] * 6
            assert len({r.body for r in responses}) == 1
            # idempotent: the second drain reports the first verdict
            assert await handle.drain(10.0) is True
        finally:
            for c in clients:
                await c.close()
        assert sweep.calls == 1

        records = [
            json.loads(line)
            for line in (cache / "serve-wal.jsonl").read_text().splitlines()
        ]
        accepts = [r for r in records if r.get("t") == "accept"]
        completes = [r for r in records if r.get("t") == "complete"]
        assert len(accepts) == 1, "coalesced waiters share one journal entry"
        assert len(completes) == 1, "exactly-once completion"
        assert completes[0]["id"] == accepts[0]["id"]

    asyncio.run(check())


def test_queue_full_503_carries_depth_and_retry_hint(tmp_path):
    sweep = CountingSweep(delay_s=0.3)

    async def check():
        config = ServeConfig(
            port=0,
            cache_dir=str(tmp_path / "cache"),
            workers=1,
            queue_maxsize=1,
        )
        handle = await start_server(config, sweep_fn=sweep)
        clients = [ServeClient(handle.host, handle.port) for _ in range(3)]
        try:
            t1 = asyncio.ensure_future(clients[0].post("/v1/threshold", BODY))
            await asyncio.sleep(0.1)  # worker busy
            t2 = asyncio.ensure_future(
                clients[1].post("/v1/threshold", dict(BODY, max_dim=48))
            )
            await asyncio.sleep(0.05)  # queue slot full
            r3 = await clients[2].post(
                "/v1/threshold", dict(BODY, max_dim=32)
            )
            assert r3.status == 503
            error = r3.json()["error"]
            assert error["queue_depth"] >= 1
            assert error["retry_after_s"] >= 1.0
            assert int(r3.headers["retry-after"]) >= 1
            r1, r2 = await asyncio.gather(t1, t2)
            assert r1.status == 200 and r2.status == 200
            # the refused job left no pending journal entry behind
            metrics = (await clients[2].get("/metrics")).json()
            assert metrics["wal"]["jobs"]["pending"] == 0
            assert metrics["wal"]["jobs"]["dead"] == 1
        finally:
            for c in clients:
                await c.close()
            await handle.drain(10.0)

    asyncio.run(check())


def test_client_backs_off_per_retry_after_then_succeeds(tmp_path):
    """A 429'd client waits out the server's ``Retry-After`` hint (not
    its own computed backoff) and the retry lands."""

    async def check():
        config = ServeConfig(
            port=0, cache_dir=str(tmp_path / "cache"), rate=50.0, burst=1
        )
        handle = await start_server(config, sweep_fn=CountingSweep())
        waited = []

        async def fake_sleep(delay):
            waited.append(delay)
            await asyncio.sleep(0.1)  # long enough for the bucket to refill

        client = ServeClient(
            handle.host,
            handle.port,
            retry=RetryPolicy(max_retries=2),
            sleep=fake_sleep,
        )
        try:
            first = await client.post("/v1/threshold", BODY)
            assert first.status == 200
            second = await client.post("/v1/threshold", BODY)
            assert second.status == 200  # retried through the 429
            # the server said "Retry-After: 1"; the policy obeyed it
            assert waited == [1.0]
            assert client.retry_delays == [1.0]
            metrics = (await client.get("/metrics")).json()
            assert metrics["jobs"]["rate_limited"] == 1
        finally:
            await client.close()
            await handle.drain(5.0)

    asyncio.run(check())


def test_client_fails_fast_on_non_retryable_4xx(tmp_path):
    async def check():
        config = ServeConfig(port=0, cache_dir=str(tmp_path / "cache"))
        handle = await start_server(config, sweep_fn=CountingSweep())
        client = ServeClient(
            handle.host, handle.port, retry=RetryPolicy()
        )
        try:
            r = await client.post(
                "/v1/threshold", dict(BODY, system="atlantis")
            )
            assert r.status == 400
            assert client.retry_delays == []  # config errors are final
        finally:
            await client.close()
            await handle.drain(5.0)

    asyncio.run(check())


def test_wal_stall_degrades_to_cache_only(tmp_path):
    """A journal that stops accepting writes must not fail requests —
    the daemon keeps answering but reports itself not ready."""
    chaos = ChaosPlan(
        seed=7, rates={ChaosKind.WAL_STALL: 0.999}
    )

    async def check():
        config = ServeConfig(
            port=0, cache_dir=str(tmp_path / "cache"), chaos=chaos
        )
        handle = await start_server(config, sweep_fn=CountingSweep())
        client = ServeClient(handle.host, handle.port)
        try:
            r = await client.post("/v1/threshold", BODY)
            assert r.status == 200  # the answer still flows
            metrics = (await client.get("/metrics")).json()
            assert metrics["wal_errors"] >= 1
            assert metrics["wal"]["writable"] is False
            ready = await client.get("/readyz")
            assert ready.status == 503
            assert ready.json()["wal_writable"] is False
        finally:
            await client.close()
            await handle.drain(5.0)

    asyncio.run(check())
