"""The durable job journal: leases, exactly-once completion, lenient
loading, torn-tail repair idempotence, and replay byte-identity.

The two hypothesis properties mirror the checkpoint layer's
resume-identity guarantees: (1) dropping a torn tail is a fixed point —
repairing twice changes nothing more — and (2) a daemon restarted over
a journal of accepted-but-incomplete jobs answers them with payloads
byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosKind, ChaosPlan
from repro.core.fsck import fsck_paths
from repro.errors import ConfigError
from repro.journal import repair_tail as repair_wal_tail
from repro.serve.client import ServeClient
from repro.serve.service import ServeConfig, start_server
from repro.serve.wal import (
    WriteAheadLog,
    flip_byte_in_last_record,
    load_wal_state,
)

QUERY = {
    "system": "dawn",
    "kernel": "gemm",
    "problem": "square",
    "precision": "single",
    "iterations": 8,
    "paradigm": "once",
    "backend": "analytic",
    "min_dim": 1,
    "max_dim": 64,
    "step": 16,
    "dim": None,
    "min_consecutive": 2,
    "include_series": False,
}


def make_wal(tmp_path, **kwargs):
    return WriteAheadLog(tmp_path / "serve-wal.jsonl", owner="t:1", **kwargs)


def test_accept_complete_lifecycle(tmp_path):
    wal = make_wal(tmp_path)
    a = wal.append_accept("key-a", QUERY)
    b = wal.append_accept("key-b", QUERY)
    assert [j.job_id for j in wal.pending()] == [a, b]
    assert wal.counts() == {"pending": 2, "complete": 0, "dead": 0}

    assert wal.mark_complete(a) is True
    # exactly once: the second completion writes nothing
    assert wal.mark_complete(a) is False
    assert wal.mark_dead(b, "test") is True
    assert wal.mark_dead(b, "again") is False
    assert wal.counts() == {"pending": 0, "complete": 1, "dead": 1}
    wal.close()

    lines = (tmp_path / "serve-wal.jsonl").read_text().splitlines()
    completes = [ln for ln in lines if json.loads(ln).get("t") == "complete"]
    assert len(completes) == 1

    # a fresh reader reconstructs the same state
    state = load_wal_state(tmp_path / "serve-wal.jsonl")
    assert state.has_header and state.corrupt_records == 0
    assert state.counts() == {"pending": 0, "complete": 1, "dead": 1}


def test_restart_survives_and_renew_bumps_lease(tmp_path):
    clock = {"now": 100.0}
    wal = make_wal(tmp_path, lease_s=10.0, clock=lambda: clock["now"])
    job_id = wal.append_accept("key-a", QUERY)
    assert wal.lease_counts() == (1, 0)
    clock["now"] = 111.0  # past the deadline
    assert wal.lease_counts() == (0, 1)
    wal.close()

    wal2 = WriteAheadLog(
        tmp_path / "serve-wal.jsonl",
        owner="t:2",
        lease_s=10.0,
        clock=lambda: clock["now"],
    )
    (job,) = wal2.pending()
    assert job.job_id == job_id and job.attempt == 1 and job.owner == "t:1"
    assert wal2.renew(job_id) == 2
    assert job.owner == "t:2" and not job.expired(clock["now"])
    # ids keep increasing across restarts
    assert wal2.append_accept("key-b", QUERY) == job_id + 1
    wal2.close()


def test_lenient_load_skips_corrupt_records(tmp_path):
    wal = make_wal(tmp_path)
    wal.append_accept("key-a", QUERY)
    wal.append_accept("key-b", QUERY)
    wal.close()
    path = tmp_path / "serve-wal.jsonl"
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace("key-a", "key-x")  # checksum now lies
    path.write_text("".join(ln + "\n" for ln in lines))

    state = load_wal_state(path)
    assert state.corrupt_records == 1
    assert [j.key for j in state.pending()] == ["key-b"]

    # the writer still opens over the damage (and keeps the survivors)
    wal2 = WriteAheadLog(path, owner="t:2")
    assert [j.key for j in wal2.pending()] == ["key-b"]
    wal2.close()


def test_headerless_damage_is_rotated_aside(tmp_path):
    path = tmp_path / "serve-wal.jsonl"
    path.write_text('{"not": "a wal"}\n')
    wal = WriteAheadLog(path, owner="t:1")
    assert wal.pending() == []
    wal.close()
    assert (tmp_path / "serve-wal.jsonl.bad").read_text() == '{"not": "a wal"}\n'
    assert load_wal_state(path).has_header


def test_fsck_audits_and_repairs_the_wal(tmp_path):
    wal = make_wal(tmp_path)
    wal.append_accept("key-a", QUERY)
    wal.close()
    path = tmp_path / "serve-wal.jsonl"
    assert fsck_paths([path]) == []

    assert flip_byte_in_last_record(path) is True
    findings = fsck_paths([path])
    assert findings and all(not f.repaired for f in findings)

    repaired = fsck_paths([path], repair=True)
    assert all(f.repaired for f in repaired)
    assert fsck_paths([path]) == []
    assert (tmp_path / "serve-wal.jsonl.bad").exists()


def test_chaos_plan_parse_and_determinism():
    plan = ChaosPlan.parse("heavy:42", "serve")
    assert plan.seed == 42 and plan.enabled
    draws = [
        plan.fires(ChaosKind.FAIL_BACKEND, ("key",), i) for i in range(64)
    ]
    assert draws == [
        plan.fires(ChaosKind.FAIL_BACKEND, ("key",), i) for i in range(64)
    ]
    assert any(draws) and not all(draws)
    assert not ChaosPlan.parse("light", "serve").fires(
        ChaosKind.WAL_BITFLIP, ("key",), 1
    )
    with pytest.raises(ConfigError):
        ChaosPlan.parse("hurricane", "serve")
    with pytest.raises(ConfigError):
        ChaosPlan.parse("light:not-a-seed", "serve")
    with pytest.raises(ConfigError):
        ChaosPlan(rates={ChaosKind.FAIL_BACKEND: 1.0})


@settings(max_examples=20, deadline=None)
@given(
    keys=st.lists(
        st.text(alphabet="abcdef0123456789", min_size=4, max_size=8),
        min_size=0,
        max_size=4,
    ),
    # a real torn tail is a truncated JSON record: printable text (the
    # underlying repair is line-oriented, so splitlines boundaries like
    # \x1e would make a *multi-line* artifact, which is not a torn tail)
    tail=st.text(
        alphabet='{}[]":,.-_ abcdefghij0123456789', min_size=1, max_size=40
    ),
)
def test_torn_tail_repair_is_idempotent(tmp_path_factory, keys, tail):
    tmp_path = tmp_path_factory.mktemp("wal")
    path = tmp_path / "serve-wal.jsonl"
    wal = WriteAheadLog(path, owner="t:1")
    for key in keys:
        wal.append_accept(key, QUERY)
    wal.close()
    intact = path.read_bytes()

    # crash artifact: a partially flushed final line
    path.write_bytes(intact + tail.encode("ascii"))
    assert repair_wal_tail(path) is True
    assert path.read_bytes() == intact
    # fixed point: repairing again changes nothing
    assert repair_wal_tail(path) is False
    assert path.read_bytes() == intact
    state = load_wal_state(path)
    assert state.corrupt_records == 0
    assert [j.key for j in state.pending()] == keys


@settings(max_examples=5, deadline=None)
@given(
    max_dim=st.sampled_from([48, 64]),
    iterations=st.sampled_from([4, 8]),
    kernel=st.sampled_from(["gemm", "gemv"]),
)
def test_replay_after_crash_is_byte_identical(
    tmp_path_factory, max_dim, iterations, kernel
):
    """A journal of accepted-but-incomplete jobs, replayed by a fresh
    daemon, answers byte-identically to an uninterrupted run."""
    tmp = tmp_path_factory.mktemp("replay")
    body = dict(
        QUERY, max_dim=max_dim, iterations=iterations, kernel=kernel
    )

    async def uninterrupted():
        config = ServeConfig(port=0, cache_dir=str(tmp / "clean"))
        handle = await start_server(config)
        client = ServeClient(handle.host, handle.port)
        try:
            await client.post("/v1/threshold", body)  # miss: executes
            warm = await client.post("/v1/threshold", body)
            return warm.body
        finally:
            await client.close()
            await handle.drain(10.0)

    async def crashed_then_replayed():
        cache = tmp / "crashed"
        # the "crash": an accept journaled before kill -9, never run
        wal = WriteAheadLog(cache / "serve-wal.jsonl", owner="dead:1")
        wal.append_accept("bogus-key-never-computed", body)
        wal.close()
        config = ServeConfig(port=0, cache_dir=str(cache))
        handle = await start_server(config)
        client = ServeClient(handle.host, handle.port)
        try:
            assert handle.service.replay_task is not None
            await asyncio.wait_for(handle.service.replay_task, 30.0)
            assert handle.service.metrics.jobs_replayed == 1
            assert handle.service.wal.counts()["pending"] == 0
            warm = await client.post("/v1/threshold", body)
            assert warm.json()["cache"]["hit"] is True
            return warm.body
        finally:
            await client.close()
            await handle.drain(10.0)

    reference = asyncio.run(uninterrupted())
    replayed = asyncio.run(crashed_then_replayed())
    assert replayed == reference
