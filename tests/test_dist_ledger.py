"""The dispatch ledger: durable scheduling decisions for distributed
campaigns.

The ledger is the restart story — every assign/renew/complete/dead is
a checksummed JSONL record in the shared journal dialect, a torn final
line is the only acceptable crash artifact, and ``gpu-blob fsck`` can
tell a ledger from a sweep checkpoint or a serve WAL by its ``kind``
header (and *reports* a kind it does not know, rather than silently
version-checking it as a checkpoint).
"""

from __future__ import annotations

import json

import pytest

from repro.core.fsck import fsck_envelope as fsck_result_shard
from repro.core.fsck import fsck_journal, fsck_paths
from repro.dist.heartbeat import HeartbeatMonitor
from repro.dist.ledger import (
    LEDGER_KIND,
    LEDGER_VERSION,
    DispatchLedger,
    load_ledger_state,
)
from repro.errors import ConfigError
from repro.journal import record_checksum


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


def make_ledger(path, clock, fp="aaaa000011112222", name="unit"):
    return DispatchLedger(path, name, fp, lease_s=30.0, clock=clock,
                          sync=False)


# -- record round-trip ------------------------------------------------


def test_assign_complete_dead_round_trip(tmp_path, clock):
    path = tmp_path / "ledger.jsonl"
    ledger = make_ledger(path, clock)
    deadline = ledger.assign("fp1", 0, "w0", 1)
    assert deadline == pytest.approx(130.0)
    ledger.assign("fp2", 1, "w1", 1)
    ledger.assign("fp3", 2, "w0", 1)
    assert ledger.complete("fp1") is True
    assert ledger.dead("fp3", "attempts exhausted") is True
    ledger.close()

    state = load_ledger_state(path)
    assert state.has_header and not state.torn_tail
    assert state.corrupt_records == 0
    assert state.campaign_name == "unit"
    assert state.campaign_fingerprint == "aaaa000011112222"
    assert state.counts() == {"assigned": 1, "complete": 1, "dead": 1}
    assert [e.fp for e in state.in_flight()] == ["fp2"]
    assert state.entries["fp3"].reason == "attempts exhausted"


def test_renew_extends_the_lease(tmp_path, clock):
    ledger = make_ledger(tmp_path / "ledger.jsonl", clock)
    first = ledger.assign("fp1", 0, "w0", 1)
    clock.now += 20.0
    renewed = ledger.renew("fp1", "w0")
    assert renewed == first + 20.0
    assert not ledger.entry("fp1").expired(clock.now)
    ledger.close()
    state = load_ledger_state(ledger.path)
    assert state.entries["fp1"].deadline == pytest.approx(renewed)


def test_complete_is_idempotent(tmp_path, clock):
    path = tmp_path / "ledger.jsonl"
    ledger = make_ledger(path, clock)
    ledger.assign("fp1", 0, "w0", 1)
    assert ledger.complete("fp1") is True
    lines_after_first = len(path.read_text().splitlines())
    # the second finisher of a stolen scenario is deduped, not recorded
    assert ledger.complete("fp1") is False
    assert ledger.complete("unknown") is False
    assert ledger.dead("fp1", "late") is False
    assert len(path.read_text().splitlines()) == lines_after_first
    ledger.close()


def test_steal_is_a_fresh_assign_with_higher_attempt(tmp_path, clock):
    ledger = make_ledger(tmp_path / "ledger.jsonl", clock)
    ledger.assign("fp1", 0, "w0", 1)
    clock.now += 31.0  # lease lapses
    assert ledger.entry("fp1").expired(clock.now)
    ledger.assign("fp1", 0, "w1", 2)
    entry = ledger.entry("fp1")
    assert (entry.worker, entry.attempt) == ("w1", 2)
    assert not entry.expired(clock.now)
    ledger.close()


def test_late_assign_after_terminal_state_loses(tmp_path, clock):
    """A replayed partition can surface an assign *after* complete: the
    terminal state must win on fold."""
    path = tmp_path / "ledger.jsonl"
    ledger = make_ledger(path, clock)
    ledger.assign("fp1", 0, "w0", 1)
    ledger.complete("fp1")
    ledger.close()
    # append a verified-but-late assign by hand
    rec = {"t": "assign", "fp": "fp1", "index": 0, "worker": "w9",
           "attempt": 9, "deadline": 999.0}
    rec["cs"] = record_checksum(rec)
    with path.open("a") as fh:
        fh.write(json.dumps(rec) + "\n")
    state = load_ledger_state(path)
    assert state.entries["fp1"].state == "complete"


# -- durability --------------------------------------------------------


def test_torn_tail_is_repaired_on_reopen(tmp_path, clock):
    path = tmp_path / "ledger.jsonl"
    ledger = make_ledger(path, clock)
    ledger.assign("fp1", 0, "w0", 1)
    ledger.complete("fp1")
    ledger.close()
    with path.open("a") as fh:
        fh.write('{"t": "assign", "fp": "fp2", "ind')  # kill -9 artifact
    assert load_ledger_state(path).torn_tail is True
    reopened = make_ledger(path, clock)
    assert reopened.counts() == {"assigned": 0, "complete": 1, "dead": 0}
    reopened.close()
    assert load_ledger_state(path).torn_tail is False


def test_reopen_replays_prior_state(tmp_path, clock):
    path = tmp_path / "ledger.jsonl"
    ledger = make_ledger(path, clock)
    ledger.assign("fp1", 0, "w0", 1)
    ledger.assign("fp2", 1, "w1", 2)
    ledger.complete("fp1")
    ledger.close()
    reopened = make_ledger(path, clock)
    assert reopened.counts() == {"assigned": 1, "complete": 1, "dead": 0}
    assert reopened.entry("fp2").attempt == 2
    reopened.close()


def test_campaign_fingerprint_veto(tmp_path, clock):
    path = tmp_path / "ledger.jsonl"
    ledger = make_ledger(path, clock, fp="aaaa000011112222")
    ledger.assign("fp1", 0, "w0", 1)
    ledger.close()
    with pytest.raises(ConfigError, match="belongs to campaign"):
        make_ledger(path, clock, fp="ffff999988887777", name="other")


def test_missing_ledger_is_empty_state(tmp_path):
    state = load_ledger_state(tmp_path / "nope.jsonl")
    assert state.entries == {} and not state.has_header


# -- fsck integration --------------------------------------------------


def test_fsck_accepts_a_healthy_ledger(tmp_path, clock):
    path = tmp_path / "ledger.jsonl"
    ledger = make_ledger(path, clock)
    ledger.assign("fp1", 0, "w0", 1)
    ledger.complete("fp1")
    ledger.close()
    assert fsck_journal(path) == []


def test_fsck_reports_unknown_journal_kind(tmp_path):
    """Satellite: a journal whose ``kind`` this build does not speak is
    *reported*, not silently version-checked as a sweep checkpoint."""
    path = tmp_path / "mystery.jsonl"
    header = {"t": "header", "version": 1, "kind": "mystery-journal"}
    header["cs"] = record_checksum(header)
    path.write_text(json.dumps(header) + "\n")
    findings = fsck_journal(path)
    assert len(findings) == 1
    assert "unknown journal kind 'mystery-journal'" in findings[0].problem
    assert LEDGER_KIND in findings[0].problem  # names what it does read


def test_fsck_checks_ledger_version_as_ledger(tmp_path):
    header = {"t": "header", "version": LEDGER_VERSION + 1,
              "kind": LEDGER_KIND}
    header["cs"] = record_checksum(header)
    path = tmp_path / "ledger.jsonl"
    path.write_text(json.dumps(header) + "\n")
    findings = fsck_journal(path)
    assert len(findings) == 1
    assert f"'{LEDGER_KIND}'" in findings[0].problem
    assert f"reads {LEDGER_VERSION}" in findings[0].problem


def test_fsck_audits_result_shards(tmp_path):
    from repro import AnalyticBackend, RunConfig, make_model, run_sweep
    from repro.dist.worker import write_result_shard
    from repro.types import Kernel, Precision

    config = RunConfig(max_dim=64, step=16, iterations=4,
                       kernels=(Kernel.GEMM,),
                       precisions=(Precision.SINGLE,))
    result = run_sweep(AnalyticBackend(make_model("dawn")), config, "dawn")
    fp = "aaaa000011112222"
    path = write_result_shard(tmp_path, fp, result)
    assert fsck_result_shard(path) == []
    assert fsck_paths([tmp_path]) == []  # dispatched by 16-hex stem

    entry = json.loads(path.read_text())
    entry["payload_sha256"] = "0" * 64
    path.write_text(json.dumps(entry))
    findings = fsck_result_shard(path)
    assert findings and "sha256 mismatch" in findings[0].problem

    miskeyed = tmp_path / ("b" * 16 + ".json")
    miskeyed.write_text(path.read_text())
    findings = fsck_result_shard(miskeyed)
    assert findings and "fingerprint" in findings[0].problem


# -- heartbeat monitor -------------------------------------------------


def test_heartbeat_monitor_suspicion_is_reversible():
    clock = FakeClock()
    monitor = HeartbeatMonitor(timeout_s=6.0, clock=clock)
    monitor.track("w0")
    monitor.track("w1")
    clock.now += 4.0
    monitor.beat("w0")
    clock.now += 3.0  # w1 last seen 7s ago, w0 3s ago
    assert monitor.alive("w0") and not monitor.alive("w1")
    assert monitor.suspects() == ["w1"]
    monitor.beat("w1")  # the partition heals
    assert monitor.alive("w1") and monitor.suspects() == []
    assert monitor.beats == 2
    monitor.forget("w1")
    assert not monitor.alive("w1")
