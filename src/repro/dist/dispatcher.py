"""The distributed campaign dispatcher: shard, lease, steal, aggregate.

One dispatcher owns one campaign run.  It expands the matrix into
scenarios, fingerprints each (:func:`~repro.dist.worker.scenario_fingerprint`),
journals every scheduling decision to the dispatch ledger
(:mod:`repro.dist.ledger`), and drives a fleet of workers — subprocess
``gpu-blob dist-worker`` children by default, in-process
:class:`~repro.dist.worker.SimulatedWorker` instances under test — one
scenario per worker at a time.

Failure handling, in order of escalation:

* **retry** — a scenario that *fails* (the worker reports ``failed``,
  or its result shard does not verify) goes back to pending with a
  deterministic-jitter backoff (:class:`~repro.core.runner.RetryPolicy`
  keyed on the fingerprint), attempt count preserved in the ledger.
* **steal** — a worker that stops beating (killed, partitioned, hung)
  or whose lease expires loses its scenario: the dispatcher first
  tries to *salvage* an already-written result shard (the worker may
  have finished before dying — completion is keyed by fingerprint, so
  the shard is the result), otherwise a healthy worker re-executes.
  The model is deterministic, so either path yields identical bytes.
* **dead-letter** — a scenario exhausting ``max_attempts`` is recorded
  ``dead`` in the ledger and reported as quarantined rows; the
  campaign completes degraded instead of failing.
* **local fallback** — when every worker process is gone (or the fleet
  stalls beyond ``4 x lease``), the dispatcher runs the remainder
  itself through the same supervised executor, exactly like a
  single-node campaign.

Restart story: kill -9 the dispatcher, re-run with ``resume=True`` —
the ledger replays, completed scenarios load their shards, in-flight
ones are stolen from the dead incarnation, and the report is
byte-identical.  Chaos plans (:mod:`repro.faults.distchaos`) inject
worker kills, partitions (messages deferred until the window heals —
which is how the late-duplicate-finish dedupe path gets exercised) and
slow workers, all seeded and replayable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from ..core.campaign import CampaignResult, CampaignSpec, expand_scenarios
from ..core.runner import RetryPolicy
from ..errors import ConfigError
from ..faults.distchaos import DistChaosKind, DistChaosPlan
from ..serve.metrics import LatencyHistogram
from .heartbeat import HeartbeatMonitor
from .ledger import LEDGER_FILENAME, DispatchLedger
from .worker import (
    SubprocessWorker,
    _shard_path,
    execute_scenario,
    load_result_shard,
    scenario_fingerprint,
    scenario_record,
    write_result_shard,
)

__all__ = ["DistStats", "run_campaign_distributed"]

#: Subdirectory of the dist dir holding result shard files.
RESULTS_DIRNAME = "results"


@dataclass
class DistStats:
    """Counters one distributed campaign run accumulates — the
    dispatcher's side of the observability story (the bench and the CI
    chaos job assert on these)."""

    workers: int = 0
    assignments: int = 0
    retries: int = 0
    steals: int = 0
    salvaged_shards: int = 0
    duplicate_finishes: int = 0
    dead_lettered: int = 0
    worker_deaths: int = 0
    heartbeats: int = 0
    replayed: int = 0
    local_fallback: int = 0
    backoff_s: float = 0.0
    #: assignment -> completion turnaround per scenario, reusing the
    #: serving layer's log-bucketed histogram so the bench and the
    #: daemon report latency in the same shape
    turnaround: LatencyHistogram = field(default_factory=LatencyHistogram)

    def snapshot(self) -> Dict[str, object]:
        return {
            "workers": self.workers,
            "assignments": self.assignments,
            "retries": self.retries,
            "steals": self.steals,
            "salvaged_shards": self.salvaged_shards,
            "duplicate_finishes": self.duplicate_finishes,
            "dead_lettered": self.dead_lettered,
            "worker_deaths": self.worker_deaths,
            "heartbeats": self.heartbeats,
            "replayed": self.replayed,
            "local_fallback": self.local_fallback,
            "backoff_s": round(self.backoff_s, 6),
            "turnaround": self.turnaround.snapshot(),
        }


@dataclass
class _Track:
    """Dispatcher-side bookkeeping for one scenario."""

    scenario: object
    fp: str
    state: str = "pending"  # pending | assigned | complete | dead
    attempt: int = 0
    worker: str = ""
    deadline: float = 0.0
    #: backoff gate: not assignable before this clock value
    not_before: float = 0.0
    #: clock value of the latest assignment (turnaround histogram);
    #: None until first assigned — 0.0 is a real fake-clock timestamp
    assigned_at: Optional[float] = None


def _default_make_workers(worker_count, worker_cmd, results_dir,
                          cache_dir, heartbeat_s):
    return [
        SubprocessWorker(
            f"w{i}", results_dir, cache_dir=cache_dir,
            heartbeat_s=heartbeat_s, command=worker_cmd,
        )
        for i in range(worker_count)
    ]


def run_campaign_distributed(
    campaign: CampaignSpec,
    *,
    dist_dir,
    worker_count: int = 2,
    worker_cmd: Optional[Sequence[str]] = None,
    make_workers: Optional[Callable] = None,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    cache_dir=None,
    strict: bool = False,
    resume: bool = False,
    lease_s: float = 15.0,
    heartbeat_s: Optional[float] = None,
    max_attempts: int = 3,
    poll_s: float = 0.05,
    chaos: Optional[DistChaosPlan] = None,
    retry: Optional[RetryPolicy] = None,
    clock=time.monotonic,
    sleep=time.sleep,
    log: Optional[Callable[[str], None]] = None,
) -> CampaignResult:
    """Run a campaign across ``worker_count`` workers; returns a
    :class:`~repro.core.campaign.CampaignResult` whose report is
    byte-identical to the single-node run (dead-lettered scenarios
    excepted — they appear as quarantined rows).

    ``make_workers(results_dir)`` overrides worker construction for
    tests (simulated workers, injected executors); ``clock``/``sleep``
    are injectable so the whole steal/backoff state machine runs under
    a fake clock.  The run's :class:`DistStats` snapshot is attached to
    the result as ``dist_stats``.
    """
    if worker_count < 1:
        raise ConfigError(f"worker_count must be >= 1, got {worker_count}")
    if max_attempts < 1:
        raise ConfigError(f"max_attempts must be >= 1, got {max_attempts}")
    if lease_s <= 0:
        raise ConfigError(f"lease_s must be > 0, got {lease_s}")
    if heartbeat_s is None:
        heartbeat_s = lease_s / 5.0
    if heartbeat_s <= 0:
        raise ConfigError(f"heartbeat_s must be > 0, got {heartbeat_s}")
    jobs = campaign.jobs if jobs is None else jobs
    backend_name = campaign.backend if backend is None else backend
    retry = retry if retry is not None else RetryPolicy()

    scenarios = expand_scenarios(campaign, strict=strict)
    records = {}
    tracks: Dict[str, _Track] = {}
    order: List[str] = []
    for scenario in scenarios:
        fp = scenario_fingerprint(scenario)
        if fp in tracks:
            raise ConfigError(
                f"campaign {campaign.name!r} expands to duplicate "
                f"scenarios (system {scenario.system!r}, iterations "
                f"{scenario.iterations}); distributed dispatch keys "
                "completion by scenario fingerprint and cannot tell "
                "them apart"
            )
        tracks[fp] = _Track(scenario=scenario, fp=fp)
        records[fp] = scenario_record(scenario, backend_name, jobs)
        order.append(fp)

    dist_dir = Path(dist_dir)
    results_dir = dist_dir / RESULTS_DIRNAME
    results_dir.mkdir(parents=True, exist_ok=True)
    ledger_path = dist_dir / LEDGER_FILENAME
    if not resume and ledger_path.exists():
        # a fresh run must not inherit a previous run's bookkeeping;
        # rotate (never delete) the stale ledger and drop this
        # campaign's stale shards so every scenario truly re-runs
        ledger_path.replace(ledger_path.with_name(ledger_path.name + ".old"))
        for fp in order:
            shard = _shard_path(results_dir, fp)
            if shard.exists():
                shard.unlink()

    stats = DistStats(workers=worker_count)
    out = CampaignResult(campaign=campaign, scenarios=scenarios)
    out.results = [None] * len(scenarios)

    ledger = DispatchLedger(
        ledger_path, campaign.name, campaign.fingerprint(),
        lease_s=lease_s, clock=clock,
    )

    def _complete(track: _Track, run, *, replayed: bool = False) -> None:
        ledger.complete(track.fp)  # False on a resume-replayed complete
        track.state = "complete"
        track.worker = ""
        out.results[track.scenario.index] = run
        if replayed:
            stats.replayed += 1
        else:
            out.executed += 1
            if track.assigned_at is not None:
                stats.turnaround.observe(max(0.0, clock() - track.assigned_at))

    def _dead_letter(track: _Track, reason: str) -> None:
        ledger.dead(track.fp, reason)
        track.state = "dead"
        track.worker = ""
        out.quarantined[track.scenario.index] = reason
        stats.dead_lettered += 1
        if log is not None:
            log(
                f"scenario {track.scenario.slug} dead-lettered after "
                f"{track.attempt} attempt(s): {reason}"
            )

    def _fail(track: _Track, reason: str, now: float) -> None:
        """A genuine scenario failure: back off, or dead-letter."""
        if track.attempt >= max_attempts:
            _dead_letter(track, reason)
            return
        delay = retry.backoff_s(track.attempt, (track.fp,))
        stats.backoff_s += delay
        track.state = "pending"
        track.worker = ""
        track.not_before = now + delay
        stats.retries += 1
        if log is not None:
            log(
                f"scenario {track.scenario.slug} attempt "
                f"{track.attempt} failed ({reason}); retrying in "
                f"{delay:.2f}s"
            )

    if resume:
        for fp, entry in ledger.state.entries.items():
            track = tracks.get(fp)
            if track is None:
                continue  # matrix shrank relative to ledger? fp-checked
            track.attempt = entry.attempt
            if entry.state == "dead":
                track.state = "dead"
                out.quarantined[track.scenario.index] = (
                    entry.reason or "attempts exhausted"
                )
                stats.dead_lettered += 1
            else:
                # complete -> load the shard; assigned -> the previous
                # dispatcher incarnation is gone, steal immediately
                # (its lease deadlines live in a dead clock domain)
                run = load_result_shard(results_dir, fp,
                                        track.scenario.config)
                if run is not None:
                    _complete(track, run, replayed=True)
                elif entry.state == "assigned":
                    if entry.attempt >= max_attempts:
                        _dead_letter(
                            track,
                            f"lost with worker {entry.worker} on final "
                            "attempt",
                        )
                    else:
                        stats.steals += 1

    # -- fleet ---------------------------------------------------------

    def _finished() -> bool:
        return all(t.state in ("complete", "dead") for t in tracks.values())

    if _finished():
        workers = []  # a fully-replayed resume needs no fleet
    elif make_workers is not None:
        workers = list(make_workers(results_dir))
    else:
        workers = _default_make_workers(
            worker_count, worker_cmd, results_dir, cache_dir, heartbeat_s,
        )
    stats.workers = len(workers)
    by_id = {w.worker_id: w for w in workers}
    monitor = HeartbeatMonitor(timeout_s=3.0 * heartbeat_s, clock=clock)
    for w in workers:
        monitor.track(w.worker_id)
    busy: Dict[str, str] = {}  # worker_id -> fp in flight
    dead_workers: set = set()
    assigned_counts: Dict[str, int] = {w.worker_id: 0 for w in workers}

    # -- chaos wiring --------------------------------------------------

    victim_id: Optional[str] = None
    chaos_trigger = 0
    chaos_fired = False
    defer_until: Dict[str, float] = {}  # worker_id -> drop/defer window end
    slow_delay = 0.0
    deferred: List[tuple] = []  # (release_time, worker_id, msg)
    if chaos is not None and workers:
        victim_id = workers[chaos.victim(len(workers))].worker_id
        # a small matrix may hand the victim only one assignment ever;
        # clamp the trigger so the fault is guaranteed to fire
        chaos_trigger = (
            1 if len(scenarios) <= len(workers)
            else chaos.trigger_assignment()
        )
        if log is not None:
            log(
                f"chaos plan {chaos.kind.value} (seed {chaos.seed}): "
                f"victim {victim_id}, trigger assignment #{chaos_trigger}"
            )

    def _run_local_fallback(now: float) -> None:
        """Every worker is gone (or the fleet stalled): finish the
        campaign on the dispatcher itself, same executor as a
        single-node run."""
        if log is not None:
            remaining = sum(
                1 for t in tracks.values()
                if t.state in ("pending", "assigned")
            )
            log(
                f"all workers lost; degrading to local execution for "
                f"{remaining} remaining scenario(s)"
            )
        for fp in order:
            track = tracks[fp]
            while track.state in ("pending", "assigned"):
                run = load_result_shard(results_dir, fp,
                                        track.scenario.config)
                if run is not None:
                    stats.salvaged_shards += 1
                    _complete(track, run)
                    break
                track.attempt += 1
                track.state = "assigned"
                track.assigned_at = clock()
                ledger.assign(fp, track.scenario.index, "local",
                              track.attempt)
                stats.assignments += 1
                stats.local_fallback += 1
                try:
                    run = execute_scenario(records[fp], cache_dir=cache_dir)
                except Exception as exc:  # ReproError family
                    _fail(track, str(exc), now)
                else:
                    write_result_shard(results_dir, fp, run)
                    _complete(track, run)

    last_progress = clock()

    try:
        while not _finished():
            now = clock()

            # 1. collect worker messages (chaos may defer them)
            inbound: List[tuple] = []
            matured = [m for m in deferred if m[0] <= now]
            deferred = [m for m in deferred if m[0] > now]
            inbound.extend((wid, msg) for _, wid, msg in matured)
            for w in workers:
                for msg in w.poll():
                    wid = w.worker_id
                    if wid in defer_until:
                        if now < defer_until[wid]:
                            release = (
                                defer_until[wid]
                                if slow_delay == 0.0
                                else now + slow_delay
                            )
                            deferred.append((release, wid, msg))
                            continue
                        del defer_until[wid]
                    inbound.append((wid, msg))

            # 2. handle messages
            for wid, msg in inbound:
                monitor.beat(wid)
                t = msg.get("t")
                if t == "heartbeat":
                    stats.heartbeats += 1
                if t in ("done", "failed"):
                    fp = msg.get("fp")
                    track = tracks.get(fp)
                    if busy.get(wid) == fp:
                        del busy[wid]
                    if track is None:
                        continue
                    if track.state in ("complete", "dead"):
                        stats.duplicate_finishes += 1
                        continue
                    if t == "failed":
                        _fail(track, str(msg.get("error", "worker error")),
                              now)
                        continue
                    run = load_result_shard(results_dir, fp,
                                            track.scenario.config)
                    if run is None:
                        _fail(track, "result shard missing or corrupt",
                              now)
                    else:
                        _complete(track, run)
                        last_progress = now
                # any beat renews the lease of the sender's in-flight
                # scenario once less than half of it remains
                fp = busy.get(wid)
                if fp is not None:
                    track = tracks[fp]
                    if (track.state == "assigned"
                            and track.deadline - now < lease_s / 2.0):
                        track.deadline = ledger.renew(fp, wid)

            # 3. detect lost workers / expired leases -> salvage or steal
            for w in workers:
                wid = w.worker_id
                if wid in dead_workers:
                    continue
                if not w.alive():
                    dead_workers.add(wid)
                    stats.worker_deaths += 1
                    if log is not None:
                        log(f"worker {wid} died")
            for fp, track in tracks.items():
                if track.state != "assigned" or track.worker == "local":
                    continue
                holder = by_id.get(track.worker)
                lost = (
                    holder is None
                    or not holder.alive()
                    or not monitor.alive(track.worker)
                    or now >= track.deadline
                )
                if not lost:
                    continue
                if busy.get(track.worker) == fp:
                    del busy[track.worker]
                run = load_result_shard(results_dir, fp,
                                        track.scenario.config)
                if run is not None:
                    # the holder finished before it was lost: the shard
                    # *is* the result (idempotent completion)
                    stats.salvaged_shards += 1
                    _complete(track, run)
                    last_progress = now
                    continue
                stats.steals += 1
                if log is not None:
                    log(
                        f"stealing scenario {track.scenario.slug} from "
                        f"lost worker {track.worker} (attempt "
                        f"{track.attempt})"
                    )
                if track.attempt >= max_attempts:
                    _dead_letter(track, f"lost with worker {track.worker}")
                else:
                    track.state = "pending"
                    track.worker = ""
                    track.not_before = now

            # 4. assign pending scenarios to idle, healthy workers
            idle = [
                w for w in workers
                if w.alive() and w.worker_id not in busy
                and w.worker_id not in dead_workers
                and monitor.alive(w.worker_id)
            ]
            ready = [
                tracks[fp] for fp in order
                if tracks[fp].state == "pending"
                and now >= tracks[fp].not_before
            ]
            for w, track in zip(idle, ready):
                wid = w.worker_id
                track.attempt += 1
                track.state = "assigned"
                track.worker = wid
                track.assigned_at = now
                track.deadline = ledger.assign(
                    track.fp, track.scenario.index, wid, track.attempt,
                )
                stats.assignments += 1
                last_progress = now
                try:
                    w.send({"t": "run", "scenario": records[track.fp]})
                except OSError:
                    # died between checks; step 3 will steal next tick
                    pass
                assigned_counts[wid] += 1
                if (chaos is not None and not chaos_fired
                        and wid == victim_id
                        and assigned_counts[wid] >= chaos_trigger):
                    chaos_fired = True
                    if chaos.kind is DistChaosKind.NODE_KILL:
                        if log is not None:
                            log(f"chaos: killing worker {wid}")
                        w.kill()
                    elif chaos.kind is DistChaosKind.PARTITION:
                        window = chaos.partition_window(lease_s)
                        defer_until[wid] = now + window
                        slow_delay = 0.0
                        if log is not None:
                            log(f"chaos: partitioning worker {wid} "
                                f"for {window:.1f}s")
                    else:  # SLOW_WORKER
                        window = chaos.partition_window(lease_s)
                        defer_until[wid] = now + window
                        slow_delay = chaos.slow_delay(lease_s)
                        if log is not None:
                            log(f"chaos: slowing worker {wid} by "
                                f"{slow_delay:.1f}s for {window:.1f}s")

            if _finished():
                break

            # 5. degradation: fleet gone, or stalled beyond 4 leases
            fleet_dead = all(
                w.worker_id in dead_workers or not w.alive()
                for w in workers
            )
            stalled = now - last_progress > 4.0 * lease_s
            if fleet_dead or stalled:
                if stalled and not fleet_dead and log is not None:
                    log(
                        f"no progress for {now - last_progress:.1f}s "
                        "with unreachable workers"
                    )
                _run_local_fallback(now)
                break

            sleep(poll_s)

        # drain the stragglers a chaos window was still holding (plus
        # anything buffered on the wire), so a stolen scenario's late
        # duplicate finish is observed and deduped, not just dropped
        for w in workers:
            deferred.extend((0.0, w.worker_id, m) for m in w.poll())
        for _, wid, msg in deferred:
            if msg.get("t") not in ("done", "failed"):
                continue
            track = tracks.get(msg.get("fp"))
            if track is not None and track.state in ("complete", "dead"):
                stats.duplicate_finishes += 1
    finally:
        for w in workers:
            try:
                w.close()
            except OSError:
                pass
        ledger.close()

    out.dist_stats = stats.snapshot()
    if log is not None:
        log(
            f"distributed campaign done: {out.executed} executed, "
            f"{stats.replayed} replayed, {stats.steals} steal(s), "
            f"{stats.duplicate_finishes} duplicate finish(es), "
            f"{stats.dead_lettered} dead-lettered"
        )
    return out
