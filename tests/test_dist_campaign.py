"""Fault-tolerant distributed campaign execution.

The contract under test is the campaign layer's byte-level determinism
extended across process boundaries: shard a campaign over N workers —
then kill one, partition one, slow one, kill -9 the *dispatcher* and
resume — and the aggregated ``campaign_report.csv`` must still come
out byte-identical to the single-node run.  Scenarios that genuinely
cannot run dead-letter into quarantined rows and the campaign
completes *degraded* instead of failing.

Everything here drives :class:`~repro.dist.worker.SimulatedWorker`
fleets under a fake clock, so steal timeouts, lease renewals and
backoff gates are exact; one end-to-end test exercises real
``gpu-blob dist-worker`` subprocesses through the CLI.
"""

from __future__ import annotations

import json
import textwrap

import pytest

import repro.cli as cli
from repro.core.campaign import load_campaign, run_campaign, write_report
from repro.chaos import ChaosKind, ChaosPlan
from repro.core.runner import RetryPolicy
from repro.dist import (
    DispatchLedger,
    SimulatedWorker,
    run_campaign_distributed,
    scenario_fingerprint,
    write_result_shard,
)
from repro.dist.ledger import LEDGER_FILENAME
from repro.errors import ConfigError, TransientKernelError

SMALL = textwrap.dedent(
    """\
    schema = 1
    name = "dist-unit"

    [matrix]
    systems = ["dawn", "lumi", "isambard-ai"]
    kernels = ["gemm"]
    problems = ["square"]
    precisions = ["single"]
    transfers = ["once"]
    iterations = [4]

    [sweep]
    min_dim = 1
    max_dim = 64
    step = 16
    """
)

#: fast deterministic backoff so fake-clock tests converge quickly
FAST_RETRY = RetryPolicy(backoff_base_s=0.1, jitter=0.0)


class FakeClock:
    """A clock the dispatcher both reads and advances (via sleep)."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def campaign(tmp_path):
    path = tmp_path / "dist-unit.toml"
    path.write_text(SMALL)
    return load_campaign(path)


@pytest.fixture
def golden(campaign, tmp_path):
    """The single-node report bytes every distributed run must match."""
    result = run_campaign(campaign)
    out = tmp_path / "golden"
    write_report(result, out)
    return (
        (out / "campaign_report.csv").read_bytes(),
        (out / "campaign_report.json").read_bytes(),
    )


def run_dist(campaign, dist_dir, n_workers=2, executors=None, **kwargs):
    clock = FakeClock()

    def make_workers(results_dir):
        executor_for = executors or {}
        return [
            SimulatedWorker(f"w{i}", results_dir,
                            executor=executor_for.get(f"w{i}"))
            for i in range(n_workers)
        ]

    kwargs.setdefault("retry", FAST_RETRY)
    kwargs.setdefault("lease_s", 10.0)
    result = run_campaign_distributed(
        campaign,
        dist_dir=dist_dir,
        worker_count=n_workers,
        make_workers=kwargs.pop("make_workers", make_workers),
        clock=clock,
        sleep=clock.sleep,
        **kwargs,
    )
    return result, clock


def assert_identical_report(result, tmp_path, golden, name="dist"):
    out = tmp_path / name
    write_report(result, out)
    assert (out / "campaign_report.csv").read_bytes() == golden[0]
    assert (out / "campaign_report.json").read_bytes() == golden[1]


# -- clean distributed runs -------------------------------------------


def test_distributed_report_is_byte_identical(campaign, golden, tmp_path):
    result, _ = run_dist(campaign, tmp_path / "d", n_workers=2)
    assert result.complete and not result.quarantined
    assert result.executed == 3
    stats = result.dist_stats
    assert stats["assignments"] == 3 and stats["steals"] == 0
    assert stats["turnaround"]["count"] == 3
    assert_identical_report(result, tmp_path, golden)


def test_single_worker_degenerates_to_serial(campaign, golden, tmp_path):
    result, _ = run_dist(campaign, tmp_path / "d", n_workers=1)
    assert result.complete
    assert_identical_report(result, tmp_path, golden)


def test_validation_rejects_bad_knobs(campaign, tmp_path):
    for kwargs in (
        {"worker_count": 0},
        {"max_attempts": 0},
        {"lease_s": 0.0},
        {"heartbeat_s": -1.0},
    ):
        with pytest.raises(ConfigError):
            run_campaign_distributed(
                campaign, dist_dir=tmp_path / "d", **kwargs
            )


# -- chaos: worker kills, partitions, slow workers --------------------


def test_node_kill_steals_and_stays_byte_identical(
    campaign, golden, tmp_path
):
    result, _ = run_dist(
        campaign, tmp_path / "d", n_workers=3,
        chaos=ChaosPlan.parse("node-kill:7", "dist"),
    )
    assert result.complete and not result.quarantined
    stats = result.dist_stats
    assert stats["worker_deaths"] >= 1
    assert stats["steals"] + stats["salvaged_shards"] >= 1
    assert_identical_report(result, tmp_path, golden)


def test_partition_heals_and_dedupes_duplicate_finish(
    campaign, golden, tmp_path
):
    """A partitioned worker keeps computing: its scenario is stolen at
    lease expiry, re-executed, and the original's late ``done`` must be
    deduped (idempotent completion), never double-counted."""
    result, _ = run_dist(
        campaign, tmp_path / "d", n_workers=3,
        chaos=ChaosPlan.parse("partition:3", "dist"),
    )
    assert result.complete and not result.quarantined
    stats = result.dist_stats
    assert (
        stats["duplicate_finishes"] + stats["salvaged_shards"]
        + stats["steals"] >= 1
    )
    assert_identical_report(result, tmp_path, golden)


def test_slow_worker_chaos_completes_identical(campaign, golden, tmp_path):
    result, _ = run_dist(
        campaign, tmp_path / "d", n_workers=3,
        chaos=ChaosPlan.parse("slow-worker:5", "dist"),
    )
    assert result.complete and not result.quarantined
    assert_identical_report(result, tmp_path, golden)


def test_chaos_plan_parse_rejects_garbage():
    plan = ChaosPlan.parse("node-kill:42", "dist")
    assert plan.seed == 42
    with pytest.raises(ConfigError):
        ChaosPlan.parse("meteor-strike", "dist")
    with pytest.raises(ConfigError):
        ChaosPlan.parse("node-kill:not-a-seed", "dist")


def test_fleet_kinds_fire_once_and_alone():
    """A fleet kind is switched on with rate 1.0 and no other rate; a
    plan holds at most one, and a plan without one names no victim."""
    plan = ChaosPlan.parse("partition:3", "dist")
    assert plan.fleet_kind is ChaosKind.PARTITION
    assert plan.rates == {ChaosKind.PARTITION: 1.0}
    with pytest.raises(ConfigError):
        ChaosPlan(rates={ChaosKind.NODE_KILL: 0.5})
    with pytest.raises(ConfigError):
        ChaosPlan(rates={ChaosKind.NODE_KILL: 1.0, ChaosKind.PARTITION: 1.0})
    with pytest.raises(ConfigError):
        ChaosPlan.parse("heavy", "serve").victim(3)


# -- retries and dead-letters -----------------------------------------


def _failing_for(system):
    """An executor that cannot run one system's scenarios."""

    def executor(record, cache_dir=None):
        if record["system"] == system:
            raise TransientKernelError(f"injected: {system} unreachable")
        from repro.dist.worker import execute_scenario

        return execute_scenario(record, cache_dir=cache_dir)

    return executor

def test_transient_failure_retries_with_backoff(campaign, golden, tmp_path):
    calls = {"n": 0}

    def flaky(record, cache_dir=None):
        from repro.dist.worker import execute_scenario

        if record["system"] == "lumi" and calls["n"] == 0:
            calls["n"] += 1
            raise TransientKernelError("injected: first attempt fails")
        return execute_scenario(record, cache_dir=cache_dir)

    result, _ = run_dist(
        campaign, tmp_path / "d", n_workers=1,
        executors={"w0": flaky},
    )
    assert result.complete and not result.quarantined
    stats = result.dist_stats
    assert stats["retries"] == 1 and stats["backoff_s"] > 0
    assert_identical_report(result, tmp_path, golden)


def test_exhausted_attempts_dead_letter_as_quarantined_rows(
    campaign, tmp_path
):
    executors = {f"w{i}": _failing_for("lumi") for i in range(2)}
    result, _ = run_dist(
        campaign, tmp_path / "d", n_workers=2,
        executors=executors, max_attempts=2,
    )
    # the campaign completes *degraded*, not failing
    assert result.complete
    assert len(result.quarantined) == 1
    assert result.dist_stats["dead_lettered"] == 1
    (reason,) = result.quarantined.values()
    assert "lumi unreachable" in reason

    out = tmp_path / "report"
    write_report(result, out)
    csv_text = (out / "campaign_report.csv").read_text()
    assert "lumi,gemm,square,single,once,4,quarantined,,," in csv_text
    payload = json.loads((out / "campaign_report.json").read_text())
    assert list(payload["quarantined"].values()) == [reason]


# -- degradation to local execution -----------------------------------


def test_fleet_death_degrades_to_local_execution(
    campaign, golden, tmp_path
):
    def dead_fleet(results_dir):
        workers = [SimulatedWorker(f"w{i}", results_dir) for i in range(2)]
        for w in workers:
            w.kill()
        return workers

    result, _ = run_dist(
        campaign, tmp_path / "d", make_workers=dead_fleet,
    )
    assert result.complete and not result.quarantined
    stats = result.dist_stats
    assert stats["local_fallback"] == 3 and stats["worker_deaths"] == 2
    assert_identical_report(result, tmp_path, golden)


# -- dispatcher crash + resume ----------------------------------------


def scenario_fps(campaign):
    from repro.core.campaign import expand_scenarios

    return [(s, scenario_fingerprint(s)) for s in expand_scenarios(campaign)]


def seed_crashed_dispatcher_state(campaign, dist_dir):
    """Fabricate the on-disk state a kill -9'd dispatcher leaves: one
    scenario complete (ledger + shard), one assigned with a shard on
    disk (finished but unjournaled), one assigned with nothing."""
    results_dir = dist_dir / "results"
    results_dir.mkdir(parents=True)
    pairs = scenario_fps(campaign)
    ledger = DispatchLedger(
        dist_dir / LEDGER_FILENAME, campaign.name, campaign.fingerprint(),
        lease_s=10.0, sync=False,
    )
    done = run_campaign(campaign, stop_after=2)

    (s0, fp0), (s1, fp1), (s2, fp2) = pairs
    ledger.assign(fp0, s0.index, "w0", 1)
    ledger.complete(fp0)
    write_result_shard(results_dir, fp0, done.results[0])
    ledger.assign(fp1, s1.index, "w1", 1)  # finished, crash before journal
    write_result_shard(results_dir, fp1, done.results[1])
    ledger.assign(fp2, s2.index, "w0", 1)  # genuinely in flight
    ledger.close()


def test_resume_replays_ledger_to_identical_bytes(
    campaign, golden, tmp_path
):
    dist_dir = tmp_path / "d"
    seed_crashed_dispatcher_state(campaign, dist_dir)
    result, _ = run_dist(campaign, dist_dir, n_workers=2, resume=True)
    assert result.complete and not result.quarantined
    stats = result.dist_stats
    # fp0 journaled complete + fp1's orphan shard both replay; only the
    # genuinely in-flight scenario re-executes (stolen from the dead
    # incarnation)
    assert stats["replayed"] == 2
    assert result.executed == 1
    assert stats["steals"] >= 1
    assert_identical_report(result, tmp_path, golden)


def test_resume_of_a_finished_campaign_spawns_no_fleet(
    campaign, golden, tmp_path
):
    dist_dir = tmp_path / "d"
    first, _ = run_dist(campaign, dist_dir, n_workers=2)
    assert first.complete

    def exploding(results_dir):  # pragma: no cover - must not be called
        raise AssertionError("fully-replayed resume must not spawn workers")

    result, _ = run_dist(
        campaign, dist_dir, resume=True, make_workers=exploding,
    )
    assert result.complete and result.executed == 0
    assert result.dist_stats["replayed"] == 3
    assert result.dist_stats["workers"] == 0
    assert_identical_report(result, tmp_path, golden)


def test_resume_dead_letters_inflight_on_final_attempt(campaign, tmp_path):
    """An assigned ledger entry already at max_attempts with no shard
    cannot be retried on resume — it dead-letters instead of looping."""
    dist_dir = tmp_path / "d"
    results_dir = dist_dir / "results"
    results_dir.mkdir(parents=True)
    pairs = scenario_fps(campaign)
    ledger = DispatchLedger(
        dist_dir / LEDGER_FILENAME, campaign.name, campaign.fingerprint(),
        lease_s=10.0, sync=False,
    )
    (s0, fp0), (s1, fp1), (s2, fp2) = pairs
    ledger.assign(fp0, s0.index, "w0", 2)  # final attempt, no shard
    ledger.close()

    result, _ = run_dist(
        campaign, dist_dir, n_workers=2, resume=True, max_attempts=2,
    )
    assert result.complete
    assert result.quarantined == {s0.index: "lost with worker w0 on final "
                                            "attempt"}
    assert result.executed == 2


def test_fresh_run_rotates_a_stale_ledger(campaign, tmp_path):
    dist_dir = tmp_path / "d"
    first, _ = run_dist(campaign, dist_dir, n_workers=2)
    assert first.complete
    # a non-resume rerun must not inherit the old bookkeeping
    second, _ = run_dist(campaign, dist_dir, n_workers=2)
    assert second.complete and second.executed == 3
    assert second.dist_stats["replayed"] == 0
    assert (dist_dir / (LEDGER_FILENAME + ".old")).exists()


def test_resume_against_edited_matrix_is_vetoed(campaign, tmp_path):
    dist_dir = tmp_path / "d"
    first, _ = run_dist(campaign, dist_dir, n_workers=2)
    assert first.complete
    edited = load_campaign(
        write_toml(tmp_path, SMALL.replace("iterations = [4]",
                                           "iterations = [8]"))
    )
    with pytest.raises(ConfigError, match="belongs to campaign"):
        run_dist(edited, dist_dir, n_workers=2, resume=True)


def write_toml(tmp_path, text, name="edited.toml"):
    path = tmp_path / name
    path.write_text(text)
    return path


# -- CLI surface -------------------------------------------------------


def test_cli_dry_run_prints_matrix_and_executes_nothing(
    campaign, tmp_path, capsys
):
    path = tmp_path / "dist-unit.toml"
    rc = cli.main(["campaign", str(path), "--dry-run"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "3 scenario(s)" in captured
    assert "3 report cell(s)" in captured
    for system in ("dawn", "lumi", "isambard-ai"):
        assert f"{system}: 1 scenario(s)" in captured
    assert "dry run: nothing executed" in captured
    assert not (tmp_path / "results").exists()


def test_cli_distributed_subprocess_workers(campaign, golden, tmp_path):
    """End to end through real ``gpu-blob dist-worker`` children."""
    path = tmp_path / "dist-unit.toml"
    out = tmp_path / "out"
    rc = cli.main([
        "campaign", str(path),
        "--workers", "2",
        "--dist-dir", str(tmp_path / "dist"),
        "--lease", "30",
        "--output", str(out),
        "--no-cache",
    ])
    assert rc == 0
    assert (out / "campaign_report.csv").read_bytes() == golden[0]
    assert (out / "campaign_report.json").read_bytes() == golden[1]


def test_cli_rejects_checkpoints_with_distribution(campaign, tmp_path):
    path = tmp_path / "dist-unit.toml"
    rc = cli.main([
        "campaign", str(path),
        "--workers", "2",
        "--checkpoint-dir", str(tmp_path / "ck"),
    ])
    assert rc != 0


@pytest.mark.parametrize("plan, message", (
    ("meteor-strike", "valid: node-kill, partition, slow-worker"),
    ("heavy", "valid: node-kill, partition, slow-worker"),
    ("node-kill:x", "seed must be an integer"),
))
def test_cli_rejects_a_bad_chaos_plan_even_on_a_dry_run(
    campaign, tmp_path, capsys, plan, message
):
    """The plan is parsed before anything else runs, so an unknown
    name, a serve preset or a bad seed exits 2 up front."""
    path = tmp_path / "dist-unit.toml"
    rc = cli.main([
        "campaign", str(path), "--workers", "2", "--chaos-plan", plan,
        "--dry-run",
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert "dry run" not in captured.out
    assert message in captured.err


def test_cli_rejects_chaos_without_a_fleet(campaign, tmp_path, capsys):
    """A local campaign has no worker to attack: the plan used to be
    ignored and the campaign ran clean."""
    path = tmp_path / "dist-unit.toml"
    out = tmp_path / "out"
    rc = cli.main([
        "campaign", str(path), "--chaos-plan", "node-kill:7",
        "--output", str(out), "--no-cache", "--no-drift",
    ])
    assert rc == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()
