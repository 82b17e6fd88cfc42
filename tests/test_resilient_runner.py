"""The resilient sweep loop: retries, quarantine, degradation, chaos.

The acceptance property of the fault-injection PR lives here: under
*any* seeded ``ChaosPlan`` with retries enabled the sweep completes
without raising, every requested cell is accounted for (sampled,
quarantined, or lost with the device), and with faults disabled the
runner is bit-identical to the classic loop.
"""

from __future__ import annotations

import contextlib
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AnalyticBackend,
    ChaosKind,
    ChaosPlan,
    DesBackend,
    FaultInjector,
    Kernel,
    Precision,
    RetryPolicy,
    RunConfig,
    TransferType,
    make_model,
    run_sweep,
)
from repro.core.records import ProblemSeries
from repro.core.threshold import threshold_for_series
from repro.errors import ConfigError, PartialSweepWarning

MODEL = make_model("lumi")

#: 5 swept sizes x (1 CPU + 3 transfers) = 20 cells, one series.
CONFIG = RunConfig(
    max_dim=64, step=16, iterations=8,
    kernels=(Kernel.GEMM,), precisions=(Precision.SINGLE,),
)
N_PARAMS = 5
N_CELLS = N_PARAMS * (1 + len(CONFIG.transfers))


@contextlib.contextmanager
def chaos_ctx():
    """Chaos sweeps legitimately warn; keep test output quiet."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PartialSweepWarning)
        yield


# -- classic behavior preserved --------------------------------------


def test_no_faults_identical_to_classic_loop():
    plain = run_sweep(AnalyticBackend(MODEL), CONFIG)
    zero = run_sweep(AnalyticBackend(MODEL), CONFIG, faults=ChaosPlan(),
                     retry=RetryPolicy(max_retries=5))
    assert plain == zero
    assert plain.complete and not plain.quarantine


def test_retry_policy_validation():
    with pytest.raises(ConfigError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ConfigError):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ConfigError):
        RetryPolicy(sample_timeout_s=0.0)
    with pytest.raises(ConfigError):
        RetryPolicy(backoff_factor=0.5)


def test_backoff_grows_exponentially_with_jitter():
    policy = RetryPolicy(backoff_base_s=1.0, backoff_factor=2.0, jitter=0.1)
    key = ("x",)
    waits = [policy.backoff_s(a, key) for a in (1, 2, 3)]
    for attempt, wait in zip((1, 2, 3), waits):
        base = 2.0 ** (attempt - 1)
        assert base * 0.9 <= wait <= base * 1.1
    assert waits[0] < waits[1] < waits[2]
    # deterministic
    assert waits == [policy.backoff_s(a, key) for a in (1, 2, 3)]


# -- retries and quarantine ------------------------------------------


def test_transient_faults_are_retried_to_success():
    plan = ChaosPlan.uniform(0.3, seed=5)
    with chaos_ctx():
        result = run_sweep(
            AnalyticBackend(MODEL), CONFIG, faults=plan,
            retry=RetryPolicy(max_retries=10),
        )
    # 10 retries vs rate 0.3: every cell eventually lands
    assert sum(len(s.all_samples()) for s in result.series) == N_CELLS
    assert not result.quarantine
    assert result.stats.retries > 0
    assert result.stats.backoff_s > 0.0


def test_exhausted_retries_quarantine_not_crash():
    plan = ChaosPlan(rates={ChaosKind.KERNEL: 0.999}, seed=1)
    with pytest.warns(PartialSweepWarning):
        result = run_sweep(
            AnalyticBackend(MODEL), CONFIG, faults=plan,
            retry=RetryPolicy(max_retries=1),
        )
    assert len(result.quarantine) == N_CELLS
    assert all(e.attempts == 2 for e in result.quarantine)
    assert all(e.error == "TransientKernelError" for e in result.quarantine)
    assert all(s.partial for s in result.series)
    assert not result.complete
    report = result.quarantine_report()
    assert len(report) == N_CELLS and report[0]["error"] == "TransientKernelError"


def test_sample_timeout_enforced_and_retried():
    plan = ChaosPlan(rates={ChaosKind.HANG: 0.4}, seed=9, hang_s=100.0)
    with chaos_ctx():
        result = run_sweep(
            AnalyticBackend(MODEL), CONFIG, faults=plan,
            retry=RetryPolicy(max_retries=8, sample_timeout_s=50.0),
        )
    # hung attempts are retried until a clean draw; no sample may keep
    # the poisoned timing
    assert sum(len(s.all_samples()) for s in result.series) == N_CELLS
    for s in result.series:
        for sample in s.all_samples():
            assert sample.seconds < 50.0


# -- degradation ------------------------------------------------------


class _BrokenDes(DesBackend):
    """DES backend whose GPU engine dies with an unexpected error."""

    def gpu_sample(self, *args, **kwargs):
        raise RuntimeError("event heap corrupted")


def test_des_failure_falls_back_to_analytic():
    with pytest.warns(PartialSweepWarning, match="analytic fallback"):
        result = run_sweep(_BrokenDes(MODEL), CONFIG)
    assert result.degraded
    assert not result.quarantine
    # the fallback produced every GPU cell the DES engine could not
    assert sum(len(s.all_samples()) for s in result.series) == N_CELLS
    reference = run_sweep(AnalyticBackend(MODEL), CONFIG)
    gpu = result.series[0].gpu_samples(TransferType.ONCE)
    ref_gpu = reference.series[0].gpu_samples(TransferType.ONCE)
    assert gpu == ref_gpu


def test_unexpected_error_without_fallback_quarantines():
    class Broken(AnalyticBackend):
        def gpu_sample(self, *args, **kwargs):
            raise RuntimeError("boom")

    with pytest.warns(PartialSweepWarning):
        result = run_sweep(Broken(MODEL), CONFIG)
    assert not result.degraded
    assert len(result.quarantine) == N_PARAMS * len(CONFIG.transfers)
    assert all(e.error == "RuntimeError" for e in result.quarantine)
    assert len(result.series[0].cpu) == N_PARAMS


def test_device_loss_continues_cpu_only():
    plan = ChaosPlan(rates={ChaosKind.DEVICE_LOST: 0.999}, seed=2)
    # The loss emits TWO warnings — the CPU-only continuation and the
    # quarantined observing cell.  pytest.warns(..., match=) re-emits
    # non-matching warnings (which -W error would escalate), so capture
    # everything and assert on the set.
    with pytest.warns(PartialSweepWarning) as caught:
        result = run_sweep(
            AnalyticBackend(MODEL), CONFIG, faults=plan,
            retry=RetryPolicy(max_retries=2),
        )
    messages = [str(w.message) for w in caught]
    assert any("CPU-only" in m for m in messages)
    assert any("quarantined sweep cell" in m for m in messages)
    assert result.device_lost
    series = result.series[0]
    assert series.partial
    assert len(series.cpu) == N_PARAMS  # the CPU sweep is complete
    assert sum(len(v) for v in series.gpu.values()) == 0
    # exactly one quarantine entry: the cell that observed the loss
    assert len(result.quarantine) == 1
    assert result.quarantine[0].error == "DeviceLostError"


# -- partial-sweep visibility ----------------------------------------


def test_unsupported_transfers_warn_and_are_recorded():
    backend = AnalyticBackend(MODEL)
    backend.gpu_transfers = (TransferType.ONCE,)
    with pytest.warns(PartialSweepWarning, match="always, unified"):
        result = run_sweep(backend, CONFIG)
    assert result.skipped_transfers == (
        TransferType.ALWAYS, TransferType.UNIFIED,
    )
    assert not result.complete
    assert result.series[0].transfer_types() == (TransferType.ONCE,)
    # explicitly CPU-only sweeps are not "partial" and must not warn
    cpu_cfg = RunConfig(
        max_dim=64, step=16, iterations=8, kernels=(Kernel.GEMM,),
        precisions=(Precision.SINGLE,), gpu_enabled=False,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", PartialSweepWarning)
        cpu_only = run_sweep(AnalyticBackend(MODEL), cpu_cfg)
    assert cpu_only.skipped_transfers == ()


def test_threshold_warns_on_missing_samples_instead_of_keyerror():
    result = run_sweep(AnalyticBackend(MODEL), CONFIG)
    series = result.series[0]
    gappy = ProblemSeries(
        problem_type=series.problem_type,
        precision=series.precision,
        iterations=series.iterations,
        cpu=list(series.cpu),
        gpu={
            TransferType.ONCE: series.gpu_samples(TransferType.ONCE)[:-2]
        },
    )
    with pytest.warns(PartialSweepWarning, match="2 of 5 sizes"):
        gappy_result = threshold_for_series(gappy, TransferType.ONCE)
    full = threshold_for_series(series, TransferType.ONCE)
    # computed over the surviving pairs, not crashed
    assert isinstance(gappy_result.found, bool)
    assert full.found or not gappy_result.found


# -- the chaos acceptance property -----------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    rate=st.floats(min_value=0.0, max_value=0.5),
)
def test_chaos_sweep_always_completes(seed, rate):
    """Under any seeded ChaosPlan with retries enabled, run_sweep returns."""
    plan = ChaosPlan.uniform(rate, seed=seed, device_lost_rate=rate / 20.0)
    backend = FaultInjector(AnalyticBackend(MODEL), plan)
    with chaos_ctx():
        result = run_sweep(
            backend, CONFIG,
            retry=RetryPolicy(max_retries=2, sample_timeout_s=20.0),
        )
        thresholds = result.thresholds()
    assert len(result.series) == 1
    sampled = sum(len(s.all_samples()) for s in result.series)
    if result.device_lost:
        assert sampled + len(result.quarantine) <= N_CELLS
        assert result.series[0].partial
    else:
        # every cell is accounted for: sampled or quarantined
        assert sampled + len(result.quarantine) == N_CELLS
    assert set(thresholds) <= {
        ("sgemm", "square", t) for t in TransferType
    }
    # determinism: the same plan replays to the same result
    with chaos_ctx():
        replay = run_sweep(
            FaultInjector(AnalyticBackend(MODEL), plan), CONFIG,
            retry=RetryPolicy(max_retries=2, sample_timeout_s=20.0),
        )
    assert replay == result
