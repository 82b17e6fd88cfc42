"""JSONL sweep checkpointing: round-trip, torn tails, resume identity.

The headline property (a satellite of the fault-injection PR): interrupt
a chaos sweep at *any* sample, resume it from the checkpoint, and the
resumed :class:`RunResult` — series, quarantine list, flags — is
identical to an uninterrupted run of the same seeded plan.
"""

from __future__ import annotations

import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AnalyticBackend,
    ChaosPlan,
    FaultInjector,
    Kernel,
    Precision,
    RetryPolicy,
    RunConfig,
    make_model,
    run_sweep,
)
from repro.backends.base import Backend
from repro.core.csvio import write_run
from repro.errors import CheckpointError, PartialSweepWarning
from repro.faults.checkpoint import CheckpointReader, config_fingerprint

MODEL = make_model("lumi")
CONFIG = RunConfig(
    max_dim=64, step=16, iterations=8,
    kernels=(Kernel.GEMM,), precisions=(Precision.SINGLE,),
)
RETRY = RetryPolicy(max_retries=2, sample_timeout_s=60.0)
PLAN = ChaosPlan.uniform(0.2, seed=13)


class Interrupting(Backend):
    """Raises KeyboardInterrupt after N backend calls — a simulated
    mid-sweep kill."""

    def __init__(self, inner: Backend, fail_after: int) -> None:
        self.inner = inner
        self.fail_after = fail_after
        self.calls = 0

    @property
    def gpu_transfers(self) -> tuple:
        return self.inner.gpu_transfers

    @property
    def system_name(self):
        return getattr(self.inner, "system_name", None)

    def _tick(self) -> None:
        self.calls += 1
        if self.calls > self.fail_after:
            raise KeyboardInterrupt

    def cpu_sample(self, *args, **kwargs):
        self._tick()
        return self.inner.cpu_sample(*args, **kwargs)

    def gpu_sample(self, *args, **kwargs):
        self._tick()
        return self.inner.gpu_sample(*args, **kwargs)


def chain(plan=PLAN):
    """A fresh injector chain (fresh attempt counters) per run."""
    return FaultInjector(AnalyticBackend(MODEL), plan)


def quiet_sweep(backend, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PartialSweepWarning)
        return run_sweep(backend, CONFIG, retry=RETRY, **kwargs)


# -- basic round-trip -------------------------------------------------


def test_checkpoint_full_replay_is_identical(tmp_path):
    ck = tmp_path / "ck.jsonl"
    first = quiet_sweep(chain(), checkpoint=ck)
    replay = quiet_sweep(chain(), checkpoint=ck, resume=True)
    assert replay == first
    # every cell came from the journal, none were re-sampled
    sampled = sum(len(s.all_samples()) for s in first.series)
    assert replay.stats.resumed_samples == sampled
    assert replay.stats.retries == 0


def test_checkpoint_written_incrementally(tmp_path):
    ck = tmp_path / "ck.jsonl"
    quiet_sweep(chain(), checkpoint=ck)
    lines = [json.loads(line) for line in ck.read_text().splitlines()]
    assert lines[0]["t"] == "header"
    assert lines[0]["fingerprint"] == config_fingerprint(
        CONFIG, MODEL.spec.name
    )
    kinds = {rec["t"] for rec in lines[1:]}
    assert "sample" in kinds


def test_checkpoint_csv_bytes_identical(tmp_path):
    ck = tmp_path / "ck.jsonl"
    ref = quiet_sweep(chain(), checkpoint=ck)
    resumed = quiet_sweep(chain(), checkpoint=ck, resume=True)
    ref_dir, res_dir = tmp_path / "ref", tmp_path / "res"
    write_run(ref, ref_dir)
    write_run(resumed, res_dir)
    ref_files = sorted(p.name for p in ref_dir.iterdir())
    assert ref_files == sorted(p.name for p in res_dir.iterdir())
    for name in ref_files:
        assert (ref_dir / name).read_bytes() == (res_dir / name).read_bytes()


def test_resume_refuses_foreign_checkpoint(tmp_path):
    ck = tmp_path / "ck.jsonl"
    quiet_sweep(chain(), checkpoint=ck)
    other = RunConfig(
        max_dim=128, step=16, iterations=8,
        kernels=(Kernel.GEMM,), precisions=(Precision.SINGLE,),
    )
    with pytest.raises(CheckpointError, match="different sweep"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PartialSweepWarning)
            run_sweep(chain(), other, retry=RETRY, checkpoint=ck, resume=True)


def test_reader_rejects_corruption_and_tolerates_torn_tail(tmp_path):
    ck = tmp_path / "ck.jsonl"
    quiet_sweep(chain(), checkpoint=ck)
    name = MODEL.spec.name
    # a torn final line (crash artifact) is dropped silently
    good = ck.read_text()
    ck.write_text(good + '{"t": "sample", "kernel": "ge')
    state = CheckpointReader.load(ck, CONFIG, name)
    assert state.samples
    # corruption in the middle is an error
    lines = good.splitlines()
    lines[2] = "not json"
    ck.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match="corrupt at line 3"):
        CheckpointReader.load(ck, CONFIG, name)
    # missing header likewise
    ck.write_text("\n".join(good.splitlines()[1:]) + "\n")
    with pytest.raises(CheckpointError, match="header"):
        CheckpointReader.load(ck, CONFIG, name)


def test_resume_after_torn_tail_still_completes(tmp_path):
    ck = tmp_path / "ck.jsonl"
    ref = quiet_sweep(chain(), checkpoint=ck)
    ck.write_text(ck.read_text() + '{"t": "sam')  # torn write, no newline
    resumed = quiet_sweep(chain(), checkpoint=ck, resume=True)
    assert resumed == ref


def test_resume_without_existing_checkpoint_starts_fresh(tmp_path):
    ck = tmp_path / "does-not-exist-yet.jsonl"
    result = quiet_sweep(chain(), checkpoint=ck, resume=True)
    assert ck.exists()
    assert result.stats.resumed_samples == 0


# -- the interrupt/resume acceptance property ------------------------


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5_000),
    fail_after=st.integers(min_value=0, max_value=45),
)
def test_interrupted_resume_identical_to_uninterrupted(seed, fail_after):
    """Kill the sweep at any backend call; the resumed run must equal
    the uninterrupted one, stats aside."""
    plan = ChaosPlan.uniform(0.25, seed=seed, device_lost_rate=0.01)
    ref = quiet_sweep(chain(plan))
    with tempfile.TemporaryDirectory() as td:
        ck = Path(td) / "ck.jsonl"
        try:
            quiet_sweep(
                Interrupting(chain(plan), fail_after), checkpoint=ck
            )
            interrupted = False
        except KeyboardInterrupt:
            interrupted = True
        resumed = quiet_sweep(chain(plan), checkpoint=ck, resume=True)
    assert resumed.series == ref.series
    assert resumed.quarantine == ref.quarantine
    assert resumed.device_lost == ref.device_lost
    assert resumed == ref
    if not interrupted:
        assert resumed.stats.resumed_samples == sum(
            len(s.all_samples()) for s in ref.series
        )
