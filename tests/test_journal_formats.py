"""On-disk format pins: the exact bytes of every checksummed artifact.

The files under ``tests/data/formats/`` were written by the journal and
envelope writers with a fixed clock, a fixed lease owner and
hand-built samples (no model in the loop, so a recalibration cannot
move them).  The writers must keep producing them byte for byte, and
the readers must keep loading them: a checkpoint, WAL, ledger, cache
entry or result shard written by an older build has to resume under a
newer one.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.core.config import RunConfig
from repro.core.problem import get_problem_type
from repro.core.records import PerfSample, ProblemSeries, QuarantineEntry
from repro.core.runner import RunResult
from repro.core.sweepcache import load_cached_run, store_run
from repro.dist.ledger import DispatchLedger, load_ledger_state
from repro.dist.worker import load_result_shard, write_result_shard
from repro.faults.checkpoint import (
    CheckpointReader,
    CheckpointWriter,
    sample_key,
)
from repro.serve.wal import WriteAheadLog, load_wal_state
from repro.types import DeviceKind, Dims, Kernel, Precision, TransferType

DATA = Path(__file__).parent / "data" / "formats"

SYSTEM = "dawn"
CONFIG = RunConfig(
    max_dim=32, step=16, iterations=8,
    kernels=(Kernel.GEMM,), precisions=(Precision.SINGLE,),
)
SQUARE = get_problem_type(Kernel.GEMM, "square")
SHARD_FP = "aaaa000011112222"


class FixedClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class TokenBackend:
    """Just enough of a backend for the sweep cache to key an entry."""

    cache_token = "pinned-format-token"


def _sample(device, transfer, d, seconds, gflops, ok=True):
    return PerfSample(device, transfer, Dims(d, d, d), 8, seconds, gflops, ok)


SAMPLES = [
    _sample(DeviceKind.CPU, None, 1, 1.2345678901234567e-06, 0.0129600001, True),
    _sample(DeviceKind.CPU, None, 16, 3.3e-06, 19.859393939393938, True),
    _sample(DeviceKind.GPU, TransferType.ONCE, 1, 4.0625e-05, 0.000393846, None),
    _sample(DeviceKind.GPU, TransferType.ONCE, 16, 4.1e-05, 1.5984390243902439),
]
SHARD_SAMPLE = _sample(DeviceKind.CPU, None, 32, 1.1e-05, 47.66254545454545)
QUARANTINED = QuarantineEntry(
    kernel=Kernel.GEMM, ident="square", precision=Precision.SINGLE,
    device=DeviceKind.GPU, transfer=TransferType.ONCE, dims=Dims(32, 32, 32),
    iterations=8, attempts=2, error="SampleTimeoutError",
    message="sample exceeded 10.0 s — retry budget exhausted",
)
QUERY = {
    "system": "dawn", "kernel": "gemm", "problem": "square",
    "precision": "single", "iterations": 8, "paradigm": "once",
    "backend": "analytic", "min_dim": 1, "max_dim": 64, "step": 16,
}


def _key(sample):
    return sample_key(Kernel.GEMM, "square", Precision.SINGLE,
                      sample.device, sample.transfer, sample.dims, 8)


def _result() -> RunResult:
    series = ProblemSeries(SQUARE, Precision.SINGLE, 8)
    for sample in SAMPLES + [SHARD_SAMPLE]:
        series.add(sample)
    return RunResult(config=CONFIG, system_name=SYSTEM, series=[series])


# -- the writers, driven the same way every time -----------------------


def write_checkpoint(path: Path) -> None:
    writer = CheckpointWriter(path, CONFIG, SYSTEM)
    for sample in SAMPLES:
        writer.sample(_key(sample), sample)
    writer.quarantine(QUARANTINED)
    writer.event("degraded", "fell back to the host backend")
    # a worker's shard journal, merged the way the parallel executor does
    shard = path.with_name(path.name + ".shard-0")
    worker = CheckpointWriter(shard, CONFIG, SYSTEM)
    worker.sample(_key(SHARD_SAMPLE), SHARD_SAMPLE)
    worker.event("shard-retry", "shard 0 attempt 1 failed: worker died")
    worker.close()
    writer.merge_shard(shard)
    writer.close()


def write_wal(path: Path) -> None:
    clock = FixedClock()
    wal = WriteAheadLog(path, owner="pin:1", lease_s=120.0, clock=clock,
                        sync=False)
    first = wal.append_accept("a" * 64, QUERY)
    second = wal.append_accept("b" * 64, dict(QUERY, iterations=32), 2)
    clock.now += 7.25
    wal.renew(first)
    wal.mark_complete(first)
    wal.mark_dead(second, "attempts exhausted")
    wal.append_accept("c" * 64, dict(QUERY, kernel="gemv"))
    wal.close()


def write_ledger(path: Path) -> None:
    clock = FixedClock()
    ledger = DispatchLedger(path, "pinned", "ffff000011112222", lease_s=30.0,
                            clock=clock, sync=False)
    ledger.assign("fp-a", 0, "w0", 1)
    ledger.assign("fp-b", 1, "w1", 1)
    clock.now += 12.5
    ledger.renew("fp-a", "w0")
    ledger.complete("fp-a")
    ledger.assign("fp-b", 1, "w0", 2)
    ledger.dead("fp-b", "attempts exhausted")
    ledger.assign("fp-c", 2, "w1", 1)
    ledger.close()


def write_cache_entry(cache_dir: Path) -> Path:
    return store_run(cache_dir, TokenBackend(), _result())


def write_shard(results_dir: Path) -> Path:
    return write_result_shard(results_dir, SHARD_FP, _result())


JOURNALS = {
    "checkpoint.jsonl": write_checkpoint,
    "serve-wal.jsonl": write_wal,
    "ledger.jsonl": write_ledger,
}


# -- writers are byte-identical ----------------------------------------


@pytest.mark.parametrize("name", sorted(JOURNALS))
def test_journal_bytes_are_pinned(tmp_path, name):
    JOURNALS[name](tmp_path / name)
    assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()


def test_cache_entry_bytes_are_pinned(tmp_path):
    path = write_cache_entry(tmp_path / "cache")
    (golden,) = (DATA / "cache").glob("*.json")
    assert path.name == golden.name
    assert path.read_bytes() == golden.read_bytes()


def test_result_shard_bytes_are_pinned(tmp_path):
    path = write_shard(tmp_path)
    golden = DATA / "shards" / f"{SHARD_FP}.json"
    assert path.name == golden.name
    assert path.read_bytes() == golden.read_bytes()


# -- readers load the pinned files --------------------------------------


def test_pinned_checkpoint_loads(tmp_path):
    state = CheckpointReader.load(DATA / "checkpoint.jsonl", CONFIG, SYSTEM)
    assert state.samples == {
        _key(s): s for s in SAMPLES + [SHARD_SAMPLE]
    }
    assert state.quarantine == [QUARANTINED]
    assert state.events == [
        ("degraded", "fell back to the host backend"),
        ("shard-retry", "shard 0 attempt 1 failed: worker died"),
    ]
    # and the writer resumes it without touching a byte
    ck = tmp_path / "checkpoint.jsonl"
    shutil.copyfile(DATA / "checkpoint.jsonl", ck)
    CheckpointWriter(ck, CONFIG, SYSTEM, resume=True).close()
    assert ck.read_bytes() == (DATA / "checkpoint.jsonl").read_bytes()


def test_pinned_wal_loads(tmp_path):
    state = load_wal_state(DATA / "serve-wal.jsonl")
    assert state.has_header and not state.torn_tail
    assert state.corrupt_records == 0
    assert state.counts() == {"pending": 1, "complete": 1, "dead": 1}
    (job,) = state.pending()
    assert (job.job_id, job.key, job.owner) == (3, "c" * 64, "pin:1")
    assert job.query == dict(QUERY, kernel="gemv")
    assert job.deadline == 1127.25
    wal_path = tmp_path / "serve-wal.jsonl"
    shutil.copyfile(DATA / "serve-wal.jsonl", wal_path)
    wal = WriteAheadLog(wal_path, owner="pin:2", sync=False)
    assert [j.job_id for j in wal.pending()] == [3]
    wal.close()
    assert wal_path.read_bytes() == (DATA / "serve-wal.jsonl").read_bytes()


def test_pinned_ledger_loads(tmp_path):
    state = load_ledger_state(DATA / "ledger.jsonl")
    assert state.has_header and not state.torn_tail
    assert state.corrupt_records == 0
    assert (state.campaign_name, state.campaign_fingerprint) == (
        "pinned", "ffff000011112222"
    )
    assert state.counts() == {"assigned": 1, "complete": 1, "dead": 1}
    assert state.entries["fp-b"].reason == "attempts exhausted"
    assert state.entries["fp-a"].deadline == 1042.5
    path = tmp_path / "ledger.jsonl"
    shutil.copyfile(DATA / "ledger.jsonl", path)
    ledger = DispatchLedger(path, "pinned", "ffff000011112222", sync=False)
    assert [e.fp for e in ledger.state.in_flight()] == ["fp-c"]
    ledger.close()
    assert path.read_bytes() == (DATA / "ledger.jsonl").read_bytes()


def test_pinned_cache_entry_loads(tmp_path):
    (golden,) = (DATA / "cache").glob("*.json")
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    shutil.copyfile(golden, cache_dir / golden.name)
    result = load_cached_run(cache_dir, CONFIG, SYSTEM, TokenBackend())
    assert result is not None
    assert result.series == _result().series
    assert result.stats.cached_samples == len(SAMPLES) + 1


def test_pinned_result_shard_loads():
    result = load_result_shard(DATA / "shards", SHARD_FP, CONFIG, SYSTEM)
    assert result is not None
    assert result.series == _result().series
