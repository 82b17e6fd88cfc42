"""Crash safety of the three journal dialects, proven at every byte.

A crash can stop a journal at any byte.  For a small recorded sweep
checkpoint, serve WAL and dispatch ledger, every prefix of the file is
a possible crash, and for each one:

* opening or resuming never raises;
* the records the reader accepts are exactly the records that survive
  the writer's torn-tail repair (the complete lines of the prefix);
* finishing the work from there regenerates the uninterrupted journal
  byte for byte, and a resumed sweep returns the uninterrupted result.

The second half makes the repair itself fail partway through a write,
the way a full disk would, and checks that no verified record is lost.
"""

from __future__ import annotations

import builtins
import contextlib
import errno
import io
import json

import pytest

from repro import AnalyticBackend, RunConfig, make_model, run_sweep
from repro.core.fsck import fsck_journal
from repro.dist.ledger import DispatchLedger, load_ledger_state
from repro.faults.checkpoint import CheckpointReader, CheckpointWriter
from repro.serve.wal import WriteAheadLog, load_wal_state
from repro.types import Kernel, Precision, TransferType

BACKEND = AnalyticBackend(make_model("dawn"))
CK_CONFIG = RunConfig(
    max_dim=8, step=8, iterations=8,
    kernels=(Kernel.GEMM,), precisions=(Precision.SINGLE,),
    transfers=(TransferType.ONCE,),
)
QUERY = {"system": "dawn", "kernel": "gemm", "problem": "square",
         "precision": "single", "iterations": 8, "paradigm": "once"}


def _complete_lines(data: bytes) -> bytes:
    """What a torn-tail repair keeps: everything up to the last newline."""
    return data[: data.rfind(b"\n") + 1]


def _records(data: bytes) -> list:
    return [json.loads(line) for line in data.splitlines()]


# -- sweep checkpoints ------------------------------------------------


def _sample_keys(records) -> set:
    return {
        (r["kernel"], r["ident"], r["precision"], r["device"], r["transfer"],
         r["m"], r["n"], r["k"], r["iterations"])
        for r in records if r["t"] == "sample"
    }


def test_checkpoint_resumes_from_every_crash_offset(tmp_path):
    ck = tmp_path / "ck.jsonl"
    reference = run_sweep(BACKEND, CK_CONFIG, "dawn", checkpoint=ck)
    full = ck.read_bytes()
    header = full[: full.index(b"\n") + 1]
    assert len(_records(full)) == 5  # a header and four cells
    for offset in range(len(full) + 1):
        prefix = full[:offset]
        survivors = _complete_lines(prefix)
        ck.write_bytes(prefix)
        accepted = CheckpointReader.load(ck, CK_CONFIG, "dawn")
        assert set(accepted.samples) == _sample_keys(_records(survivors)), (
            f"offset {offset}"
        )
        CheckpointWriter(ck, CK_CONFIG, "dawn", resume=True).close()
        assert ck.read_bytes() == (survivors or header), f"offset {offset}"

        ck.write_bytes(prefix)
        resumed = run_sweep(
            BACKEND, CK_CONFIG, "dawn", checkpoint=ck, resume=True
        )
        assert resumed == reference, f"offset {offset}"
        assert resumed.stats.resumed_samples == len(accepted.samples)
        assert ck.read_bytes() == full, f"offset {offset}"


# -- serve WAL and dispatch ledger ------------------------------------


def _open_wal(path):
    return WriteAheadLog(path, owner="t:1", clock=lambda: 1000.0, sync=False)


WAL_OPS = [
    lambda wal: wal.append_accept("a" * 16, QUERY),
    lambda wal: wal.append_accept("b" * 16, dict(QUERY, iterations=32)),
    lambda wal: wal.renew(1),
    lambda wal: wal.mark_complete(1),
    lambda wal: wal.mark_dead(2, "attempts exhausted"),
    lambda wal: wal.append_accept("c" * 16, QUERY),
]


def _open_ledger(path):
    return DispatchLedger(path, "unit", "aaaa000011112222",
                          clock=lambda: 1000.0, sync=False)


LEDGER_OPS = [
    lambda ledger: ledger.assign("fp-a", 0, "w0", 1),
    lambda ledger: ledger.assign("fp-b", 1, "w1", 1),
    lambda ledger: ledger.renew("fp-a", "w0"),
    lambda ledger: ledger.complete("fp-a"),
    lambda ledger: ledger.dead("fp-b", "attempts exhausted"),
    lambda ledger: ledger.assign("fp-c", 2, "w0", 1),
]

DIALECTS = {
    "wal": (_open_wal, WAL_OPS, load_wal_state, lambda s: s.jobs),
    "ledger": (_open_ledger, LEDGER_OPS, load_ledger_state,
               lambda s: s.entries),
}


@pytest.mark.parametrize("dialect", sorted(DIALECTS))
def test_journal_replays_from_every_crash_offset(tmp_path, dialect):
    open_journal, ops, load_state, content = DIALECTS[dialect]
    path = tmp_path / f"{dialect}.jsonl"
    journal = open_journal(path)
    for op in ops:
        op(journal)
    journal.close()
    full = path.read_bytes()
    header = full[: full.index(b"\n") + 1]
    for offset in range(len(full) + 1):
        prefix = full[:offset]
        survivors = _complete_lines(prefix)
        path.write_bytes(prefix)
        accepted = load_state(path)
        assert accepted.corrupt_records == 0, f"offset {offset}"
        journal = open_journal(path)  # repairs the torn tail
        assert path.read_bytes() == (survivors or header), f"offset {offset}"
        assert content(journal.state) == content(accepted), f"offset {offset}"
        # a restarted process re-issues exactly the operations whose
        # records did not survive, and lands on the uninterrupted bytes
        done = max(0, len(_records(survivors)) - 1)
        for op in ops[done:]:
            op(journal)
        journal.close()
        assert path.read_bytes() == full, f"offset {offset}"


# -- a repair that fails partway ----------------------------------------


class _DiskFull:
    """A file handle whose next write lands half its bytes and fails."""

    def __init__(self, fh) -> None:
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()


def _fill_disk(monkeypatch) -> None:
    """From now on, every file opened for (over)writing runs out of
    space on its first write; appends and reads are untouched."""
    real_open = io.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _DiskFull(fh) if "w" in mode else fh

    monkeypatch.setattr(io, "open", failing_open)
    monkeypatch.setattr(builtins, "open", failing_open)


def _torn(path) -> bytes:
    """Append a torn record to ``path``; returns its intact bytes."""
    intact = path.read_bytes()
    path.write_bytes(intact + b'{"t":"sample","kernel":"ge')
    return intact


def _checkpoint(tmp_path):
    ck = tmp_path / "ck.jsonl"
    run_sweep(BACKEND, CK_CONFIG, "dawn", checkpoint=ck)
    return ck


def _journal(tmp_path, open_journal, ops):
    path = tmp_path / "journal.jsonl"
    journal = open_journal(path)
    for op in ops:
        op(journal)
    journal.close()
    return path


REPAIRS = {
    "checkpoint": (
        _checkpoint,
        lambda p: CheckpointWriter(p, CK_CONFIG, "dawn", resume=True).close(),
    ),
    "wal": (
        lambda tmp: _journal(tmp, _open_wal, WAL_OPS),
        lambda p: _open_wal(p).close(),
    ),
    "ledger": (
        lambda tmp: _journal(tmp, _open_ledger, LEDGER_OPS),
        lambda p: _open_ledger(p).close(),
    ),
}


@pytest.mark.parametrize("dialect", sorted(REPAIRS))
def test_failed_tail_repair_loses_no_record(tmp_path, monkeypatch, dialect):
    record, reopen = REPAIRS[dialect]
    path = record(tmp_path)
    intact = _torn(path)
    _fill_disk(monkeypatch)
    with contextlib.suppress(OSError):
        reopen(path)
    assert path.read_bytes().startswith(intact)


def test_failed_fsck_repair_loses_no_record(tmp_path, monkeypatch):
    ck = _checkpoint(tmp_path)
    lines = ck.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b":", b";", 1)  # one damaged record
    ck.write_bytes(b"".join(lines))
    _fill_disk(monkeypatch)
    with contextlib.suppress(OSError):
        fsck_journal(ck, repair=True)
    after = ck.read_bytes().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if i != 2:
            assert line in after
