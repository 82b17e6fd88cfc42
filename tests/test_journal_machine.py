"""A state machine over the three journal dialects.

``tests/test_crash_points.py`` crashes one recorded journal at every
byte offset, once.  Here hypothesis interleaves the operations a
journal meets across several crashes — append a record, tear the last
line at any byte, repair the tail, close and resume — so sequences
such as an append after a repair, or two tears in a row, are covered
too.  For the sweep checkpoint, the serve WAL and the dispatch ledger
alike, after every step:

* a reader accepts exactly the records whose complete line is still in
  the file: a torn record is lost, never half-read;
* resuming from the file as it stands never raises, and keeps exactly
  those records.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import RunConfig
from repro.dist.ledger import DispatchLedger, load_ledger_state
from repro.faults.checkpoint import CheckpointReader, CheckpointWriter
from repro.journal import repair_tail
from repro.serve.wal import WriteAheadLog, load_wal_state
from repro.types import Kernel, Precision, TransferType

CONFIG = RunConfig(
    max_dim=8, step=8, iterations=8,
    kernels=(Kernel.GEMM,), precisions=(Precision.SINGLE,),
    transfers=(TransferType.ONCE,),
)
QUERY = {"system": "dawn", "kernel": "gemm", "problem": "square",
         "precision": "single", "iterations": 8, "paradigm": "once"}


class JournalMachine(RuleBasedStateMachine):
    """One journal file and the records a reader must find in it.

    Dialects fill in :meth:`open`, :meth:`append_to` and
    :meth:`accepted`; record ``n`` carries the name ``r<n>``.
    """

    def __init__(self) -> None:
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="journal-machine-"))
        self.path = self.dir / "journal.jsonl"
        self.writer = None
        #: names of the records whose complete line is in the file
        self.model: list = []
        #: does the file start with a complete header line?
        self.has_header = False
        self.appended = 0

    # -- dialect hooks --------------------------------------------------

    def open(self, path: Path):
        """Open (or resume) a writer on ``path``."""
        raise NotImplementedError

    def append_to(self, writer, name: str) -> None:
        raise NotImplementedError

    def accepted(self, path: Path) -> list:
        """The record names a reader accepts from ``path``, in order."""
        raise NotImplementedError

    # -- rules ----------------------------------------------------------

    @initialize()
    def start(self) -> None:
        self.resume()

    @precondition(lambda self: self.writer is not None)
    @rule()
    def append(self) -> None:
        name = f"r{self.appended}"
        self.appended += 1
        self.append_to(self.writer, name)
        self.model.append(name)

    @precondition(lambda self: self.path.exists()
                  and self.path.stat().st_size > 0)
    @rule(lost=st.just(1) | st.integers(1, 400))
    def tear(self, lost: int) -> None:
        """Crash mid-write: the writer dies, and the last line loses
        its last ``lost`` bytes (all of them, if it is shorter).  A
        complete line loses at least its newline, and with it its
        record; an earlier tear loses at least one more byte."""
        self.close()
        data = self.path.read_bytes()
        start = data.rfind(b"\n", 0, len(data) - 1) + 1
        if data.endswith(b"\n"):
            if self.model:
                self.model.pop()
            else:
                self.has_header = False
        self.path.write_bytes(data[: max(start, len(data) - lost)])

    @rule()
    def repair(self) -> None:
        repair_tail(self.path)

    @rule()
    def resume(self) -> None:
        self.close()
        self.writer = self.open(self.path)
        self.has_header = True

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.writer = None

    def teardown(self) -> None:
        self.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- invariants -----------------------------------------------------

    @invariant()
    def reader_accepts_exactly_the_complete_lines(self) -> None:
        assert self.accepted(self.path) == self.model
        data = self.path.read_bytes()
        complete = data[: data.rfind(b"\n") + 1].count(b"\n")
        assert complete == len(self.model) + self.has_header

    @invariant()
    def resuming_keeps_exactly_the_complete_lines(self) -> None:
        probe = self.dir / "probe.jsonl"
        if self.path.exists():
            shutil.copyfile(self.path, probe)
        self.open(probe).close()
        assert self.accepted(probe) == self.model
        data = probe.read_bytes()
        assert data.endswith(b"\n")
        assert data.count(b"\n") == len(self.model) + 1  # the header
        probe.unlink()


class CheckpointMachine(JournalMachine):
    def open(self, path):
        return CheckpointWriter(path, CONFIG, "dawn", resume=True)

    def append_to(self, writer, name):
        writer.event("note", name)

    def accepted(self, path):
        if not path.exists():
            return []
        state = CheckpointReader.load(path, CONFIG, "dawn")
        return [detail for _, detail in state.events]


class WalMachine(JournalMachine):
    def open(self, path):
        return WriteAheadLog(path, owner="t:1", clock=lambda: 1000.0,
                             sync=False)

    def append_to(self, writer, name):
        writer.append_accept(name, QUERY)

    def accepted(self, path):
        state = load_wal_state(path)
        assert state.corrupt_records == 0
        return [state.jobs[i].key for i in sorted(state.jobs)]


class LedgerMachine(JournalMachine):
    def open(self, path):
        return DispatchLedger(path, "unit", "aaaa000011112222",
                              clock=lambda: 1000.0, sync=False)

    def append_to(self, writer, name):
        writer.assign(name, 0, "w0", 1)

    def accepted(self, path):
        state = load_ledger_state(path)
        assert state.corrupt_records == 0
        return list(state.entries)


SETTINGS = settings(max_examples=60, stateful_step_count=10, deadline=None)
TestCheckpointMachine = CheckpointMachine.TestCase
TestCheckpointMachine.settings = SETTINGS
TestWalMachine = WalMachine.TestCase
TestWalMachine.settings = SETTINGS
TestLedgerMachine = LedgerMachine.TestCase
TestLedgerMachine.settings = SETTINGS
