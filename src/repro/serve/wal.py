"""Durable write-ahead journal of accepted serve jobs.

``gpu-blob serve`` accepts a cache-miss threshold query *before* the
sweep behind it has run; until this module existed, a daemon crash
silently dropped every such accepted job.  The WAL closes that window:
an ``accept`` record is flushed and fsynced to disk before the job is
queued, a ``complete`` record lands when the sweep's result is safely
in the content-addressed cache, and on startup the daemon replays
every accepted-but-incomplete entry through the supervised executor —
so ``kill -9`` mid-burst followed by a restart still answers every
accepted job, byte-identical to an uninterrupted run.

The line format, the torn-tail repair on open and the ``.bad``
rotation of an unusable file belong to :mod:`repro.journal`.  Unlike a
sweep checkpoint, which refuses to resume from mid-file corruption,
the WAL loads *leniently*: a record that fails its checksum is skipped
and counted (``corrupt_records``), never allowed to take the serving
daemon down — ``gpu-blob fsck`` audits and repairs the damage offline.

Record types (all with ``cs``):

* ``header`` — ``kind: "serve-wal"`` + format version; distinguishes a
  WAL from a sweep checkpoint for ``fsck``.
* ``accept`` — one accepted cache-miss job: monotonically increasing
  ``id``, the sweep-cache ``key`` it computes, the normalized ``query``
  body needed to re-run it, and a lease (``owner``, ``deadline``,
  ``attempt``).
* ``renew`` — a restarted daemon taking over a pending job: bumps the
  lease and the attempt count (the replay backoff policy keys on it).
* ``complete`` — the job's result reached the sweep cache.  Written at
  most once per id (:meth:`WriteAheadLog.mark_complete` is
  idempotent).
* ``dead`` — the job was abandoned: attempts exhausted, its query no
  longer parses, or the queue rejected it.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..journal import JOURNAL_VERSIONS, ChecksummedJournal, scan_journal

__all__ = [
    "WAL_KIND",
    "WAL_VERSION",
    "WalJob",
    "WalState",
    "WriteAheadLog",
    "default_owner",
    "flip_byte_in_last_record",
    "load_wal_state",
]

#: The header ``kind`` marker that distinguishes a serve WAL from a
#: sweep checkpoint journal (both are checksummed JSONL).
WAL_KIND = "serve-wal"

#: Format version of the serve WAL journal.
WAL_VERSION = JOURNAL_VERSIONS[WAL_KIND]


def default_owner() -> str:
    """The lease owner id of this daemon process."""
    return f"{socket.gethostname()}:{os.getpid()}"


@dataclass
class WalJob:
    """One accepted job as reconstructed from the journal."""

    job_id: int
    key: str
    query: dict
    attempt: int
    owner: str
    deadline: float
    state: str = "pending"  # "pending" | "complete" | "dead"

    def expired(self, now: float) -> bool:
        """Has the lease lapsed (the owner should have finished by now)?"""
        return now >= self.deadline


@dataclass
class WalState:
    """Everything a reader (the replaying daemon, fsck, a test)
    reconstructs from one WAL file."""

    jobs: Dict[int, WalJob] = field(default_factory=dict)
    #: records skipped because their checksum or JSON did not verify
    corrupt_records: int = 0
    #: a torn final line was present (and ignored)
    torn_tail: bool = False
    #: the file had a valid serve-wal header
    has_header: bool = False

    @property
    def next_id(self) -> int:
        return max(self.jobs, default=0) + 1

    def pending(self) -> List[WalJob]:
        """Accepted jobs with no ``complete``/``dead`` record, oldest
        first — exactly what a restarted daemon must replay."""
        return sorted(
            (j for j in self.jobs.values() if j.state == "pending"),
            key=lambda j: j.job_id,
        )

    def counts(self) -> Dict[str, int]:
        out = {"pending": 0, "complete": 0, "dead": 0}
        for job in self.jobs.values():
            out[job.state] += 1
        return out


def _apply_record(state: WalState, rec: dict) -> bool:
    """Fold one verified record into ``state``; False if malformed."""
    kind = rec.get("t")
    if kind == "accept":
        try:
            job = WalJob(
                job_id=int(rec["id"]),
                key=str(rec["key"]),
                query=dict(rec["query"]),
                attempt=int(rec["attempt"]),
                owner=str(rec["owner"]),
                deadline=float(rec["deadline"]),
            )
        except (KeyError, TypeError, ValueError):
            return False
        state.jobs[job.job_id] = job
        return True
    if kind == "renew":
        job = state.jobs.get(rec.get("id"))
        if job is None:
            return True  # renew for a lost accept: harmless
        try:
            job.attempt = int(rec["attempt"])
            job.owner = str(rec["owner"])
            job.deadline = float(rec["deadline"])
        except (KeyError, TypeError, ValueError):
            return False
        return True
    if kind in ("complete", "dead"):
        job = state.jobs.get(rec.get("id"))
        if job is not None and job.state == "pending":
            job.state = "complete" if kind == "complete" else "dead"
        return True
    return False


def load_wal_state(path) -> WalState:
    """Parse one WAL file, skipping (and counting) damaged records.

    A missing file is an empty state.  Damage never raises, because the
    serving daemon must come back up even when its journal took a hit
    (``gpu-blob fsck --repair`` moves the damage aside offline).
    """
    return _fold(scan_journal(path, WAL_KIND, WAL_VERSION))


def _fold(scan) -> WalState:
    state = WalState(
        corrupt_records=scan.corrupt_records,
        torn_tail=scan.torn_tail,
        has_header=scan.header is not None,
    )
    for rec in scan.records:
        if not _apply_record(state, rec):
            state.corrupt_records += 1
    return state


class WriteAheadLog(ChecksummedJournal):
    """Append-only, fsynced journal of accepted serve jobs.

    See :class:`~repro.journal.ChecksummedJournal` for the
    open/repair/rotate behavior; ``/readyz`` reports :attr:`healthy`.
    """

    kind = WAL_KIND
    version = WAL_VERSION

    def __init__(
        self,
        path,
        owner: Optional[str] = None,
        lease_s: float = 120.0,
        clock=time.time,
        sync: bool = True,
    ) -> None:
        if lease_s <= 0:
            raise ValueError(f"lease_s must be > 0, got {lease_s}")
        self.owner = owner if owner is not None else default_owner()
        self.lease_s = lease_s
        super().__init__(path, clock=clock, sync=sync)
        self.state = _fold(self.scan)
        self._next_id = self.state.next_id

    def append_accept(self, key: str, query: dict, attempt: int = 1) -> int:
        """Journal one accepted job; returns its id.  Must be called
        *before* the job is queued — that is the write-ahead part."""
        job_id = self._next_id
        deadline = self.clock() + self.lease_s
        self._append({
            "t": "accept",
            "id": job_id,
            "key": key,
            "query": query,
            "attempt": attempt,
            "owner": self.owner,
            "deadline": deadline,
        })
        self._next_id += 1
        self.state.jobs[job_id] = WalJob(
            job_id=job_id, key=key, query=dict(query), attempt=attempt,
            owner=self.owner, deadline=deadline,
        )
        return job_id

    def renew(self, job_id: int) -> int:
        """Take over a pending job (new lease, attempt+1); returns the
        new attempt number."""
        job = self.state.jobs[job_id]
        attempt = job.attempt + 1
        deadline = self.clock() + self.lease_s
        self._append({
            "t": "renew",
            "id": job_id,
            "attempt": attempt,
            "owner": self.owner,
            "deadline": deadline,
        })
        job.attempt = attempt
        job.owner = self.owner
        job.deadline = deadline
        return attempt

    def mark_complete(self, job_id: int) -> bool:
        """Journal completion exactly once: False (and no record) when
        the job is unknown or already complete/dead."""
        job = self.state.jobs.get(job_id)
        if job is None or job.state != "pending":
            return False
        self._append({"t": "complete", "id": job_id})
        job.state = "complete"
        return True

    def mark_dead(self, job_id: int, reason: str = "") -> bool:
        """Journal abandonment (attempts exhausted, unparseable query,
        queue rejection); idempotent like :meth:`mark_complete`."""
        job = self.state.jobs.get(job_id)
        if job is None or job.state != "pending":
            return False
        self._append({"t": "dead", "id": job_id, "reason": reason})
        job.state = "dead"
        return True

    # -- read side -----------------------------------------------------

    def pending(self) -> List[WalJob]:
        return self.state.pending()

    def counts(self) -> Dict[str, int]:
        return self.state.counts()

    def lease_counts(self) -> Tuple[int, int]:
        """(active, expired) leases over the pending jobs."""
        now = self.clock()
        active = expired = 0
        for job in self.pending():
            if job.expired(now):
                expired += 1
            else:
                active += 1
        return active, expired


def flip_byte_in_last_record(path) -> bool:
    """The ``wal-bitflip`` chaos act: XOR one digit byte inside the
    final line of ``path`` (staying syntactically valid JSON so only
    the record checksum trips).  Returns False when there is nothing
    to flip."""
    path = Path(path)
    try:
        blob = bytearray(path.read_bytes())
    except OSError:
        return False
    for i in range(len(blob) - 1, -1, -1):
        if chr(blob[i]).isdigit():
            blob[i] ^= 0x01
            path.write_bytes(bytes(blob))
            return True
    return False
