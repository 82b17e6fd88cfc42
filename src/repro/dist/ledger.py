"""Durable dispatch ledger for distributed campaigns.

The dispatcher journals every scheduling decision — which worker holds
which scenario, under what lease, on which attempt — to an append-only
checksummed JSONL journal (:class:`~repro.journal.ChecksummedJournal`
owns the line format and the torn-tail repair on open).  Its
``kind: "dist-ledger"`` header lets ``gpu-blob fsck`` tell a ledger
from a sweep checkpoint or a serve WAL.

The ledger is what makes a distributed campaign restartable: kill -9
the *dispatcher* mid-campaign, run the same command again with
``--resume``, and the replay folds the surviving records back into
:class:`LedgerState` — completed scenarios load their result shards
from disk, in-flight assignments are stolen (their lease owner is
gone), and the aggregated report comes out byte-identical.

Record types (all with ``cs``):

* ``header`` — ``kind: "dist-ledger"`` + format version + the campaign
  name and fingerprint it belongs to.  Resuming against a ledger whose
  fingerprint does not match the campaign file is refused
  (:class:`~repro.errors.ConfigError`) — a ledger is not portable
  across matrix edits.
* ``assign`` — scenario ``fp`` (fingerprint) + ``index`` handed to
  ``worker`` as attempt ``attempt``, leased until ``deadline``.
  Re-assignment of the same fingerprint (a steal or retry) is just
  another ``assign`` with a higher attempt.
* ``renew`` — the holder heartbeated with less than half its lease
  remaining; extends ``deadline``.
* ``complete`` — the scenario's result shard is durably on disk.
  Written at most once per fingerprint (:meth:`DispatchLedger.complete`
  is idempotent — the second finisher of a stolen scenario gets
  ``False`` and its duplicate is dropped).
* ``dead`` — the scenario exhausted ``--max-attempts`` and was
  dead-lettered; it reports as a quarantined row instead of a result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ConfigError
from ..journal import (
    JOURNAL_VERSIONS,
    ChecksummedJournal,
    JournalScan,
    scan_journal,
)

__all__ = [
    "LEDGER_FILENAME",
    "LEDGER_KIND",
    "LEDGER_VERSION",
    "DispatchLedger",
    "LedgerEntry",
    "LedgerState",
    "load_ledger_state",
]

#: Header ``kind`` marker distinguishing a dispatch ledger from the
#: other checksummed JSONL dialects (checkpoints, serve WALs).
LEDGER_KIND = "dist-ledger"

#: Format version of the dispatch ledger journal.
LEDGER_VERSION = JOURNAL_VERSIONS[LEDGER_KIND]

#: Canonical ledger filename inside a campaign's ``--dist-dir``.
LEDGER_FILENAME = "ledger.jsonl"


@dataclass
class LedgerEntry:
    """The latest known state of one scenario, keyed by fingerprint."""

    fp: str
    index: int
    state: str = "assigned"  # "assigned" | "complete" | "dead"
    worker: str = ""
    attempt: int = 0
    deadline: float = 0.0
    reason: str = ""

    def expired(self, now: float) -> bool:
        """Has the lease lapsed (the holder should have finished)?"""
        return now >= self.deadline


@dataclass
class LedgerState:
    """Everything a reader (the resuming dispatcher, fsck, a test)
    reconstructs from one ledger file."""

    entries: Dict[str, LedgerEntry] = field(default_factory=dict)
    corrupt_records: int = 0
    torn_tail: bool = False
    has_header: bool = False
    #: campaign fingerprint stamped into the header ("" when absent)
    campaign_fingerprint: str = ""
    campaign_name: str = ""

    def counts(self) -> Dict[str, int]:
        out = {"assigned": 0, "complete": 0, "dead": 0}
        for entry in self.entries.values():
            out[entry.state] += 1
        return out

    def in_flight(self) -> List[LedgerEntry]:
        """Assigned-but-unfinished scenarios, lowest index first —
        exactly what a restarted dispatcher must steal or re-run."""
        return sorted(
            (e for e in self.entries.values() if e.state == "assigned"),
            key=lambda e: e.index,
        )


def _apply_record(state: LedgerState, rec: dict) -> bool:
    """Fold one verified record into ``state``; False if malformed."""
    t = rec.get("t")
    if t == "assign":
        try:
            entry = LedgerEntry(
                fp=str(rec["fp"]),
                index=int(rec["index"]),
                worker=str(rec["worker"]),
                attempt=int(rec["attempt"]),
                deadline=float(rec["deadline"]),
            )
        except (KeyError, TypeError, ValueError):
            return False
        prior = state.entries.get(entry.fp)
        if prior is not None and prior.state != "assigned":
            # late assign after complete/dead: the terminal state wins
            return True
        state.entries[entry.fp] = entry
        return True
    if t == "renew":
        entry = state.entries.get(rec.get("fp"))
        if entry is None:
            return True  # renew for a lost assign: harmless
        try:
            entry.worker = str(rec["worker"])
            entry.deadline = float(rec["deadline"])
        except (KeyError, TypeError, ValueError):
            return False
        return True
    if t in ("complete", "dead"):
        entry = state.entries.get(rec.get("fp"))
        if entry is not None and entry.state == "assigned":
            entry.state = "complete" if t == "complete" else "dead"
            if t == "dead":
                entry.reason = str(rec.get("reason", ""))
        return True
    return False


def _fold(scan: JournalScan) -> LedgerState:
    state = LedgerState(
        corrupt_records=scan.corrupt_records,
        torn_tail=scan.torn_tail,
        has_header=scan.header is not None,
    )
    if scan.header is not None:
        state.campaign_fingerprint = str(scan.header.get("campaign_fp", ""))
        state.campaign_name = str(scan.header.get("campaign", ""))
    for rec in scan.records:
        if not _apply_record(state, rec):
            state.corrupt_records += 1
    return state


def load_ledger_state(path) -> LedgerState:
    """Parse one ledger file leniently, skipping (and counting) damaged
    records.  A missing file is an empty state; damage never raises —
    ``gpu-blob fsck`` audits and repairs offline."""
    return _fold(scan_journal(path, LEDGER_KIND, LEDGER_VERSION))


class DispatchLedger(ChecksummedJournal):
    """Append-only, fsynced journal of campaign scheduling decisions.

    Opening an existing ledger replays its records into
    :attr:`state`; a verified header bound to a *different* campaign
    fingerprint is vetoed with :class:`~repro.errors.ConfigError`
    before anything is written (the shared base class already rotates
    headerless or wrong-dialect files to a ``.bad`` sidecar).
    """

    kind = LEDGER_KIND
    version = LEDGER_VERSION

    def __init__(
        self,
        path,
        campaign_name: str,
        campaign_fingerprint: str,
        lease_s: float = 30.0,
        clock=time.time,
        sync: bool = True,
    ) -> None:
        if lease_s <= 0:
            raise ConfigError(f"lease_s must be > 0, got {lease_s}")
        self.campaign_name = campaign_name
        self.campaign_fingerprint = campaign_fingerprint
        self.lease_s = lease_s
        super().__init__(path, clock=clock, sync=sync)
        self.state = _fold(self.scan)

    def _header_extra(self) -> dict:
        return {
            "campaign": self.campaign_name,
            "campaign_fp": self.campaign_fingerprint,
        }

    def _check_header(self, scan: JournalScan) -> None:
        if scan.header is None:
            return
        found = scan.header.get("campaign_fp")
        if found != self.campaign_fingerprint:
            raise ConfigError(
                f"dispatch ledger {self.path} belongs to campaign "
                f"{scan.header.get('campaign')!r} (fingerprint {found}); "
                f"this run is {self.campaign_name!r} "
                f"({self.campaign_fingerprint}) — remove the stale "
                "ledger or point --dist-dir elsewhere"
            )

    # -- write side ----------------------------------------------------

    def assign(self, fp: str, index: int, worker: str,
               attempt: int) -> float:
        """Journal handing scenario ``fp`` to ``worker``; returns the
        lease deadline.  A steal or retry is a fresh assign with a
        bumped attempt."""
        deadline = self.clock() + self.lease_s
        self._append({
            "t": "assign", "fp": fp, "index": index, "worker": worker,
            "attempt": attempt, "deadline": deadline,
        })
        self.state.entries[fp] = LedgerEntry(
            fp=fp, index=index, worker=worker, attempt=attempt,
            deadline=deadline,
        )
        return deadline

    def renew(self, fp: str, worker: str) -> float:
        """Extend the lease of an in-flight scenario (heartbeat with
        less than half the lease remaining); returns the new deadline."""
        entry = self.state.entries[fp]
        deadline = self.clock() + self.lease_s
        self._append({
            "t": "renew", "fp": fp, "worker": worker, "deadline": deadline,
        })
        entry.worker = worker
        entry.deadline = deadline
        return deadline

    def complete(self, fp: str) -> bool:
        """Journal completion exactly once per fingerprint: ``False``
        (and no record) when the scenario is unknown or already
        complete/dead — the duplicate-finish dedupe point."""
        entry = self.state.entries.get(fp)
        if entry is None or entry.state != "assigned":
            return False
        self._append({"t": "complete", "fp": fp})
        entry.state = "complete"
        return True

    def dead(self, fp: str, reason: str = "") -> bool:
        """Journal dead-lettering (attempts exhausted); idempotent like
        :meth:`complete`."""
        entry = self.state.entries.get(fp)
        if entry is None or entry.state != "assigned":
            return False
        self._append({"t": "dead", "fp": fp, "reason": reason})
        entry.state = "dead"
        entry.reason = reason
        return True

    # -- read side -----------------------------------------------------

    def counts(self) -> Dict[str, int]:
        return self.state.counts()

    def entry(self, fp: str) -> Optional[LedgerEntry]:
        return self.state.entries.get(fp)
