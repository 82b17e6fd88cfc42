"""Checksummed on-disk formats: JSONL journals and sealed JSON envelopes.

The one module that knows how these files are laid out and verified;
its users keep only what their records mean.

**Journals** (sweep checkpoints, serve WALs, dist ledgers) are
append-only JSONL.  Every record carries ``cs``, a truncated SHA-256
of its canonical JSON form without it, and the first is a ``header``
whose ``kind`` (:data:`JOURNAL_VERSIONS`) names the dialect.  A record
and its newline go out in one flushed write, so a crash leaves one
artifact only: a *torn tail*, a final line without its newline.
Checkpoints read :func:`scan_lines` strictly, the WAL and the ledger
leniently (:func:`scan_journal`).  :func:`repair_tail` truncates a torn
tail away rather than rewriting the file, so the records a reader
accepts are exactly the records that survive repair.

**Envelopes** (sweep-cache entries, dist result shards) are one JSON
object: the envelope fields, a ``payload_sha256`` over the payload's
canonical JSON, then the payload's own keys, written through a tmp
file and a rename (:func:`write_envelope`, :func:`open_envelope`).
Each family writes its newest version and still reads the older ones
in :data:`ENVELOPE_VERSIONS`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator, Optional, Tuple

__all__ = [
    "CHECKSUM_MISMATCH",
    "ENVELOPE_VERSIONS",
    "JOURNAL_VERSIONS",
    "TORN_TAIL",
    "UNPARSEABLE",
    "ChecksummedJournal",
    "EnvelopeError",
    "JournalScan",
    "append_record",
    "open_envelope",
    "record_checksum",
    "repair_tail",
    "replace_file",
    "scan_journal",
    "scan_lines",
    "write_envelope",
]

#: Journal header ``kind`` -> the format version this build reads.
#: ``None`` is the sweep checkpoint, whose header has no kind.
#: (Checkpoint v2 added the per-record ``cs`` checksum.)
JOURNAL_VERSIONS = {None: 2, "serve-wal": 1, "dist-ledger": 1}

#: Envelope family -> the format versions this build reads, newest
#: first; it writes the newest.  (Cache v2 added ``payload_sha256``;
#: cache v3 and shard v2 carry each series as column arrays,
#: :func:`repro.core.records.encode_series`, where cache v2 and shard v1
#: held one JSON record per sample.)
ENVELOPE_VERSIONS = {"cache": (3, 2), "shard": (2, 1)}

#: How :func:`scan_lines` reports a line that does not verify.
UNPARSEABLE = "unparseable JSON"
CHECKSUM_MISMATCH = "record checksum mismatch"
TORN_TAIL = "torn final line (crash artifact)"


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


# -- journals -----------------------------------------------------------


def record_checksum(record: dict) -> str:
    """Truncated SHA-256 of a journal record's canonical JSON form,
    excluding the ``cs`` field itself.  Canonicalization (sorted keys,
    compact separators) makes the digest independent of field order, so
    hand-repaired or merged records verify as long as their *values*
    are intact."""
    body = {k: v for k, v in record.items() if k != "cs"}
    return hashlib.sha256(_canonical(body)).hexdigest()[:16]


def append_record(fh: IO[bytes], record: dict, sync: bool = False) -> None:
    """Stamp ``cs`` on ``record`` and append it to a binary journal
    handle as one line in one flushed write (``sync`` adds an fsync)."""
    record["cs"] = record_checksum(record)
    fh.write(json.dumps(record, separators=(",", ":")).encode() + b"\n")
    fh.flush()
    if sync:
        os.fsync(fh.fileno())


def scan_lines(
    data: bytes,
) -> Iterator[Tuple[int, bytes, Optional[dict], str]]:
    """Classify every line of a journal's bytes.

    Yields ``(line number, line without its newline, record, problem)``:
    a verified line has its record and an empty problem; a damaged
    line has no record and :data:`UNPARSEABLE` or
    :data:`CHECKSUM_MISMATCH`; a final line without its newline is
    :data:`TORN_TAIL`, whatever it holds.
    """
    lines = data.split(b"\n")
    tail = lines.pop()  # b"" when the journal ends with a newline
    for number, line in enumerate(lines, start=1):
        try:
            rec = json.loads(line)
        except ValueError:
            yield number, line, None, UNPARSEABLE
            continue
        if not isinstance(rec, dict) or rec.get("cs") != record_checksum(rec):
            yield number, line, None, CHECKSUM_MISMATCH
            continue
        yield number, line, rec, ""
    if tail:
        yield len(lines) + 1, tail, None, TORN_TAIL


def repair_tail(path) -> bool:
    """Cut a torn tail off ``path`` by truncating it after its last
    newline; returns True when bytes were dropped.  A missing file is
    left alone, and a repaired file is a fixed point."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return False
    end = data.rfind(b"\n") + 1
    if end == len(data):
        return False
    os.truncate(path, end)
    return True


def replace_file(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` through a tmp file and a rename,
    so a crash mid-write leaves the old file whole."""
    tmp = path.with_suffix(f".tmp-{os.getpid()}")
    tmp.write_bytes(data)
    tmp.replace(path)


@dataclass
class JournalScan:
    """The verified content of one journal, read leniently, before any
    dialect folds it."""

    #: verified non-header records, in file order
    records: list = field(default_factory=list)
    #: the verified header record itself (None when missing/damaged)
    header: Optional[dict] = None
    corrupt_records: int = 0
    torn_tail: bool = False


def scan_journal(path, kind: Optional[str], version: int) -> JournalScan:
    """Read one journal leniently: a missing file is an empty scan, a
    torn tail is flagged but not counted as corruption, and a damaged
    line — or a header of another dialect or version — is skipped and
    counted in ``corrupt_records``."""
    scan = JournalScan()
    try:
        data = Path(path).read_bytes()
    except OSError:
        return scan
    for _, _, rec, problem in scan_lines(data):
        if problem == TORN_TAIL:
            scan.torn_tail = True
        elif problem:
            scan.corrupt_records += 1
        elif rec.get("t") != "header":
            scan.records.append(rec)
        elif rec.get("kind") == kind and rec.get("version") == version:
            scan.header = rec
        else:
            scan.corrupt_records += 1
    return scan


class ChecksummedJournal:
    """Write side of the leniently read dialects (serve WAL, dist ledger).

    Subclasses set ``kind`` and ``version``.  Opening repairs a torn
    tail and scans what survives; a non-empty file with no usable
    header is rotated to a ``.bad`` sidecar and the journal starts
    fresh, so opening never fails closed on a damaged file.  Subclasses
    fold ``self.scan`` into their own state and may veto a resume by
    overriding :meth:`_check_header` (raise before anything is
    written).

    ``healthy`` tracks the last append: an ``OSError`` (disk full, the
    chaos harness's ``wal-stall`` fault) flips it False, the next
    successful append flips it back.
    """

    kind: Optional[str] = None
    version: int = 0

    def __init__(self, path, clock=time.time, sync: bool = True) -> None:
        self.path = Path(path)
        self.clock = clock
        self.sync = sync
        self.healthy = True
        self.path.parent.mkdir(parents=True, exist_ok=True)
        repair_tail(self.path)
        self.scan = scan_journal(self.path, self.kind, self.version)
        if self.scan.header is None and self.path.exists() \
                and self.path.stat().st_size:
            # a journal we cannot trust at all: move it aside, restart
            self.path.replace(self.path.with_name(self.path.name + ".bad"))
            self.scan = JournalScan()
        self._check_header(self.scan)
        self._fh: Optional[IO[bytes]] = self.path.open("ab")
        if self.scan.header is None:
            self.scan.header = {
                "t": "header", "version": self.version, "kind": self.kind,
                **self._header_extra(),
            }
            self._append(self.scan.header)

    def _header_extra(self) -> dict:
        """Extra fields a dialect stamps into a fresh header."""
        return {}

    def _check_header(self, scan: JournalScan) -> None:
        """Dialect hook: veto resuming from a header that verifies but
        belongs to different work (raise before anything is written)."""

    def _append(self, record: dict) -> None:
        if self._fh is None:
            raise ValueError(f"{type(self).__name__} is closed")
        try:
            append_record(self._fh, record, self.sync)
        except OSError:
            self.healthy = False
            raise
        self.healthy = True

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# -- envelopes ----------------------------------------------------------


class EnvelopeError(ValueError):
    """A sealed envelope that does not verify; ``str()`` says why."""

    def __init__(self, problem: str, stale: bool = False) -> None:
        super().__init__(problem)
        #: True when the only fault is a format version from another build
        self.stale = stale


def write_envelope(path: Path, family: str, payload: dict, **fields) -> None:
    """Seal ``payload`` behind the ``family``'s newest ``version``,
    ``fields`` and a ``payload_sha256``, and write it through
    :func:`replace_file`."""
    entry = {
        "version": ENVELOPE_VERSIONS[family][0],
        **fields,
        "payload_sha256": hashlib.sha256(_canonical(payload)).hexdigest(),
        **payload,
    }
    replace_file(path, json.dumps(entry, separators=(",", ":")).encode()
                 + b"\n")


def open_envelope(data: bytes, family: str, **fields) -> dict:
    """Verify one sealed envelope's bytes and return its payload.

    Raises :class:`EnvelopeError` when ``data`` is not a JSON object,
    its ``version`` is not one the ``family`` reads (``stale``), an
    envelope field differs from ``fields`` (a shard's ``fingerprint``),
    or the payload fails its ``payload_sha256``.
    """
    try:
        entry = json.loads(data)
    except ValueError:
        raise EnvelopeError(UNPARSEABLE) from None
    versions = ENVELOPE_VERSIONS[family]
    if not isinstance(entry, dict) or entry.get("version") not in versions:
        raise EnvelopeError(
            "stale or missing format version (this build reads "
            f"{', '.join(map(str, versions))})",
            stale=True,
        )
    for name, want in fields.items():
        if entry.get(name) != want:
            raise EnvelopeError(
                f"{name} {entry.get(name)!r} contradicts the filename"
            )
    envelope = ("version", "payload_sha256", *fields)
    payload = {k: v for k, v in entry.items() if k not in envelope}
    digest = hashlib.sha256(_canonical(payload)).hexdigest()
    if entry.get("payload_sha256") != digest:
        raise EnvelopeError("payload sha256 mismatch")
    return payload
