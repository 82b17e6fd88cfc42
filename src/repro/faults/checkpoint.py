"""Append-only JSONL sweep checkpoints: what their records mean.

One line per event, flushed as it happens, so a killed sweep loses at
most the in-flight sample:

* ``header`` — format version + a fingerprint of the RunConfig, checked
  on resume so a checkpoint can never silently continue a *different*
  sweep.
* ``sample`` — one completed :class:`~repro.core.records.PerfSample`
  with its series key.  Floats are stored as JSON numbers, which
  round-trip exactly, so a resumed run is byte-identical to an
  uninterrupted one.
* ``quarantine`` — a cell that exhausted its retries.
* ``event`` — sweep-level state changes (``device-lost``, ``degraded``)
  that the resuming runner must re-apply, plus informational worker-
  supervision events (``shard-retry``, ``shard-inprocess``).

The line format and its torn-tail repair are :mod:`repro.journal`'s.
A checkpoint loads *strictly*: a torn final line is dropped, other
damage raises :class:`~repro.errors.CheckpointError`, and a journal
with no complete line starts fresh.  A parallel sweep's workers
journal to ``<checkpoint>.shard-<i>``, merged in once every shard has
finished; if the parent dies first, resuming folds in every surviving
shard journal, so no completed cell is lost.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Dict, List, Optional, Tuple

from ..core.records import PerfSample, QuarantineEntry, sample_from_record
from ..errors import CheckpointError
from ..journal import (
    JOURNAL_VERSIONS,
    TORN_TAIL,
    UNPARSEABLE,
    append_record,
    repair_tail,
    scan_lines,
)
from ..types import DeviceKind, Dims, Kernel, Precision, TransferType

__all__ = [
    "CheckpointReader",
    "CheckpointState",
    "CheckpointWriter",
    "config_fingerprint",
    "sample_key",
]

FORMAT_VERSION = JOURNAL_VERSIONS[None]

#: The key one sweep cell is checkpointed and resumed under, and the
#: record fields that hold it.
SampleKey = Tuple[str, str, str, str, Optional[str], int, int, int, int]
_KEY_FIELDS = ("kernel", "ident", "precision", "device", "transfer",
               "m", "n", "k", "iterations")


def sample_key(
    kernel: Kernel,
    ident: str,
    precision: Precision,
    device: DeviceKind,
    transfer: Optional[TransferType],
    dims: Dims,
    iterations: int,
) -> SampleKey:
    return (
        kernel.value,
        ident,
        precision.value,
        device.value,
        transfer.value if transfer else None,
        dims.m,
        dims.n,
        dims.k,
        iterations,
    )


def config_fingerprint(config, system_name: Optional[str]) -> str:
    """Stable hash of everything that must match for a resume to be
    meaningful."""
    payload = {
        "min_dim": config.min_dim,
        "max_dim": config.max_dim,
        "iterations": config.iterations,
        "step": config.step,
        "kernels": [k.value for k in config.kernels],
        "problem_idents": list(config.problem_idents),
        "precisions": [p.value for p in config.precisions],
        "transfers": [t.value for t in config.transfers],
        "cpu_enabled": config.cpu_enabled,
        "gpu_enabled": config.gpu_enabled,
        "alpha": config.alpha,
        "beta": config.beta,
        "system": system_name,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _record_key(rec: dict) -> SampleKey:
    return tuple(map(rec.__getitem__, _KEY_FIELDS))


def _shard_journals(path) -> List[Path]:
    """The per-worker shard journals ``<path>.shard-<i>`` on disk, in
    shard order."""
    path = Path(path)
    prefix = path.name + ".shard-"
    found = [
        p for p in path.parent.iterdir()
        if p.name.startswith(prefix) and p.name[len(prefix):].isdigit()
    ]
    return sorted(found, key=lambda p: int(p.name[len(prefix):]))


def _read(path: Path, fingerprint: str) -> List[Tuple[dict, bytes]]:
    """Strictly verify one checkpoint or shard journal.

    Returns the ``(record, line)`` pairs after the header, and none for
    a journal with no complete line.  A torn final line is dropped; any
    other damage, a missing header or a foreign one raises.
    """
    records: List[Tuple[dict, bytes]] = []
    for number, line, rec, problem in scan_lines(path.read_bytes()):
        if problem == TORN_TAIL:
            break
        if problem == UNPARSEABLE:
            raise CheckpointError(
                f"checkpoint {path} is corrupt at line {number}"
            )
        if problem:
            raise CheckpointError(
                f"checkpoint {path} failed its record checksum at "
                f"line {number}; the journal has been corrupted "
                "(run `gpu-blob fsck` to audit and repair it)"
            )
        records.append((rec, line))
    if not records:
        return []
    header = records[0][0]
    if header.get("t") != "header":
        raise CheckpointError(f"checkpoint {path} has no header line")
    if header.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version "
            f"{header.get('version')!r}; this build writes "
            f"{FORMAT_VERSION}"
        )
    if header.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"checkpoint {path} belongs to a different sweep "
            "configuration; refusing to resume (pass resume=False to "
            "start over)"
        )
    return records[1:]


class CheckpointWriter:
    """Appends sweep events to a JSONL checkpoint file.

    A fresh writer truncates the checkpoint and deletes any shard
    journals an earlier sweep left beside it.  A resuming writer cuts
    the torn tail off, writes a header only if no complete line
    survived, and folds the surviving shard journals in.
    """

    def __init__(self, path, config, system_name: Optional[str],
                 resume: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.fingerprint = config_fingerprint(config, system_name)
        if resume:
            repair_tail(self.path)
            self._fh: Optional[IO[bytes]] = self.path.open("ab")
        else:
            for shard in _shard_journals(self.path):
                shard.unlink()
            self._fh = self.path.open("wb")
        if not self.path.stat().st_size:
            append_record(self._fh, {
                "t": "header",
                "version": FORMAT_VERSION,
                "fingerprint": self.fingerprint,
                "system": system_name,
            })
        if resume:
            for shard in _shard_journals(self.path):
                self.merge_shard(shard)

    def sample(self, key: SampleKey, sample: PerfSample) -> None:
        append_record(self._fh, {
            "t": "sample", **dict(zip(_KEY_FIELDS, key)),
            "seconds": sample.seconds, "gflops": sample.gflops,
            "checksum_ok": sample.checksum_ok,
        })

    def quarantine(self, entry: QuarantineEntry) -> None:
        key = sample_key(
            entry.kernel, entry.ident, entry.precision, entry.device,
            entry.transfer, entry.dims, entry.iterations,
        )
        append_record(self._fh, {
            "t": "quarantine", **dict(zip(_KEY_FIELDS, key)),
            "attempts": entry.attempts, "error": entry.error,
            "message": entry.message,
        })

    def event(self, kind: str, detail: str = "") -> None:
        append_record(self._fh, {"t": "event", "kind": kind, "detail": detail})

    def merge_shard(self, path) -> int:
        """Move the verified records of a per-worker shard journal into
        this journal (without the shard's own header), delete the
        shard, and return how many records were merged.  The shard is
        read as strictly as a resumed checkpoint."""
        path = Path(path)
        records = _read(path, self.fingerprint)
        self._fh.write(b"".join(line + b"\n" for _, line in records))
        self._fh.flush()
        path.unlink()
        return len(records)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


@dataclass
class CheckpointState:
    """Everything a resuming sweep replays from the checkpoint."""

    samples: Dict[SampleKey, PerfSample] = field(default_factory=dict)
    quarantine: List[QuarantineEntry] = field(default_factory=list)
    events: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def device_lost(self) -> bool:
        return any(kind == "device-lost" for kind, _ in self.events)

    @property
    def degraded(self) -> bool:
        return any(kind == "degraded" for kind, _ in self.events)

    def quarantined_keys(self) -> set:
        return {
            sample_key(e.kernel, e.ident, e.precision, e.device, e.transfer,
                       e.dims, e.iterations)
            for e in self.quarantine
        }


class CheckpointReader:
    """Parses and validates a checkpoint for resumption."""

    @staticmethod
    def load(path, config, system_name: Optional[str]) -> CheckpointState:
        """Replay a checkpoint and any shard journals beside it.

        A journal with no complete line replays as an empty state.  A
        record folded twice (a crash between merging a shard journal
        and deleting it) replays once.
        """
        path = Path(path)
        if not path.exists():
            raise CheckpointError(f"checkpoint {path} does not exist")
        fingerprint = config_fingerprint(config, system_name)
        state = CheckpointState()
        quarantined: set = set()
        for journal in [path, *_shard_journals(path)]:
            for rec, _ in _read(journal, fingerprint):
                kind = rec.get("t")
                if kind == "sample":
                    state.samples[_record_key(rec)] = sample_from_record(rec)
                elif kind == "quarantine":
                    key = _record_key(rec)
                    if key not in quarantined:
                        quarantined.add(key)
                        state.quarantine.append(_parse_quarantine(rec))
                elif kind == "event":
                    state.events.append(
                        (rec.get("kind", ""), rec.get("detail", ""))
                    )
                else:
                    raise CheckpointError(
                        f"checkpoint {journal} has an unknown record type "
                        f"{kind!r}"
                    )
        return state


def _parse_quarantine(rec: dict) -> QuarantineEntry:
    return QuarantineEntry(
        kernel=Kernel(rec["kernel"]),
        ident=rec["ident"],
        precision=Precision(rec["precision"]),
        device=DeviceKind(rec["device"]),
        transfer=TransferType(rec["transfer"]) if rec["transfer"] else None,
        dims=Dims(rec["m"], rec["n"], rec["k"]),
        iterations=rec["iterations"],
        attempts=rec["attempts"],
        error=rec["error"],
        message=rec["message"],
    )
