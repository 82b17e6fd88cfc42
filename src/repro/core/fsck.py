"""Artifact auditing and repair — the engine behind ``gpu-blob fsck``.

Every artifact a sweep leaves on disk can be audited offline; the
journal and envelope formats are :mod:`repro.journal`'s:

* **journals** (``*.jsonl``, and a parallel sweep's
  ``*.jsonl.shard-<i>``) — every line must verify, only the final line
  may be torn, and the header's ``kind`` and version must be ones this
  build reads (an *unknown* kind is reported, never silently
  version-checked as a checkpoint);
* **sealed envelopes** — sweep-cache entries (``<sha256>.json``) and
  distributed result shards (``<fp16>.json``, whose fingerprint must
  match the filename) must pass their ``payload_sha256``;
* **results CSVs** (``*.csv`` + ``quarantine.json``) — rows must parse
  back into :class:`~repro.core.records.PerfSample` with finite,
  positive seconds and finite, non-negative GFLOP/s, under the series
  the filename promises.

:func:`fsck_paths` dispatches on what it finds; each checker returns
:class:`Finding` objects.  With ``repair=True`` the damage is *moved
out of the way*, never silently dropped: bad journal lines go to a
``<journal>.bad`` sidecar and the journal is replaced, through a tmp
file and a rename, by its verified records; bad envelopes and CSVs
move into a ``quarantine/`` subdirectory.  A finding that cannot be
repaired (a journal with no valid header, say) stays ``repaired=False``
and keeps the exit code non-zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional

from ..journal import (
    ENVELOPE_VERSIONS,
    JOURNAL_VERSIONS,
    EnvelopeError,
    open_envelope,
    replace_file,
    scan_lines,
)
from .csvio import QUARANTINE_FILENAME, read_samples
from .sweepcache import LOCK_FILENAME

__all__ = [
    "Finding",
    "fsck_envelope",
    "fsck_journal",
    "fsck_paths",
    "fsck_results_csv",
]

#: Sealed-envelope stems by length: a cache entry's SHA-256 key, a dist
#: result shard's 16-hex scenario fingerprint.
_ENVELOPE_STEMS = {64: "cache", 16: "shard"}


@dataclass
class Finding:
    """One integrity problem fsck found in one artifact."""

    path: Path
    kind: str  # "journal" | "cache" | "shard" | "results" | "path"
    problem: str
    repaired: bool = False

    def __str__(self) -> str:
        status = "repaired" if self.repaired else "FOUND"
        return f"[{status}] {self.kind} {self.path}: {self.problem}"


def _quarantine_file(path: Path, kind: str, problem: str,
                     repair: bool) -> Finding:
    """Move a damaged artifact into a ``quarantine/`` sibling directory
    (repair mode) and report the finding either way."""
    repaired = False
    if repair:
        dest_dir = path.parent / "quarantine"
        dest_dir.mkdir(parents=True, exist_ok=True)
        path.replace(dest_dir / path.name)
        repaired = True
    return Finding(path=path, kind=kind, problem=problem, repaired=repaired)


# -- journals ---------------------------------------------------------


def _header_problem(header: dict) -> str:
    """Why a journal's first verified record is not a header this
    build reads ("" when it is)."""
    kind = header.get("kind")
    expected_version = JOURNAL_VERSIONS.get(kind)
    if header.get("t") != "header":
        return "first valid record is not a header"
    if expected_version is None:
        # an unknown dialect must be *reported*, not silently
        # version-checked as a checkpoint: a version-skewed ledger
        # from a newer build should be visible, not ignored
        known = ", ".join(repr(k) for k in JOURNAL_VERSIONS if k is not None)
        return (f"unknown journal kind {kind!r} (this build reads: "
                f"sweep checkpoints, {known})")
    if header.get("version") != expected_version:
        return (f"format version {header.get('version')!r} "
                f"(this build reads {expected_version} for "
                + (f"kind {kind!r})" if kind else "sweep checkpoints)"))
    return ""


def fsck_journal(path, repair: bool = False) -> List[Finding]:
    """Audit one journal line by line.

    Repair replaces the journal with only the records that verify and
    appends every rejected line to a ``<journal>.bad`` sidecar.  A
    journal whose header itself is missing or corrupt cannot be
    repaired — resuming from it would be meaningless anyway.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        return [Finding(path, "journal", f"unreadable: {exc}")]

    findings: List[Finding] = []
    good: List[tuple] = []
    bad: List[bytes] = []
    for number, line, rec, problem in scan_lines(data):
        if problem:
            findings.append(
                Finding(path, "journal", f"line {number}: {problem}")
            )
            bad.append(line)
        else:
            good.append((rec, line))

    header_problem = (
        _header_problem(good[0][0]) if good else "no valid records at all"
    )
    if header_problem:
        findings.append(Finding(path, "journal", header_problem))
    elif repair and bad:
        with path.with_name(path.name + ".bad").open("ab") as fh:
            fh.write(b"".join(line + b"\n" for line in bad))
        replace_file(path, b"".join(line + b"\n" for _, line in good))
        for f in findings:
            f.repaired = True
    return findings


# -- sealed envelopes -------------------------------------------------


def fsck_envelope(path, repair: bool = False) -> List[Finding]:
    """Audit one sealed envelope; repair quarantines it.

    A 16-hex stem is a distributed result shard, whose fingerprint
    must match the filename (the dispatcher simply re-executes a
    quarantined shard's scenario); any other stem is a sweep-cache
    entry.
    """
    path = Path(path)
    kind = _ENVELOPE_STEMS.get(len(path.stem), "cache")
    fields = {"fingerprint": path.stem} if kind == "shard" else {}
    try:
        open_envelope(path.read_bytes(), ENVELOPE_VERSIONS[kind], **fields)
    except OSError as exc:
        return [Finding(path, kind, f"unreadable: {exc}")]
    except EnvelopeError as exc:
        return [_quarantine_file(path, kind, str(exc), repair)]
    return []


# -- results CSVs -----------------------------------------------------


def fsck_results_csv(path, repair: bool = False) -> List[Finding]:
    """Audit one per-series results CSV; repair quarantines the file.

    Beyond "do the rows parse", every sample must be physically
    plausible on its face (finite positive seconds, finite non-negative
    GFLOP/s) and the iteration count must match the ``_iN`` suffix the
    filename promises — a renamed or truncated artifact fails loudly.
    """
    path = Path(path)
    problems: List[str] = []
    try:
        samples = read_samples(path)
    except OSError as exc:
        return [Finding(path, "results", f"unreadable: {exc}")]
    except Exception as exc:
        problems.append(f"rows do not parse: {type(exc).__name__}: {exc}")
        samples = []
    iterations: Optional[int] = None
    stem = path.stem
    if "_i" in stem:
        tail = stem.rsplit("_i", 1)[1]
        if tail.isdigit():
            iterations = int(tail)
    for row, sample in enumerate(samples, start=2):  # row 1 is the header
        if not (math.isfinite(sample.seconds) and sample.seconds > 0):
            problems.append(f"row {row}: non-positive or non-finite seconds")
        elif not (math.isfinite(sample.gflops) and sample.gflops >= 0):
            problems.append(f"row {row}: negative or non-finite gflops")
        elif iterations is not None and sample.iterations != iterations:
            problems.append(
                f"row {row}: iterations {sample.iterations} contradict "
                f"the filename's _i{iterations} suffix"
            )
    if not problems:
        return []
    summary = problems[0] if len(problems) == 1 else (
        f"{problems[0]} (+{len(problems) - 1} more)"
    )
    return [_quarantine_file(path, "results", summary, repair)]


def _fsck_quarantine_json(path: Path, repair: bool) -> List[Finding]:
    try:
        report = json.loads(path.read_text())
    except OSError as exc:
        return [Finding(path, "results", f"unreadable: {exc}")]
    except ValueError:
        return [_quarantine_file(path, "results", "unparseable JSON", repair)]
    if not isinstance(report, list):
        return [_quarantine_file(
            path, "results", "quarantine report is not a JSON list", repair
        )]
    return []


# -- dispatcher -------------------------------------------------------


def _is_envelope(path: Path) -> bool:
    return (
        path.suffix == ".json" and len(path.stem) in _ENVELOPE_STEMS
        and all(c in "0123456789abcdef" for c in path.stem)
    )


def _is_journal(path: Path) -> bool:
    """``*.jsonl``, or a parallel sweep's ``*.jsonl.shard-<i>``."""
    stem, _, index = path.name.rpartition(".shard-")
    return path.suffix == ".jsonl" or (
        stem.endswith(".jsonl") and index.isdigit()
    )


def _fsck_one_file(path: Path, repair: bool) -> List[Finding]:
    if _is_journal(path):
        return fsck_journal(path, repair)
    if path.suffix == ".csv":
        return fsck_results_csv(path, repair)
    if path.name == QUARANTINE_FILENAME:
        return _fsck_quarantine_json(path, repair)
    if _is_envelope(path):
        return fsck_envelope(path, repair)
    return []


def fsck_paths(paths: Iterable, repair: bool = False) -> List[Finding]:
    """Audit every artifact reachable from ``paths``.

    Files are dispatched by shape (``*.jsonl`` or ``*.jsonl.shard-<i>``
    journal, ``*.csv`` results series, ``quarantine.json`` report,
    64-hex ``*.json`` cache entry, 16-hex ``*.json`` result shard);
    directories are scanned one level deep, skipping the cache
    lock file and anything already quarantined.
    """
    findings: List[Finding] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            for child in sorted(p.iterdir()):
                if child.name == LOCK_FILENAME or child.name == "quarantine":
                    continue
                if child.is_file():
                    findings.extend(_fsck_one_file(child, repair))
        elif p.is_file():
            findings.extend(_fsck_one_file(p, repair))
        else:
            findings.append(
                Finding(p, "path", "does not exist")
            )
    return findings
