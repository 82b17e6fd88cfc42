"""Content-addressed sweep cache.

Re-running the exact same sweep is the common case of the golden-
regression workflow: the tables/figures regenerate from configurations
that have not changed.  The cache keys a JSON store on the checkpoint
layer's config fingerprint (:func:`repro.faults.checkpoint
.config_fingerprint`) combined with the backend's ``cache_token`` — the
full parameterization of the model behind it — so a hit can only replay
a run that would have been recomputed identically.

Floats are stored as JSON numbers, which round-trip exactly, so a
cache hit reproduces every ``PerfSample`` bit-for-bit and downstream
CSVs stay byte-identical.  Only complete, fault-free, non-degraded runs
are stored; anything else (quarantined cells, device loss, host
measurements with no token) falls through to a real execution.

Integrity: every entry is a sealed envelope (:mod:`repro.journal`),
written through a tmp file and a rename and verified against its
``payload_sha256`` on load — a flipped byte inside syntactically valid
JSON is a *warned* miss (:class:`~repro.errors.CacheIntegrityWarning`),
never a silent replay of corrupted data.  Writes also hold a
cross-process ``flock``, so concurrent sweeps racing on one store never
expose a torn entry; a stale-format entry is treated as a quiet miss
and overwritten.

Hits refresh an entry's mtime, which is the recency order
:func:`prune_cache` (``gpu-blob cache prune``) evicts against.

The store also keeps running **hit/miss/store counters** in a hidden
``.stats`` sidecar (no ``.json`` suffix, so it is invisible to the
``*.json`` entry globs and to fsck's cache-entry dispatch).  They are
bumped under the same writer lock, survive across processes, and back
both ``gpu-blob cache stats`` and the serving daemon's ``/metrics``
endpoint.  :class:`SingleFlight` lives here too: the keyed
compute-coalescing primitive the daemon wraps around cache fills so a
thundering herd on one cold key runs a single sweep.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
import warnings
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..errors import CacheIntegrityWarning, ConfigError
from ..faults.checkpoint import config_fingerprint
from ..journal import (
    ENVELOPE_VERSIONS,
    UNPARSEABLE,
    EnvelopeError,
    open_envelope,
    replace_file,
    write_envelope,
)
from ..types import Kernel, Precision
from .config import RunConfig
from .problem import get_problem_type
from .records import PerfSample, ProblemSeries, sample_from_record

__all__ = [
    "SingleFlight",
    "cache_stats",
    "find_stale_series",
    "load_cached_run",
    "parse_run_payload",
    "prune_cache",
    "run_payload",
    "store_run",
    "sweep_cache_key",
    "top_entries",
]

CACHE_VERSION = ENVELOPE_VERSIONS["cache"]

#: Cross-process writer lock, held only around mutations of the store.
LOCK_FILENAME = ".lock"

#: Hidden sidecar holding the store's running hit/miss/store counters.
STATS_FILENAME = ".stats"


def sweep_cache_key(
    config: RunConfig, system_name: Optional[str], backend
) -> Optional[str]:
    """SHA-256 content address of one (config, system, backend) sweep,
    or ``None`` when the backend declines caching (no ``cache_token``)."""
    token = getattr(backend, "cache_token", None)
    if token is None:
        return None
    fingerprint = config_fingerprint(config, system_name)
    return hashlib.sha256(f"{fingerprint}\n{token}".encode()).hexdigest()


@contextlib.contextmanager
def _cache_lock(cache_dir):
    """Exclusive cross-process lock over one cache directory.

    Uses ``flock`` on a sidecar ``.lock`` file; platforms without
    ``fcntl`` fall back to the atomic-rename guarantee alone (writers
    can then race, but never tear an entry).
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX platforms
        yield
        return
    with (cache_dir / LOCK_FILENAME).open("w") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


def _entry_path(cache_dir, key: str) -> Path:
    return Path(cache_dir) / f"{key}.json"


def _read_counters(cache_dir) -> dict:
    """The store's persistent counters ({} when absent or unreadable)."""
    try:
        counters = json.loads((Path(cache_dir) / STATS_FILENAME).read_text())
    except (OSError, ValueError):
        return {}
    return counters if isinstance(counters, dict) else {}


def _bump_stat(cache_dir, field: str, entry_key: Optional[str] = None) -> None:
    """Increment one persistent store counter (best-effort: a stats
    write must never fail a sweep).  ``entry_key`` additionally bumps
    that entry's per-key hit count (``gpu-blob cache stats --top``)."""
    path = Path(cache_dir) / STATS_FILENAME
    with contextlib.suppress(Exception):
        with _cache_lock(path.parent):
            counters = _read_counters(cache_dir)
            counters[field] = int(counters.get(field, 0)) + 1
            if entry_key is not None:
                per_entry = counters.get("entry_hits")
                if not isinstance(per_entry, dict):
                    per_entry = {}
                per_entry[entry_key] = int(per_entry.get(entry_key, 0)) + 1
                counters["entry_hits"] = per_entry
            replace_file(
                path, (json.dumps(counters, sort_keys=True) + "\n").encode()
            )


def top_entries(cache_dir, limit: int = 10) -> List[dict]:
    """The store's hottest entries by per-key hit count, descending
    (ties broken by key for a stable listing)."""
    cache_dir = Path(cache_dir)
    per_entry = _read_counters(cache_dir).get("entry_hits")
    if not isinstance(per_entry, dict):
        per_entry = {}
    ranked = sorted(
        per_entry.items(), key=lambda kv: (-int(kv[1]), kv[0])
    )[: max(0, limit)]
    out = []
    for key, hits in ranked:
        present = _entry_path(cache_dir, key).is_file()
        out.append({"key": key, "hits": int(hits), "present": present})
    return out


def cache_stats(cache_dir) -> dict:
    """Entry count, total payload bytes, and the persistent hit/miss/
    store counters of one cache directory.

    The same numbers back ``gpu-blob cache stats`` and the serving
    daemon's ``/metrics`` endpoint, so the two always agree.
    """
    cache_dir = Path(cache_dir)
    entries = 0
    total_bytes = 0
    if cache_dir.is_dir():
        for path in cache_dir.glob("*.json"):
            with contextlib.suppress(OSError):
                total_bytes += path.stat().st_size
                entries += 1
    counters = _read_counters(cache_dir)
    hits = int(counters.get("hits", 0))
    misses = int(counters.get("misses", 0))
    lookups = hits + misses
    return {
        "entries": entries,
        "total_bytes": total_bytes,
        "hits": hits,
        "misses": misses,
        "stores": int(counters.get("stores", 0)),
        "hit_rate": (hits / lookups) if lookups else 0.0,
    }


class _Flight:
    """One in-progress computation shared by a leader and followers."""

    __slots__ = ("event", "result", "exc", "followers")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result = None
        self.exc: Optional[BaseException] = None
        self.followers = 0


class SingleFlight:
    """Keyed compute coalescing: concurrent :meth:`do` calls for one key
    run the function once and share its outcome.

    The first caller (the leader) executes ``fn``; callers that arrive
    while it is still running block and receive the leader's result —
    or its exception, re-raised in every follower.  Thread-safe; the
    serving daemon uses it so a burst of identical cold-key requests
    fills the sweep cache with exactly one execution.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: Dict[object, _Flight] = {}
        #: calls served from another caller's in-progress computation
        self.coalesced = 0

    def do(self, key, fn: Callable[[], object]):
        with self._lock:
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = _Flight()
                self._flights[key] = flight
            else:
                flight.followers += 1
        if not leader:
            flight.event.wait()
            with self._lock:
                self.coalesced += 1
            if flight.exc is not None:
                raise flight.exc
            return flight.result
        try:
            flight.result = fn()
        except BaseException as exc:
            flight.exc = exc
            raise
        finally:
            with self._lock:
                del self._flights[key]
            flight.event.set()
        return flight.result


def _sample_record(sample: PerfSample) -> dict:
    return {
        "device": sample.device.value,
        "transfer": sample.transfer.value if sample.transfer else None,
        "m": sample.dims.m,
        "n": sample.dims.n,
        "k": sample.dims.k,
        "iterations": sample.iterations,
        "seconds": sample.seconds,
        "gflops": sample.gflops,
        "checksum_ok": sample.checksum_ok,
    }


def _parse_series(rec: dict) -> ProblemSeries:
    series = ProblemSeries(
        problem_type=get_problem_type(Kernel(rec["kernel"]), rec["ident"]),
        precision=Precision(rec["precision"]),
        iterations=rec["iterations"],
    )
    for sample_rec in rec["samples"]:
        series.add(sample_from_record(sample_rec))
    return series


def run_payload(result) -> dict:
    """The canonical JSON form of one run's series — the shared
    serialization of cache entries and distributed-campaign result
    shards.  Floats round-trip through JSON exactly, so a payload
    parsed back by :func:`parse_run_payload` reproduces the run
    byte-for-byte in every CSV it feeds."""
    return {
        "system": result.system_name,
        "series": [
            {
                "kernel": series.kernel.value,
                "ident": series.ident,
                "precision": series.precision.value,
                "iterations": series.iterations,
                "samples": [_sample_record(s) for s in series.samples],
            }
            for series in result.series
        ],
    }


def parse_run_payload(payload: dict, config: RunConfig,
                      system_name: Optional[str]):
    """Reconstruct a :class:`~repro.core.runner.RunResult` from a
    :func:`run_payload` dict.  Raises ``KeyError``/``TypeError``/
    ``ValueError`` on malformed payloads — callers decide whether that
    is a warned cache miss or a re-dispatched scenario."""
    from .runner import RunResult  # local import: runner imports us lazily

    return RunResult(
        config=config,
        system_name=payload.get("system", system_name),
        series=[_parse_series(rec) for rec in payload["series"]],
    )


def store_run(cache_dir, backend, result) -> Optional[Path]:
    """Store one completed run; returns the entry path (None if the
    backend is uncacheable)."""
    key = sweep_cache_key(result.config, result.system_name, backend)
    if key is None:
        return None
    path = _entry_path(cache_dir, key)
    with _cache_lock(path.parent):
        write_envelope(path, run_payload(result), version=CACHE_VERSION)
    _bump_stat(cache_dir, "stores")
    return path


def _warn_corrupt(path: Path, why: str) -> None:
    warnings.warn(
        f"sweep-cache entry {path.name} {why}; treating it as a miss "
        "(run `gpu-blob fsck` to audit, `--repair` to quarantine)",
        CacheIntegrityWarning,
        stacklevel=4,
    )


def load_cached_run(
    cache_dir, config: RunConfig, system_name: Optional[str], backend
):
    """Replay a stored run of the identical (config, system, backend)
    triple; ``None`` on a miss.  Unparseable or digest-mismatched
    entries are warned misses, stale format versions quiet ones."""
    key = sweep_cache_key(config, system_name, backend)
    if key is None:
        return None
    result = _load_entry(cache_dir, key, config, system_name)
    if result is None:
        _bump_stat(cache_dir, "misses")
    else:
        _bump_stat(cache_dir, "hits", entry_key=key)
    return result


def _load_entry(cache_dir, key: str, config: RunConfig, system_name):
    path = _entry_path(cache_dir, key)
    try:
        payload = open_envelope(path.read_bytes(), CACHE_VERSION)
    except OSError:
        return None  # absent (or racing eviction): a plain miss
    except EnvelopeError as exc:
        if exc.stale:
            return None  # stale format: recompute and overwrite quietly
        _warn_corrupt(path, "is not parseable JSON"
                      if str(exc) == UNPARSEABLE
                      else "failed its payload sha256 check")
        return None
    try:
        result = parse_run_payload(payload, config, system_name)
    except (KeyError, TypeError, ValueError):
        _warn_corrupt(path, "does not decode to a stored run")
        return None
    with contextlib.suppress(OSError):
        os.utime(path)  # refresh LRU recency for `cache prune`
    result.stats.cached_samples = sum(len(s.samples) for s in result.series)
    return result


def find_stale_series(
    cache_dir,
    system_name: Optional[str],
    kernel: Kernel,
    ident: str,
    precision: Precision,
    iterations: int,
):
    """Degraded-mode (stale-while-revalidate) lookup for the serving
    daemon: when the backend behind a threshold query is circuit-broken,
    the *nearest* stored series beats a 500.

    Scans every intact cache entry for ``system_name`` and returns the
    series matching (kernel, problem ident, precision) whose iteration
    count is closest to ``iterations`` — the exact count when present —
    as ``(series, matched_iterations)``, or ``None`` when nothing
    matches.  Ties and scan order are deterministic (sorted entry
    names), and entries failing their payload digest are skipped: even
    a degraded answer never serves corrupted data.
    """
    cache_dir = Path(cache_dir)
    if not cache_dir.is_dir():
        return None
    best = None  # ((|Δiterations|, iterations, entry name), series record)
    for path in sorted(cache_dir.glob("*.json")):
        try:
            payload = open_envelope(path.read_bytes(), CACHE_VERSION)
        except (OSError, EnvelopeError):
            continue
        if payload.get("system") != system_name:
            continue
        for rec in payload.get("series", ()):
            try:
                matches = (
                    rec["kernel"] == kernel.value
                    and rec["ident"] == ident
                    and rec["precision"] == precision.value
                )
                rec_iterations = int(rec["iterations"])
            except (KeyError, TypeError, ValueError):
                continue
            if not matches:
                continue
            rank = (abs(rec_iterations - iterations), rec_iterations, path.name)
            if best is None or rank < best[0]:
                best = (rank, rec)
    if best is None:
        return None
    rec = best[1]
    try:
        return _parse_series(rec), int(rec["iterations"])
    except (KeyError, TypeError, ValueError):
        return None


def prune_cache(
    cache_dir,
    max_entries: Optional[int] = None,
    max_bytes: Optional[int] = None,
) -> List[Path]:
    """LRU-evict cache entries until the store fits the given bounds.

    Recency is the entry mtime (hits refresh it); the oldest entries go
    first.  Returns the evicted paths.  ``None`` bounds are unlimited.
    """
    for label, bound in (("max_entries", max_entries), ("max_bytes", max_bytes)):
        if bound is not None and bound < 0:
            raise ConfigError(f"{label} must be >= 0, got {bound}")
    cache_dir = Path(cache_dir)
    if not cache_dir.is_dir():
        return []
    evicted: List[Path] = []
    with _cache_lock(cache_dir):
        entries = []
        for path in cache_dir.glob("*.json"):
            try:
                st = path.stat()
            except OSError:  # pragma: no cover - racing writer
                continue
            entries.append((st.st_mtime, st.st_size, path))
        entries.sort(key=lambda e: (e[0], e[2].name))
        count = len(entries)
        total = sum(size for _, size, _ in entries)
        for _, size, path in entries:
            over_entries = max_entries is not None and count > max_entries
            over_bytes = max_bytes is not None and total > max_bytes
            if not (over_entries or over_bytes):
                break
            with contextlib.suppress(OSError):
                path.unlink()
            evicted.append(path)
            count -= 1
            total -= size
    return evicted
