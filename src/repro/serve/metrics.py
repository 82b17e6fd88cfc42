"""Serving metrics: counters, gauges, and latency histograms.

Everything ``GET /metrics`` reports lives here, in plain dictionaries
and log-bucketed histograms — no client library, no exposition format,
just a JSON snapshot.  All mutation happens on the event-loop thread
(the service observes request outcomes after the fact), so no locking
is needed.

The cache hit/miss counters here are the *daemon's* view — one tick per
threshold request, coalesced followers inheriting their leader's
outcome.  The store-level counters (every ``load_cached_run`` across
all processes) come from :func:`repro.core.sweepcache.cache_stats` and
are merged into the same snapshot by the service, so ``/metrics`` and
``gpu-blob cache stats`` agree on what the store itself saw.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

__all__ = ["LatencyHistogram", "ServeMetrics"]

#: Log-spaced latency bucket upper bounds, in seconds (~1-2-5 per
#: decade from 0.5 ms to 60 s); overflows land in a +Inf bucket.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.002,
    0.005,
    0.01,
    0.02,
    0.05,
    0.1,
    0.2,
    0.5,
    1.0,
    2.0,
    5.0,
    10.0,
    30.0,
    60.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with percentile estimation.

    Percentiles interpolate within the winning bucket, bounded above by
    the true observed maximum, so p50/p99 stay meaningful without
    storing per-request samples.
    """

    __slots__ = ("bounds", "counts", "count", "total", "max")

    def __init__(self, bounds: Tuple[float, ...] = LATENCY_BUCKETS) -> None:
        self.bounds = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        for i, bound in enumerate(self.bounds):
            if seconds <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    def percentile(self, q: float) -> Optional[float]:
        """The latency at quantile ``q`` in [0, 1]; None when empty."""
        if not self.count:
            return None
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            if not n:
                continue
            seen += n
            if seen >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                hi = min(hi, self.max) if self.max else hi
                if hi <= lo:
                    return hi
                frac = (rank - (seen - n)) / n
                return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
        return self.max  # pragma: no cover - unreachable when count > 0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean_ms": (self.total / self.count * 1e3) if self.count else None,
            "p50_ms": _ms(self.percentile(0.50)),
            "p99_ms": _ms(self.percentile(0.99)),
            "max_ms": _ms(self.max) if self.count else None,
        }


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else round(seconds * 1e3, 4)


class ServeMetrics:
    """Every counter and histogram the daemon exports."""

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self.started = clock()
        #: requests and latency per endpoint label, statuses per code
        self.requests: Dict[str, int] = {}
        self.statuses: Dict[str, int] = {}
        self.latency: Dict[str, LatencyHistogram] = {}
        #: threshold requests answered from the sweep cache vs executed
        self.cache_hits = 0
        self.cache_misses = 0
        #: threshold requests that shared another request's in-flight job
        self.coalesced = 0
        self.rate_limited = 0
        self.deadline_expired = 0
        self.queue_rejected = 0
        self.sweeps_executed = 0
        #: stale cache answers served while a breaker was open or the
        #: backend failed (never a 500 for a transient backend fault)
        self.degraded_answers = 0
        #: breaker refusals that had no stale answer to fall back on
        self.degraded_unavailable = 0
        #: accepted jobs re-run from the WAL after a restart
        self.jobs_replayed = 0
        #: jobs abandoned after exhausting replay attempts
        self.jobs_dead = 0
        #: simulated backoff accumulated while replaying expired leases
        self.replay_backoff_s = 0.0
        #: WAL appends that failed (disk full / chaos wal-stall)
        self.wal_errors = 0

    def observe_request(self, endpoint: str, status: int, seconds: float) -> None:
        self.requests[endpoint] = self.requests.get(endpoint, 0) + 1
        self.statuses[str(status)] = self.statuses.get(str(status), 0) + 1
        histogram = self.latency.get(endpoint)
        if histogram is None:
            histogram = self.latency[endpoint] = LatencyHistogram()
        histogram.observe(seconds)

    def record_threshold_outcome(self, cache_hit: bool, coalesced: bool) -> None:
        if cache_hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
        if coalesced:
            self.coalesced += 1

    @property
    def hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return (self.cache_hits / lookups) if lookups else 0.0

    def snapshot(self) -> dict:
        return {
            "uptime_s": round(self._clock() - self.started, 3),
            "requests": dict(self.requests),
            "statuses": dict(self.statuses),
            "latency": {
                endpoint: histogram.snapshot()
                for endpoint, histogram in self.latency.items()
            },
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": round(self.hit_rate, 6),
                "coalesced": self.coalesced,
            },
            "jobs": {
                "sweeps_executed": self.sweeps_executed,
                "rate_limited": self.rate_limited,
                "deadline_expired": self.deadline_expired,
                "queue_rejected": self.queue_rejected,
                "replayed": self.jobs_replayed,
                "dead": self.jobs_dead,
                "replay_backoff_s": round(self.replay_backoff_s, 6),
            },
            "degraded": {
                "answers": self.degraded_answers,
                "unavailable": self.degraded_unavailable,
            },
            "wal_errors": self.wal_errors,
        }
