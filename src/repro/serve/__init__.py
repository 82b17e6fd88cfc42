"""``repro.serve`` — the async threshold-serving daemon.

Stdlib-only HTTP/JSON serving of the paper's offload-threshold
decision: the content-addressed sweep cache is the hot store, misses
coalesce (single-flight) into a bounded job queue over the supervised
executor, per-client token buckets answer 429, deadlines answer 504,
and ``/metrics`` exports counters and latency percentiles.  Crash
safety comes from a durable write-ahead journal of accepted jobs
(:mod:`repro.serve.wal`, replayed on restart) and per-(system,
backend) circuit breakers (:mod:`repro.serve.breaker`) that swap 500s
for stale-while-revalidate degraded answers.  See
:mod:`repro.serve.service` for the endpoint surface and ``DESIGN.md``
§11/§13 for the architecture.
"""

from .breaker import BreakerBoard, BreakerState, CircuitBreaker
from .client import ClientResponse, ServeClient, fetch_json
from .httpd import HttpError, Request, Response, json_response
from .jobs import JobQueue, QueueFullError
from .metrics import LatencyHistogram, ServeMetrics
from .quota import RateLimiter
from .service import (
    ApiError,
    ServeConfig,
    ServerHandle,
    ThresholdService,
    main,
    start_server,
)
from .wal import WalJob, WalState, WriteAheadLog, load_wal_state

__all__ = [
    "ApiError",
    "BreakerBoard",
    "BreakerState",
    "CircuitBreaker",
    "ClientResponse",
    "HttpError",
    "JobQueue",
    "LatencyHistogram",
    "QueueFullError",
    "RateLimiter",
    "Request",
    "Response",
    "ServeClient",
    "ServeConfig",
    "ServeMetrics",
    "ServerHandle",
    "ThresholdService",
    "WalJob",
    "WalState",
    "WriteAheadLog",
    "fetch_json",
    "json_response",
    "load_wal_state",
    "main",
    "start_server",
]
