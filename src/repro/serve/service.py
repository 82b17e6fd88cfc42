"""`gpu-blob serve` — the async threshold-serving daemon.

The decision function the paper builds — *given a system, problem
type, precision, iteration count, and transfer paradigm, which device
wins and where is the crossover?* — is served here as a long-running
HTTP/JSON API:

* ``POST /v1/threshold`` — answer one threshold query.  The
  content-addressed sweep cache is the hot store; a miss is coalesced
  per cache key (single-flight) and dispatched to a bounded job queue
  that runs the sweep through the existing supervised executor.
* ``GET /v1/systems`` / ``GET /v1/problems`` — registry introspection.
* ``GET /healthz`` — liveness.
* ``GET /readyz`` — readiness: not draining, queue accepting, WAL
  writable, and breakers not all open; 503 with the failing gates
  otherwise, so orchestrators can route around a sick daemon.
* ``GET /metrics`` — JSON counters: per-endpoint request counts and
  latency histograms (p50/p99), cache hit rate, queue depth, in-flight
  jobs, breaker states, WAL lease/replay counts, plus the store-level
  counters shared with ``gpu-blob cache stats``.

Crash safety: every accepted cache-miss job is journaled to a durable
write-ahead log (:mod:`repro.serve.wal`) *before* it is queued, and a
restarted daemon replays the accepted-but-incomplete entries through
the same executor — ``kill -9`` mid-burst drops nothing, and the
replayed payloads are byte-identical because the sweep cache is
content-addressed.  Consecutive backend failures trip a per-(system,
backend) circuit breaker (:mod:`repro.serve.breaker`); while it is
open the service answers from the sweep cache in stale-while-
revalidate mode — nearest stored series, ``degraded: true`` marker,
``Warning: 110`` header — instead of 500s.  A seeded
:class:`~repro.chaos.ChaosPlan` (``--chaos-plan``) injects
slow/failing backends and WAL damage to prove all of it.

Failure surface: per-client token buckets answer 429 with
``Retry-After``; a full job queue answers 503 carrying its depth and a
latency-derived ``Retry-After`` hint; a request deadline overrun
answers 504; and every error body is structured JSON carrying the
engine's error-family taxonomy (config = 2, fault = 3, integrity = 4 —
the CLI's exit codes).  SIGTERM drains gracefully: stop accepting,
finish in-flight requests and queued sweeps, journal completions, then
exit 0.

A cached threshold response is **byte-identical** to the CLI: series
rows reuse :func:`repro.core.csvio.sample_row`, the exact cell strings
``gpu-blob -o`` writes to CSV.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from ..backends import make_backend
from ..chaos import PRESETS, ChaosKind, ChaosPlan
from ..core.config import RunConfig
from ..core.csvio import FIELDNAMES, sample_row, series_filename
from ..core.problem import get_problem_type, problem_idents
from ..core.runner import RetryPolicy, run_sweep
from ..core.sweepcache import (
    SingleFlight,
    cache_stats,
    entry_path,
    find_stale_series,
    sweep_cache_key,
)
from ..core.threshold import threshold_for_series
from ..errors import (
    IntegrityError,
    ReproError,
    SweepFaultError,
    TransientKernelError,
    UnknownProblemTypeError,
    UnknownSystemError,
)
from ..systems.catalog import get_system, system_names
from ..types import Kernel, Precision, TransferType
from .breaker import BreakerBoard
from .httpd import (
    HttpError,
    Request,
    Response,
    handle_connection,
    json_response,
)
from .jobs import JobQueue, QueueFullError
from .metrics import ServeMetrics
from .quota import RateLimiter
from .wal import WriteAheadLog, flip_byte_in_last_record

__all__ = [
    "ApiError",
    "ServeConfig",
    "ServerHandle",
    "ThresholdService",
    "build_serve_parser",
    "main",
    "start_server",
]

#: Default bind address of the daemon.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8377

#: Model backends the API may run sweeps on (host is excluded: it has
#: no cache token, so it can never serve the byte-identical hot path).
SERVABLE_BACKENDS = ("analytic", "des")


class ApiError(Exception):
    """One structured API failure: an HTTP status plus an error body
    in the engine's family taxonomy (config/fault/integrity)."""

    def __init__(
        self,
        status: int,
        message: str,
        family: str = "config",
        valid: Optional[List[str]] = None,
        retry_after_s: Optional[float] = None,
        extra: Optional[dict] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.family = family
        self.valid = valid
        self.retry_after_s = retry_after_s
        self.extra = extra

    def payload(self) -> dict:
        error = {
            "family": self.family,
            "exit_code": _FAMILY_EXIT_CODES.get(self.family),
            "message": str(self),
        }
        if self.valid is not None:
            error["valid"] = list(self.valid)
        if self.retry_after_s is not None:
            error["retry_after_s"] = round(self.retry_after_s, 3)
        if self.extra:
            error.update(self.extra)
        return {"error": error}


#: The CLI's exit-code map, mirrored into error bodies.
_FAMILY_EXIT_CODES = {"config": 2, "fault": 3, "integrity": 4, "quota": None}


def _family_of(exc: ReproError) -> str:
    if isinstance(exc, IntegrityError):
        return "integrity"
    if isinstance(exc, SweepFaultError):
        return "fault"
    return "config"


@dataclass(frozen=True)
class ServeConfig:
    """Daemon configuration (the ``gpu-blob serve`` flags)."""

    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    cache_dir: str = "results/.sweep-cache"
    workers: int = 2
    queue_maxsize: int = 64
    #: per-client token-bucket refill in requests/second (None: no limit)
    rate: Optional[float] = None
    burst: int = 8
    request_timeout_s: float = 30.0
    drain_timeout_s: float = 30.0
    #: write-ahead journal of accepted jobs; None puts it next to the
    #: cache (``<cache_dir>/serve-wal.jsonl``), wal_enabled=False is
    #: the explicit opt-out (``--no-wal``)
    wal_path: Optional[str] = None
    wal_enabled: bool = True
    lease_s: float = 120.0
    #: replay attempts before a journaled job is declared dead
    max_attempts: int = 3
    #: consecutive backend failures that trip a circuit breaker
    breaker_threshold: int = 3
    breaker_reset_s: float = 30.0
    #: shard parallelism handed to run_sweep for each job (>1 engages
    #: the supervised process pool, and with it REPRO_CHAOS_KILL_SHARD)
    sweep_jobs: int = 1
    #: seeded serve-level fault plan (``--chaos-plan``); None = off
    chaos: Optional[ChaosPlan] = None

    def __post_init__(self) -> None:
        from ..errors import ConfigError

        if not 0 <= self.port <= 65535:
            raise ConfigError(f"port must be in [0, 65535], got {self.port}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.queue_maxsize < 1:
            raise ConfigError(
                f"queue_maxsize must be >= 1, got {self.queue_maxsize}"
            )
        if self.rate is not None and self.rate <= 0:
            raise ConfigError(f"rate must be > 0, got {self.rate}")
        if self.burst < 1:
            raise ConfigError(f"burst must be >= 1, got {self.burst}")
        if self.request_timeout_s <= 0:
            raise ConfigError(
                f"request_timeout_s must be > 0, got {self.request_timeout_s}"
            )
        if self.lease_s <= 0:
            raise ConfigError(f"lease_s must be > 0, got {self.lease_s}")
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.breaker_threshold < 1:
            raise ConfigError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_reset_s <= 0:
            raise ConfigError(
                f"breaker_reset_s must be > 0, got {self.breaker_reset_s}"
            )
        if self.sweep_jobs < 1:
            raise ConfigError(
                f"sweep_jobs must be >= 1, got {self.sweep_jobs}"
            )

    @property
    def wal_file(self) -> Path:
        """Where the journal lives (whether or not it is enabled)."""
        if self.wal_path is not None:
            return Path(self.wal_path)
        return Path(self.cache_dir) / "serve-wal.jsonl"


@dataclass(frozen=True)
class ThresholdQuery:
    """One validated ``POST /v1/threshold`` request."""

    system: str
    kernel: Kernel
    problem: str
    precision: Precision
    iterations: int
    paradigm: TransferType
    backend: str
    min_dim: int
    max_dim: int
    step: int
    dim: Optional[int]
    min_consecutive: int
    include_series: bool

    def run_config(self) -> RunConfig:
        """The sweep config — shaped exactly like the CLI builds it
        (all three paradigms swept), so server and CLI share cache
        entries for the same (system, problem, precision, iterations)."""
        return RunConfig(
            min_dim=self.min_dim,
            max_dim=self.max_dim,
            iterations=self.iterations,
            step=self.step,
            kernels=(self.kernel,),
            problem_idents=(self.problem,),
            precisions=(self.precision,),
        )

    def record(self) -> dict:
        """The normalized JSON form journaled into the WAL — exactly
        what :func:`parse_threshold_query` reconstructs on replay."""
        return {
            "system": self.system,
            "kernel": self.kernel.value,
            "problem": self.problem,
            "precision": self.precision.value,
            "iterations": self.iterations,
            "paradigm": self.paradigm.value,
            "backend": self.backend,
            "min_dim": self.min_dim,
            "max_dim": self.max_dim,
            "step": self.step,
            "dim": self.dim,
            "min_consecutive": self.min_consecutive,
            "include_series": self.include_series,
        }


def _enum_field(data: dict, name: str, enum_cls, default):
    value = data.get(name, default)
    try:
        return enum_cls(value)
    except ValueError:
        raise ApiError(
            400,
            f"unknown {name} {value!r}",
            valid=[member.value for member in enum_cls],
        ) from None


def _int_field(data: dict, name: str, default: int, minimum: int = 1) -> int:
    value = data.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ApiError(
            400, f"{name} must be an integer >= {minimum}, got {value!r}"
        )
    return value


def parse_threshold_query(body: dict) -> ThresholdQuery:
    """Validate one request body into a :class:`ThresholdQuery`,
    answering unknown names with the valid registry entries."""
    if not isinstance(body, dict):
        raise ApiError(400, "request body must be a JSON object")
    system = body.get("system")
    if not isinstance(system, str):
        raise ApiError(
            400, "field 'system' is required", valid=list(system_names())
        )
    if system not in system_names():
        raise ApiError(
            400,
            f"unknown system {system!r}",
            valid=list(system_names()),
        )
    kernel = _enum_field(body, "kernel", Kernel, Kernel.GEMM.value)
    problem = body.get("problem", "square")
    try:
        get_problem_type(kernel, problem)
    except (UnknownProblemTypeError, TypeError):
        raise ApiError(
            400,
            f"unknown problem {problem!r} for kernel {kernel.value!r}",
            valid=list(problem_idents(kernel)),
        ) from None
    precision = _enum_field(
        body, "precision", Precision, Precision.SINGLE.value
    )
    paradigm = _enum_field(
        body, "paradigm", TransferType, TransferType.ONCE.value
    )
    backend = body.get("backend", "analytic")
    if backend not in SERVABLE_BACKENDS:
        raise ApiError(
            400,
            f"unknown backend {backend!r}",
            valid=list(SERVABLE_BACKENDS),
        )
    min_dim = _int_field(body, "min_dim", 1)
    max_dim = _int_field(body, "max_dim", 4096)
    if max_dim < min_dim:
        raise ApiError(
            400, f"max_dim ({max_dim}) must be >= min_dim ({min_dim})"
        )
    dim = body.get("dim")
    if dim is not None and (
        not isinstance(dim, int) or isinstance(dim, bool) or dim < 1
    ):
        raise ApiError(400, f"dim must be an integer >= 1, got {dim!r}")
    return ThresholdQuery(
        system=system,
        kernel=kernel,
        problem=problem,
        precision=precision,
        iterations=_int_field(body, "iterations", 1),
        paradigm=paradigm,
        backend=backend,
        min_dim=min_dim,
        max_dim=max_dim,
        step=_int_field(body, "step", 8),
        dim=dim,
        min_consecutive=_int_field(body, "min_consecutive", 2),
        include_series=bool(body.get("include_series", False)),
    )


class ThresholdService:
    """Routing and endpoint logic, independent of the socket layer.

    ``sweep_fn`` is injectable for tests (it must accept the
    ``run_sweep(backend, config, system_name=..., cache_dir=...)``
    shape); the default is the real supervised runner.
    """

    def __init__(self, config: ServeConfig, sweep_fn=None) -> None:
        self.config = config
        self.metrics = ServeMetrics()
        self.jobs = JobQueue(
            workers=config.workers, maxsize=config.queue_maxsize
        )
        self.limiter = RateLimiter(config.rate, config.burst)
        self.breakers = BreakerBoard(
            failure_threshold=config.breaker_threshold,
            reset_timeout_s=config.breaker_reset_s,
        )
        self.chaos = config.chaos
        self.wal: Optional[WriteAheadLog] = None
        if config.wal_enabled:
            self.wal = WriteAheadLog(config.wal_file, lease_s=config.lease_s)
        self.draining = False
        self._sweep_fn = sweep_fn if sweep_fn is not None else run_sweep
        self._flight = SingleFlight()
        self._backends: Dict[tuple, object] = {}
        self._inflight_http = 0
        #: the startup WAL replay (set by start_server; drain awaits it)
        self.replay_task: Optional[asyncio.Future] = None

    # -- request entry point ------------------------------------------

    async def handle(self, request: Request) -> Response:
        endpoint = self._endpoint_label(request.path)
        started = time.perf_counter()
        self._inflight_http += 1
        try:
            response = await self._dispatch(request)
        except ApiError as exc:
            response = self._api_error_response(exc)
        except HttpError as exc:
            response = self._api_error_response(
                ApiError(exc.status, str(exc))
            )
        except ReproError as exc:
            response = self._repro_error_response(exc)
        finally:
            self._inflight_http -= 1
        self.metrics.observe_request(
            endpoint, response.status, time.perf_counter() - started
        )
        return response

    @property
    def inflight_http(self) -> int:
        return self._inflight_http

    @staticmethod
    def _endpoint_label(path: str) -> str:
        known = {
            "/healthz": "healthz",
            "/readyz": "readyz",
            "/metrics": "metrics",
            "/v1/systems": "systems",
            "/v1/problems": "problems",
            "/v1/threshold": "threshold",
        }
        return known.get(path, "other")

    async def _dispatch(self, request: Request) -> Response:
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            return json_response(200, {"status": "ok"})
        if route == ("GET", "/readyz"):
            return self._readyz_response()
        if route == ("GET", "/metrics"):
            return json_response(200, self._metrics_payload())
        if route == ("GET", "/v1/systems"):
            return json_response(200, self._systems_payload())
        if route == ("GET", "/v1/problems"):
            return json_response(200, self._problems_payload())
        if route == ("POST", "/v1/threshold"):
            return await self._threshold(request)
        if request.path in (
            "/healthz", "/readyz", "/metrics", "/v1/systems", "/v1/problems",
            "/v1/threshold",
        ):
            raise ApiError(
                405, f"method {request.method} not allowed for {request.path}"
            )
        raise ApiError(404, f"no such endpoint: {request.path}")

    def _readyz_response(self) -> Response:
        """Readiness: every gate an orchestrator should route on."""
        gates = {
            "accepting": not self.draining,
            "queue_accepting": self.jobs.depth < self.config.queue_maxsize,
            "wal_writable": self.wal is None or self.wal.healthy,
            "breakers_closed": not self.breakers.all_open(),
        }
        ready = all(gates.values())
        payload = {"status": "ok" if ready else "unavailable", **gates}
        return json_response(200 if ready else 503, payload)

    # -- error rendering ----------------------------------------------

    def _api_error_response(self, exc: ApiError) -> Response:
        headers = ()
        if exc.retry_after_s is not None:
            # 429 quota overruns, 503 queue-full/breaker-open: any
            # retryable refusal carries its hint as a real header too
            retry = max(1, int(-(-exc.retry_after_s // 1)))
            headers = (("Retry-After", str(retry)),)
        return json_response(exc.status, exc.payload(), headers=headers)

    def _repro_error_response(self, exc: ReproError) -> Response:
        family = _family_of(exc)
        status = {"config": 400, "fault": 500, "integrity": 500}[family]
        payload = {
            "error": {
                "family": family,
                "exit_code": _FAMILY_EXIT_CODES[family],
                "error": type(exc).__name__,
                "message": str(exc),
            }
        }
        return json_response(status, payload)

    # -- introspection endpoints --------------------------------------

    def _systems_payload(self) -> dict:
        systems = []
        for name in system_names():
            spec = get_system(name)
            systems.append({
                "name": spec.name,
                "cpu_library": spec.cpu_library,
                "gpu_library": spec.gpu_library,
                "cpu_threads": spec.cpu_threads,
                "has_gpu": spec.gpu is not None,
            })
        return {"systems": systems}

    def _problems_payload(self) -> dict:
        return {
            "problems": {
                kernel.value: list(problem_idents(kernel))
                for kernel in Kernel
            }
        }

    def _metrics_payload(self) -> dict:
        from ..core import workerpool

        payload = self.metrics.snapshot()
        payload["workerpool"] = workerpool.pool_stats()
        payload["queue"] = {
            "depth": self.jobs.depth,
            "inflight": self.jobs.inflight,
            "maxsize": self.config.queue_maxsize,
            "workers": self.config.workers,
        }
        payload["http"] = {"inflight": self._inflight_http}
        payload["store"] = cache_stats(self.config.cache_dir)
        payload["breakers"] = self.breakers.snapshot()
        if self.wal is not None:
            active, expired = self.wal.lease_counts()
            payload["wal"] = {
                "path": str(self.wal.path),
                "writable": self.wal.healthy,
                "jobs": self.wal.counts(),
                "leases": {"active": active, "expired": expired},
                "corrupt_records": self.wal.state.corrupt_records,
            }
        else:
            payload["wal"] = None
        return payload

    # -- the threshold endpoint ---------------------------------------

    def _backend_for(self, query: ThresholdQuery):
        key = (query.backend, query.system)
        backend = self._backends.get(key)
        if backend is None:
            backend = make_backend(query.backend, system=query.system)
            self._backends[key] = backend
        return backend

    def _cache_entry_present(self, cache_key) -> bool:
        """Cheap probe: does the hot store already hold this key?  Only
        cold keys engage the breaker and the write-ahead journal — a
        warm request never touches the backend."""
        if not isinstance(cache_key, str):
            return False
        return entry_path(self.config.cache_dir, cache_key).is_file()

    def _chaos_fires(self, kind: ChaosKind, cache_key, attempt) -> bool:
        if self.chaos is None or attempt is None:
            return False
        key = cache_key if isinstance(cache_key, str) else repr(cache_key)
        return self.chaos.fires(kind, (key,), attempt)

    # -- write-ahead journal hooks ------------------------------------

    def _wal_accept(self, cache_key, query: ThresholdQuery, attempt: int = 1):
        """Journal one accepted cold job (write-ahead: before it is
        queued).  A failed append is availability-over-durability: the
        job still runs, ``wal_errors`` ticks, ``/readyz`` flips."""
        if self.wal is None or not isinstance(cache_key, str):
            return None
        if self._chaos_fires(ChaosKind.WAL_STALL, cache_key, attempt):
            self.wal.healthy = False
            self.metrics.wal_errors += 1
            return None
        try:
            job_id = self.wal.append_accept(
                cache_key, query.record(), attempt=attempt
            )
        except OSError:
            self.metrics.wal_errors += 1
            return None
        if self._chaos_fires(ChaosKind.WAL_BITFLIP, cache_key, attempt):
            flip_byte_in_last_record(self.wal.path)
        return job_id

    def _wal_mark_dead(self, job_id, reason: str) -> None:
        if self.wal is None or job_id is None:
            return
        try:
            if self.wal.mark_dead(job_id, reason):
                self.metrics.jobs_dead += 1
        except OSError:
            self.metrics.wal_errors += 1

    def _wal_complete_key(self, cache_key) -> None:
        """The result behind ``cache_key`` reached the content-addressed
        store: journal completion for every pending entry sharing the
        key (replays and coalesced bursts can stack several), each
        exactly once (:meth:`WriteAheadLog.mark_complete` refuses
        doubles)."""
        if self.wal is None or not isinstance(cache_key, str):
            return
        for job in self.wal.pending():
            if job.key == cache_key:
                try:
                    self.wal.mark_complete(job.job_id)
                except OSError:
                    self.metrics.wal_errors += 1

    # -- job execution ------------------------------------------------

    def _execute_fn(self, query, backend, config, cache_key, attempt):
        """The blocking cache-or-sweep computation behind one job, with
        this attempt's chaos draws applied (``attempt=None``: no chaos —
        warm requests never execute the backend)."""
        sweep_kwargs = {
            "system_name": query.system,
            "cache_dir": self.config.cache_dir,
        }
        if self.config.sweep_jobs > 1:
            sweep_kwargs["jobs"] = self.config.sweep_jobs
        slow = self._chaos_fires(ChaosKind.SLOW_BACKEND, cache_key, attempt)
        fail = self._chaos_fires(ChaosKind.FAIL_BACKEND, cache_key, attempt)

        def compute():
            if slow:
                time.sleep(self.chaos.slow_s)
            if fail:
                raise TransientKernelError(
                    f"chaos fail-backend fired (attempt {attempt})"
                )
            return self._sweep_fn(backend, config, **sweep_kwargs)

        return lambda: self._flight.do(cache_key, compute)

    def _job_thunk(self, query, backend, config, cache_key, breaker, attempt):
        """One queued job: run the sweep off-loop, account the breaker
        (only when this job claimed an execution slot via ``allow()``),
        and journal completion."""
        loop = asyncio.get_running_loop()
        execute = self._execute_fn(query, backend, config, cache_key, attempt)

        async def thunk():
            try:
                result = await loop.run_in_executor(None, execute)
            except SweepFaultError:
                if breaker is not None:
                    breaker.record_failure()
                # the WAL entry stays pending: the next startup replays
                # it with a fresh attempt (and fresh chaos draws)
                raise
            if breaker is not None:
                breaker.record_success()
            if not result.cache_hit:
                self.metrics.sweeps_executed += 1
            self._wal_complete_key(cache_key)
            return result

        return thunk

    def _queue_retry_after(self) -> float:
        """A 503's ``Retry-After`` hint: observed median threshold
        latency scaled by how many jobs are ahead per worker (1s floor
        before any latency has been observed)."""
        histogram = self.metrics.latency.get("threshold")
        p50 = histogram.percentile(0.5) if histogram else None
        base = p50 if p50 else 1.0
        backlog = (self.jobs.depth + self.jobs.inflight) / max(
            1, self.config.workers
        )
        return max(1.0, base * max(1.0, backlog))

    async def _threshold(self, request: Request) -> Response:
        query = parse_threshold_query(request.json())
        client = request.headers.get("x-client-id") or request.peer or "-"
        retry_after = self.limiter.check(client)
        if retry_after > 0:
            self.metrics.rate_limited += 1
            raise ApiError(
                429,
                f"client {client!r} is over its request quota",
                family="quota",
                retry_after_s=retry_after,
            )
        try:
            backend = self._backend_for(query)
        except UnknownSystemError:
            raise ApiError(
                400,
                f"unknown system {query.system!r}",
                valid=list(system_names()),
            ) from None
        config = query.run_config()
        cache_key = sweep_cache_key(config, query.system, backend) or (
            query.backend,
            query.system,
            config,
        )
        breaker = self.breakers.breaker((query.system, query.backend))
        # the leader of a cold key is the one request that journals the
        # accept and claims a breaker slot; followers coalesce, warm
        # requests replay the store without touching the backend
        leader = not self._cache_entry_present(cache_key) and (
            not self.jobs.in_flight(cache_key)
        )
        wal_id = None
        attempt = None
        if leader:
            if not breaker.allow():
                return self._degraded_response(
                    query,
                    breaker,
                    reason=(
                        f"circuit breaker for ({query.system}, "
                        f"{query.backend}) is {breaker.state.value}"
                    ),
                )
            attempt = 1
            wal_id = self._wal_accept(cache_key, query)
        thunk = self._job_thunk(
            query, backend, config, cache_key,
            breaker if leader else None, attempt,
        )
        try:
            future, coalesced = self.jobs.submit(cache_key, thunk)
        except QueueFullError:
            self.metrics.queue_rejected += 1
            self._wal_mark_dead(wal_id, "queue full")
            depth = self.jobs.depth
            raise ApiError(
                503,
                f"job queue is full ({depth}/{self.config.queue_maxsize} "
                "pending); retry after the backlog clears",
                family="fault",
                retry_after_s=self._queue_retry_after(),
                extra={"queue_depth": depth},
            ) from None
        deadline = self.config.request_timeout_s
        try:
            result = await asyncio.wait_for(asyncio.shield(future), deadline)
        except asyncio.TimeoutError:
            self.metrics.deadline_expired += 1
            raise ApiError(
                504,
                f"threshold request exceeded its {deadline:.3g}s deadline "
                "(the sweep keeps running; retry to pick up the cached "
                "result)",
                family="fault",
            ) from None
        except SweepFaultError as exc:
            # an executed job failed on a transient backend fault: a
            # stale cache answer beats a 500 (integrity errors still
            # surface — corrupted data must never be served)
            return self._degraded_response(
                query, breaker, reason=f"backend execution failed: {exc}"
            )
        self.metrics.record_threshold_outcome(result.cache_hit, coalesced)
        return json_response(200, self._threshold_payload(query, result))

    # -- degraded (stale-while-revalidate) answers --------------------

    def _degraded_response(self, query, breaker, reason: str) -> Response:
        stale = find_stale_series(
            self.config.cache_dir,
            query.system,
            query.kernel,
            query.problem,
            query.precision,
            query.iterations,
        )
        if stale is None:
            self.metrics.degraded_unavailable += 1
            raise ApiError(
                503,
                f"backend {query.backend!r} for system {query.system!r} is "
                f"unavailable ({reason}) and the sweep cache holds no "
                "series matching this query",
                family="fault",
                retry_after_s=breaker.retry_after_s()
                or self.config.breaker_reset_s,
            )
        series, stale_iterations = stale
        self.metrics.degraded_answers += 1
        payload = self._series_payload(query, series, cache_hit=True)
        payload["degraded"] = True
        payload["cache"]["stale_iterations"] = stale_iterations
        payload["cache"]["reason"] = reason
        return json_response(
            200,
            payload,
            headers=(
                (
                    "Warning",
                    '110 gpu-blob "stale threshold: backend unavailable; '
                    'answered from sweep cache"',
                ),
            ),
        )

    # -- WAL replay ---------------------------------------------------

    async def replay_wal(self) -> int:
        """Re-run every accepted-but-incomplete journal entry through
        the same executor path, grouped by cache key (a coalesced burst
        or a replay race can stack several accepts on one key; one
        execution completes them all).  Expired leases accumulate the
        sweep layer's simulated exponential backoff, attempts beyond
        ``max_attempts`` are dead-lettered, and a transient failure
        leaves the entry pending for the *next* restart (with fresh
        chaos draws).  Returns the number of entries completed."""
        if self.wal is None:
            return 0
        pending = self.wal.pending()
        if not pending:
            return 0
        groups: Dict[str, list] = {}
        for job in pending:
            groups.setdefault(job.key, []).append(job)
        policy = RetryPolicy()
        loop = asyncio.get_running_loop()
        completed = 0
        for key, jobs_for_key in groups.items():
            lead = jobs_for_key[0]
            now = self.wal.clock()
            expired = any(job.expired(now) for job in jobs_for_key)
            try:
                attempt = self.wal.renew(lead.job_id)
            except OSError:
                self.metrics.wal_errors += 1
                attempt = lead.attempt + 1
            if attempt > self.config.max_attempts:
                for job in jobs_for_key:
                    self._wal_mark_dead(job.job_id, "attempts exhausted")
                continue
            if expired:
                # simulated, like the sweep layer: accounted, not slept
                self.metrics.replay_backoff_s += policy.backoff_s(
                    attempt, (key,)
                )
            try:
                query = parse_threshold_query(dict(lead.query))
            except ApiError as exc:
                for job in jobs_for_key:
                    self._wal_mark_dead(
                        job.job_id, f"unparseable query: {exc}"
                    )
                continue
            try:
                backend = self._backend_for(query)
            except UnknownSystemError:
                for job in jobs_for_key:
                    self._wal_mark_dead(job.job_id, "unknown system")
                continue
            config = query.run_config()
            breaker = self.breakers.breaker((query.system, query.backend))
            execute = self._execute_fn(query, backend, config, key, attempt)
            try:
                result = await loop.run_in_executor(None, execute)
            except SweepFaultError:
                breaker.record_failure()
                continue
            except ReproError as exc:
                for job in jobs_for_key:
                    self._wal_mark_dead(job.job_id, f"replay failed: {exc}")
                continue
            breaker.record_success()
            if not result.cache_hit:
                self.metrics.sweeps_executed += 1
            self.metrics.jobs_replayed += len(jobs_for_key)
            completed += len(jobs_for_key)
            self._wal_complete_key(key)
        return completed

    def _threshold_payload(self, query: ThresholdQuery, result) -> dict:
        series = result.series_for(
            query.kernel, query.problem, query.precision
        )
        return self._series_payload(query, series, result.cache_hit)

    def _series_payload(
        self, query: ThresholdQuery, series, cache_hit: bool
    ) -> dict:
        found = threshold_for_series(
            series, query.paradigm, query.min_consecutive
        )
        payload = {
            "system": query.system,
            "kernel": query.kernel.value,
            "problem": query.problem,
            "precision": query.precision.value,
            "iterations": query.iterations,
            "paradigm": query.paradigm.value,
            "backend": query.backend,
            "sweep": {
                "min_dim": query.min_dim,
                "max_dim": query.max_dim,
                "step": query.step,
                "samples": len(series.all_samples()),
            },
            "threshold": {
                "found": found.found,
                "dims": (
                    {
                        "m": found.dims.m,
                        "n": found.dims.n,
                        "k": found.dims.k,
                    }
                    if found.found
                    else None
                ),
                "notation": str(found) if found.found else None,
                "index": found.index,
            },
            "best_device": self._best_device(query, found),
            # a degraded answer replaces this False and annotates the
            # cache block; see _degraded_response
            "degraded": False,
            # coalesced waiters must agree byte-for-byte with their
            # leader, so only the shared hit/miss outcome appears here;
            # per-request coalescing shows up on /metrics instead
            "cache": {"hit": cache_hit},
        }
        if query.include_series:
            payload["series"] = {
                "filename": series_filename(series),
                "fieldnames": list(FIELDNAMES),
                "rows": [
                    sample_row(sample, series) for sample in series.samples
                ],
            }
        return payload

    @staticmethod
    def _best_device(query: ThresholdQuery, found) -> str:
        """GPU wins at and beyond the threshold; CPU everywhere else.
        With a concrete ``dim`` (a sweep parameter), compare that
        problem instance against the threshold dims."""
        if not found.found:
            return "cpu"
        if query.dim is None:
            return "gpu"
        problem_type = get_problem_type(query.kernel, query.problem)
        at = problem_type.dims_at(query.dim)
        return "gpu" if at.max_dim >= found.dims.max_dim else "cpu"


class ServerHandle:
    """One started daemon: the socket server plus its service."""

    def __init__(self, server, service: ThresholdService) -> None:
        self.server = server
        self.service = service
        sock = server.sockets[0].getsockname()
        self.host, self.port = sock[0], sock[1]
        self._drained = False
        self._drain_ok = True

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: stop accepting (``/readyz`` flips first),
        finish the startup replay, in-flight requests, and queued
        sweeps (bounded by ``timeout``), journal their completions,
        then stop the workers and close the WAL.  Returns True when
        everything completed.  A second drain is a no-op returning the
        first one's verdict."""
        if self._drained:
            return self._drain_ok
        self._drained = True
        if timeout is None:
            timeout = self.service.config.drain_timeout_s
        self.service.draining = True
        self.server.close()
        deadline = time.monotonic() + timeout
        replay = self.service.replay_task
        if replay is not None and not replay.done():
            try:
                await asyncio.wait_for(
                    asyncio.shield(replay),
                    max(0.1, deadline - time.monotonic()),
                )
            except (asyncio.TimeoutError, ReproError):
                pass  # unfinished replays stay pending for next startup
        while self.service.inflight_http and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        finished = await self.service.jobs.drain(
            max(0.1, deadline - time.monotonic())
        )
        await self.server.wait_closed()
        if self.service.wal is not None:
            self.service.wal.close()
        self._drain_ok = finished and not self.service.inflight_http
        return self._drain_ok


async def start_server(config: ServeConfig, sweep_fn=None) -> ServerHandle:
    """Bind and start serving; ``port=0`` picks an ephemeral port."""
    service = ThresholdService(config, sweep_fn=sweep_fn)
    service.jobs.start()
    if service.wal is not None and service.wal.pending():
        # crash recovery: replay accepted-but-incomplete jobs in the
        # background while the daemon already serves traffic
        service.replay_task = asyncio.ensure_future(service.replay_wal())

    async def on_connection(reader, writer):
        await handle_connection(reader, writer, service.handle)

    server = await asyncio.start_server(
        on_connection, host=config.host, port=config.port
    )
    return ServerHandle(server, service)


# -- daemon entry point -----------------------------------------------


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpu-blob serve",
        description=(
            "Serve GPU offload thresholds over HTTP/JSON, answering from "
            "the content-addressed sweep cache and running misses "
            "through a bounded job queue on the supervised executor."
        ),
    )
    parser.add_argument(
        "--host", default=DEFAULT_HOST,
        help=f"bind address (default {DEFAULT_HOST})",
    )
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, metavar="N",
        help=f"TCP port; 0 picks an ephemeral one (default {DEFAULT_PORT})",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default="results/.sweep-cache",
        help="content-addressed sweep cache used as the hot store "
        "(default results/.sweep-cache)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent sweep jobs (default 2)",
    )
    parser.add_argument(
        "--queue-max", type=int, default=64, metavar="N",
        help="pending-job bound; excess misses answer 503 (default 64)",
    )
    parser.add_argument(
        "--rate", type=float, default=None, metavar="RPS",
        help="per-client token-bucket refill in requests/second "
        "(default: unlimited)",
    )
    parser.add_argument(
        "--burst", type=int, default=8, metavar="N",
        help="token-bucket capacity per client (default 8)",
    )
    parser.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-request deadline; overruns answer 504 (default 30)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="grace period for in-flight work on SIGTERM (default 30)",
    )
    parser.add_argument(
        "--wal", metavar="PATH", default=None, dest="wal",
        help="write-ahead journal of accepted jobs "
        "(default <cache-dir>/serve-wal.jsonl)",
    )
    parser.add_argument(
        "--no-wal", action="store_true",
        help="disable the durable job journal (accepted jobs die with "
        "the daemon)",
    )
    parser.add_argument(
        "--lease", type=float, default=120.0, metavar="SECONDS",
        help="journal lease per accepted job; expired leases replay "
        "with backoff (default 120)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="replay attempts before a journaled job is declared dead "
        "(default 3)",
    )
    parser.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="consecutive backend failures that trip a circuit breaker "
        "(default 3)",
    )
    parser.add_argument(
        "--breaker-reset", type=float, default=30.0, metavar="SECONDS",
        help="open-breaker cooldown before a half-open probe "
        "(default 30)",
    )
    parser.add_argument(
        "--sweep-jobs", type=int, default=1, metavar="N",
        help="shard parallelism per sweep job; >1 uses the supervised "
        "process pool (default 1)",
    )
    parser.add_argument(
        "--chaos-plan", metavar="NAME[:SEED]", default=None,
        help="inject seeded serve-level faults (testing only): "
        + ", ".join(PRESETS["serve"]),
    )
    return parser


async def _serve_until_signal(config: ServeConfig) -> None:
    handle = await start_server(config)
    print(
        f"gpu-blob serve: listening on http://{handle.host}:{handle.port} "
        f"(cache {config.cache_dir})",
        flush=True,
    )
    if handle.service.replay_task is not None:
        backlog = len(handle.service.wal.pending())
        print(
            f"gpu-blob serve: replaying {backlog} journaled job(s) "
            f"from {handle.service.wal.path}",
            flush=True,
        )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    await stop.wait()
    print("gpu-blob serve: draining", flush=True)
    await handle.drain()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (``gpu-blob serve ...``)."""
    args = build_serve_parser().parse_args(argv)
    try:
        chaos = (
            ChaosPlan.parse(args.chaos_plan, "serve")
            if args.chaos_plan is not None
            else None
        )
        config = ServeConfig(
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir,
            workers=args.workers,
            queue_maxsize=args.queue_max,
            rate=args.rate,
            burst=args.burst,
            request_timeout_s=args.request_timeout,
            drain_timeout_s=args.drain_timeout,
            wal_path=args.wal,
            wal_enabled=not args.no_wal,
            lease_s=args.lease,
            max_attempts=args.max_attempts,
            breaker_threshold=args.breaker_threshold,
            breaker_reset_s=args.breaker_reset,
            sweep_jobs=args.sweep_jobs,
            chaos=chaos,
        )
        asyncio.run(_serve_until_signal(config))
    except ReproError as exc:
        print(f"gpu-blob: error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, IntegrityError) else (
            3 if isinstance(exc, SweepFaultError) else 2
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
