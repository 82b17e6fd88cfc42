"""The sweep runner: GPU-BLOB's main loop over a backend, made resilient.

For every (problem type, precision) pair in the config the runner walks
the sweep parameters in ascending order, samples the CPU and then the
GPU under each transfer paradigm, and collects the timings into one
:class:`~repro.core.records.ProblemSeries` — the unit the threshold
detector and all tables/figures consume.

Three execution strategies exist, all producing bit-identical results:

* the classic per-cell loop (the reference path — always correct, and
  the only path under fault injection): each cell's
  :class:`~repro.core.records.PerfSample` goes onto one list, which
  becomes the series' columns once, when the series ends;
* a **vectorized fast path**: when no fault injector wraps the backend
  and the backend exposes ``cpu_sample_batch``/``gpu_sample_batch``
  (the analytic backend does), each (device, transfer) column of a
  series is one batch call that returns the column's arrays;
* a **parallel executor**: ``run_sweep(..., jobs=N)`` shards the series
  across the persistent warm process pool (:mod:`repro.core.workerpool`)
  and merges them in series order.  Each worker returns its series'
  codec bytes through a shared-memory segment and journals to its own
  checkpoint shard, merged when the pool drains.  It is skipped for
  ``jobs=1``, under faults, or when the backend or config cannot be
  pickled (the DES engine stays serial *within* a series).

With ``cache_dir=`` the runner keys a content-addressed result store on
the checkpoint config fingerprint plus the backend's ``cache_token``;
re-running an identical (config, system, backend) sweep is a cache hit
that replays the stored samples exactly (series are stored as column
arrays, floats as raw bits).  Only complete, fault-free, non-degraded
runs are stored.

Unlike a lab-bench loop, ``run_sweep`` assumes samples can *fail* the
way they do on real HPC queues (see :mod:`repro.faults`):

* transient faults (kernel failures, DMA errors, deadline overruns) are
  retried up to :attr:`RetryPolicy.max_retries` times with exponential
  backoff and deterministic jitter, tracked on a simulated clock;
* cells that exhaust their retries land on the run's quarantine list
  instead of crashing the sweep;
* an unexpected backend exception (a DES engine bug, say) degrades the
  sweep to a fallback backend — by default the analytic model behind a
  failing DES backend — and flags the result ``degraded``;
* :class:`~repro.errors.DeviceLostError` is permanent: the sweep
  finishes CPU-only and every series with missing GPU cells is flagged
  ``partial``.

With ``checkpoint=`` the runner journals every completed cell to an
append-only JSONL file (:mod:`repro.faults.checkpoint`); ``resume=True``
replays the journal so an interrupted sweep continues — and finishes
byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..chaos import ChaosPlan, draw
from ..errors import (
    RETRYABLE_ERRORS,
    DeviceLostError,
    PartialSweepWarning,
    ReproError,
    SampleTimeoutError,
)
from ..faults.checkpoint import (
    _KEY_FIELDS,
    CheckpointReader,
    CheckpointWriter,
    sample_key,
)
from ..faults.injector import FaultInjector
from ..types import DeviceKind, Kernel, Precision, TransferType
from .config import RunConfig
from .invariants import (
    InvariantContext,
    guard_samples,
    guard_spec,
    invariant_context,
)
from .records import (
    PerfSample,
    ProblemSeries,
    QuarantineEntry,
    decode_series,
    encode_series,
    sample_from_record,
)
from .threshold import ThresholdResult, threshold_for_series

__all__ = ["RetryPolicy", "RunResult", "SweepStats", "run_sweep"]


@dataclass(frozen=True)
class RetryPolicy:
    """How a failed attempt is retried, and what the wait costs.

    One policy prices every retry: the runner's sample and shard
    retries, the dispatcher's scenario retries and the serve client's
    429/503 retries.  In a sweep, backoff is *simulated* — the runner
    never sleeps; it accumulates the would-be wait on
    :attr:`SweepStats.backoff_s` so chaos sweeps stay fast and
    deterministic — while the client genuinely waits, because it paces
    a live server.  ``sample_timeout_s`` is a per-sample
    deadline against the sample's simulated seconds: overruns raise
    :class:`~repro.errors.SampleTimeoutError` and are retried like any
    transient fault (a hung sample redraws its faults on retry).
    """

    max_retries: int = 3
    backoff_base_s: float = 0.5
    backoff_factor: float = 2.0
    jitter: float = 0.1
    sample_timeout_s: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        from ..errors import ConfigError

        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_s < 0 or self.backoff_factor < 1:
            raise ConfigError("backoff must be non-negative and non-shrinking")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.sample_timeout_s is not None and self.sample_timeout_s <= 0:
            raise ConfigError(
                f"sample_timeout_s must be > 0, got {self.sample_timeout_s}"
            )

    def backoff_s(self, attempt: int, key: tuple) -> float:
        """Wait before retry ``attempt`` (1-based), with the
        deterministic jitter draw of :mod:`repro.chaos`."""
        base = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        if self.jitter == 0.0:
            return base
        unit = draw(self.seed, "backoff", attempt, *key)
        return base * (1.0 + self.jitter * (2.0 * unit - 1.0))


@dataclass
class SweepStats:
    """Bookkeeping of one resilient sweep (excluded from equality, so a
    resumed run still compares equal to an uninterrupted one)."""

    retries: int = 0
    backoff_s: float = 0.0
    resumed_samples: int = 0
    fallback_samples: int = 0
    #: samples replayed from the content-addressed sweep cache
    cached_samples: int = 0
    #: parallel shards re-submitted after a worker death or deadline
    worker_retries: int = 0
    #: parallel shards that exhausted pool retries and ran in-process
    inprocess_shards: int = 0


@dataclass
class RunResult:
    """Everything one ``run_sweep`` call produced."""

    config: RunConfig
    system_name: Optional[str] = None
    series: List[ProblemSeries] = field(default_factory=list)
    #: cells that exhausted retries (or died with the device) — excluded
    #: from their series, listed here instead of crashing the sweep
    quarantine: List[QuarantineEntry] = field(default_factory=list)
    #: requested transfer paradigms the backend could not measure
    skipped_transfers: Tuple[TransferType, ...] = ()
    #: True once the sweep switched to the fallback backend
    degraded: bool = False
    #: True once the GPU was lost and the sweep continued CPU-only
    device_lost: bool = False
    stats: SweepStats = field(default_factory=SweepStats, compare=False)

    @property
    def complete(self) -> bool:
        """No quarantined, skipped, or device-lost cells anywhere."""
        return not (
            self.quarantine
            or self.skipped_transfers
            or self.device_lost
            or any(s.partial for s in self.series)
        )

    @property
    def cache_hit(self) -> bool:
        """True when this run was replayed wholesale from the content-
        addressed sweep cache (the serving daemon's hot-path signal;
        checkpoint-resumed samples count separately on
        :attr:`SweepStats.resumed_samples`)."""
        return self.stats.cached_samples > 0

    def series_for(
        self, kernel: Kernel, ident: str, precision: Precision
    ) -> ProblemSeries:
        for s in self.series:
            if (
                s.kernel is kernel
                and s.ident == ident
                and s.precision is precision
            ):
                return s
        raise KeyError(
            f"no series for ({kernel.value}, {ident!r}, {precision.value}) "
            "in this run"
        )

    def thresholds(
        self, min_consecutive: int = 2
    ) -> Dict[Tuple[str, str, TransferType], ThresholdResult]:
        """Offload thresholds of every series under every swept paradigm,
        keyed ``(blas_name, problem_ident, transfer)`` — e.g.
        ``("sgemm", "square", TransferType.ONCE)``."""
        out: Dict[Tuple[str, str, TransferType], ThresholdResult] = {}
        for s in self.series:
            blas_name = s.precision.blas_prefix + s.kernel.value
            for transfer in s.transfer_types():
                out[(blas_name, s.ident, transfer)] = threshold_for_series(
                    s, transfer, min_consecutive
                )
        return out

    def quarantine_report(self) -> List[dict]:
        """JSON-serializable view of the quarantine list."""
        return [
            {
                "kernel": e.kernel.value,
                "ident": e.ident,
                "precision": e.precision.value,
                "device": e.device.value,
                "transfer": e.transfer.value if e.transfer else None,
                "dims": list(e.dims.as_tuple()),
                "iterations": e.iterations,
                "attempts": e.attempts,
                "error": e.error,
                "message": e.message,
            }
            for e in self.quarantine
        ]


def _derive_fallback(backend):
    """The graceful-degradation target: a failing DES backend falls back
    to the analytic model it was built from."""
    from ..backends.des import DesBackend
    from ..backends.simulated import AnalyticBackend

    inner = backend.inner if isinstance(backend, FaultInjector) else backend
    if isinstance(inner, DesBackend):
        return AnalyticBackend(inner.model)
    return None


class _SweepState:
    """Mutable per-sweep machinery shared by every cell."""

    def __init__(self, backend, fallback, retry: RetryPolicy,
                 writer: Optional[CheckpointWriter], result: RunResult,
                 ctx: Optional[InvariantContext] = None,
                 strict: bool = False):
        self.backend = backend
        self.fallback = fallback
        self.retry = retry
        self.writer = writer
        self.result = result
        self.gpu_lost = False
        #: model-invariant guard context (spec + noise slack) and mode
        self.ctx = ctx if ctx is not None else invariant_context(backend)
        self.strict = strict

    def guard(self, samples, precision: Precision) -> None:
        """Invariant-check freshly produced samples (replays skip)."""
        guard_samples(samples, precision, self.ctx, self.strict)

    def can_batch(self) -> bool:
        """Whether the vectorized fast path may replace per-cell calls.

        Requires a backend with batch entry points, no fault injector
        (faults are drawn per attempt, so cells must be sampled one at a
        time) and no per-sample deadline (the timeout feeds the retry
        ladder, which is per-cell machinery).  A subclass that overrides
        only the scalar samplers keeps the reference path: the batch
        methods are trusted only when the same class defines both halves
        of the pair, so the fast path can never diverge from overridden
        scalar behavior.
        """
        return (
            self.retry.sample_timeout_s is None
            and not isinstance(self.backend, FaultInjector)
            and _batch_trustworthy(type(self.backend))
        )

    def _quarantine(self, entry: QuarantineEntry) -> None:
        self.result.quarantine.append(entry)
        if self.writer is not None:
            self.writer.quarantine(entry)
        warnings.warn(
            f"quarantined sweep cell: {entry}", PartialSweepWarning,
            stacklevel=4,
        )

    def _degrade(self, exc: Exception) -> None:
        self.backend = self.fallback
        self.fallback = None
        self.result.degraded = True
        if self.writer is not None:
            self.writer.event("degraded", f"{type(exc).__name__}: {exc}")
        warnings.warn(
            f"backend failed ({type(exc).__name__}: {exc}); continuing on "
            "the analytic fallback — series are flagged degraded",
            PartialSweepWarning, stacklevel=5,
        )

    def _lose_device(self, exc: DeviceLostError) -> None:
        self.gpu_lost = True
        self.result.device_lost = True
        if self.writer is not None:
            self.writer.event("device-lost", str(exc))
        warnings.warn(
            f"GPU device lost ({exc}); finishing the sweep CPU-only — "
            "series with missing GPU cells are flagged partial",
            PartialSweepWarning, stacklevel=5,
        )

    def sample_cell(self, fn, key: tuple, make_entry) -> Optional[PerfSample]:
        """Sample one cell under the retry policy.

        ``fn(backend)`` produces the sample; ``make_entry(attempts, exc)``
        builds the quarantine entry if the cell is abandoned.  Returns
        the sample, or None when the cell was quarantined or the device
        was lost (``self.gpu_lost`` distinguishes the two).
        """
        retry = self.retry
        attempt = 0
        last_exc: Optional[Exception] = None
        while attempt <= retry.max_retries:
            try:
                sample = fn(self.backend)
                if (
                    sample is not None
                    and retry.sample_timeout_s is not None
                    and sample.seconds > retry.sample_timeout_s
                ):
                    raise SampleTimeoutError(
                        f"sample took {sample.seconds:.3g}s of simulated "
                        f"time (deadline {retry.sample_timeout_s:.3g}s)",
                        elapsed_s=sample.seconds,
                    )
                if self.result.degraded:
                    self.result.stats.fallback_samples += 1
                return sample
            except RETRYABLE_ERRORS as exc:
                last_exc = exc
                attempt += 1
                if attempt <= retry.max_retries:
                    self.result.stats.retries += 1
                    self.result.stats.backoff_s += retry.backoff_s(
                        attempt, key
                    )
            except DeviceLostError as exc:
                self._lose_device(exc)
                self._quarantine(make_entry(attempt + 1, exc))
                return None
            except ReproError:
                raise  # configuration-class errors are real bugs
            except Exception as exc:  # unexpected backend failure
                if self.fallback is not None:
                    self._degrade(exc)
                    continue  # re-attempt this cell on the fallback
                last_exc = exc
                attempt += 1
                break
        self._quarantine(make_entry(attempt, last_exc))
        return None


def _defining_class(cls, name: str):
    for base in cls.__mro__:
        if name in base.__dict__:
            return base
    return None


def _batch_trustworthy(cls) -> bool:
    """True when ``cls`` may serve batch calls in place of scalar ones:
    each scalar/batch pair must come from the same class in the MRO."""
    if _defining_class(cls, "cpu_sample_batch") is None:
        return False
    for scalar, batch in (
        ("cpu_sample", "cpu_sample_batch"),
        ("gpu_sample", "gpu_sample_batch"),
    ):
        if _defining_class(cls, scalar) is not _defining_class(cls, batch):
            return False
    return True


def run_sweep(
    backend,
    config: RunConfig,
    system_name: Optional[str] = None,
    *,
    faults: Optional[ChaosPlan] = None,
    retry: Optional[RetryPolicy] = None,
    fallback=None,
    checkpoint=None,
    resume: bool = False,
    jobs: int = 1,
    shard_timeout_s: Optional[float] = None,
    cache_dir=None,
) -> RunResult:
    """Execute one GPU-BLOB sweep of ``config`` on ``backend``.

    ``backend`` is either a :class:`~repro.backends.base.Backend`
    instance or a registry name (``"analytic"``, ``"des"``, ``"host"``);
    a name is resolved through :func:`repro.backends.make_backend`,
    building the model from ``system_name`` when one is needed.

    Keyword options turn on the resilience machinery (all default off,
    in which case the sweep behaves exactly like the classic loop):

    ``faults``
        a :class:`~repro.chaos.ChaosPlan` to wrap ``backend`` in a
        :class:`~repro.faults.injector.FaultInjector` (no-op if the
        backend already is one).
    ``retry``
        a :class:`RetryPolicy`; defaults to ``RetryPolicy()`` (3 retries,
        exponential backoff, no deadline).
    ``fallback``
        backend to degrade to on unexpected backend errors; derived
        automatically for DES backends (→ analytic twin).
    ``checkpoint`` / ``resume``
        JSONL journal path; with ``resume=True`` completed cells are
        replayed from it, and from any shard journals a killed parallel
        run left beside it, instead of re-sampled.
    ``jobs``
        shard the (problem type, precision) series across a process
        pool of this many workers; ``1`` (the default) runs in-process.
        The merged result is bit-identical to a serial run.  The pool
        is *supervised*: a shard whose worker dies (``BrokenProcessPool``)
        or blows its deadline is re-submitted on a fresh pool with
        simulated backoff, and after :data:`_MAX_SHARD_RETRIES` failed
        pool attempts it degrades to in-process execution in the parent
        — the sweep completes unattended either way, with every
        recovery journaled (``shard-retry`` / ``shard-inprocess``
        events) and counted on :class:`SweepStats`.
    ``shard_timeout_s``
        wall-clock deadline per parallel shard.  An overrun kills the
        pool and re-submits the late shard (other shards keep their
        finished results and are re-run without penalty).  ``None`` (the
        default) waits indefinitely; ignored when the sweep runs
        serially.  In-process degradation trades the deadline for
        completion: a shard on its last resort is never killed.
    ``cache_dir``
        directory of the content-addressed sweep cache.  A prior run of
        the identical (config, system, backend) triple is replayed from
        the store instead of re-executed; complete fault-free runs are
        stored on the way out.  ``None`` (the default) disables caching.
    """
    if isinstance(backend, str):
        from ..backends import make_backend

        backend = make_backend(backend, system=system_name)
    if faults is not None and not isinstance(backend, FaultInjector):
        backend = FaultInjector(backend, faults)
    if system_name is None:
        system_name = getattr(backend, "system_name", None)
    retry = retry or RetryPolicy()
    if jobs < 1:
        from ..errors import ConfigError

        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if shard_timeout_s is not None and shard_timeout_s <= 0:
        from ..errors import ConfigError

        raise ConfigError(
            f"shard_timeout_s must be > 0, got {shard_timeout_s}"
        )
    if fallback is None:
        fallback = _derive_fallback(backend)

    # Model-invariant guard: audit the spec's own calibration up front
    # (strict mode rejects a spec calibrated above its own link peak),
    # then check every fresh sample as the sweep produces it.
    ctx = invariant_context(backend)
    guard_spec(ctx, config.validate)

    cacheable = (
        cache_dir is not None
        and faults is None
        and not isinstance(backend, FaultInjector)
        and checkpoint is None
        and getattr(backend, "cache_token", None) is not None
    )
    if cacheable:
        from .sweepcache import load_cached_run

        cached = load_cached_run(cache_dir, config, system_name, backend)
        if cached is not None:
            return cached

    result = RunResult(config=config, system_name=system_name)
    gpu_on = config.gpu_enabled and backend.has_gpu
    transfers = tuple(
        t for t in config.transfers if t in backend.gpu_transfers
    ) if gpu_on else ()
    if gpu_on:
        skipped = tuple(
            t for t in config.transfers if t not in backend.gpu_transfers
        )
        if skipped:
            result.skipped_transfers = skipped
            names = ", ".join(t.value for t in skipped)
            warnings.warn(
                f"backend cannot measure transfer paradigm(s): {names}; "
                "the sweep continues without them",
                PartialSweepWarning, stacklevel=2,
            )

    done: Dict[tuple, PerfSample] = {}
    quarantined_keys: set = set()
    resumed = None
    if checkpoint is not None and resume:
        from pathlib import Path

        if Path(checkpoint).exists():
            resumed = CheckpointReader.load(checkpoint, config, system_name)
    writer = (
        CheckpointWriter(checkpoint, config, system_name, resume=resume)
        if checkpoint is not None
        else None
    )
    state = _SweepState(
        backend, fallback, retry, writer, result,
        ctx=ctx, strict=config.validate,
    )
    if resumed is not None:
        done = resumed.samples
        result.quarantine.extend(resumed.quarantine)
        quarantined_keys = resumed.quarantined_keys()
        if resumed.device_lost:
            state.gpu_lost = True
            result.device_lost = True
        if resumed.degraded and fallback is not None:
            state.backend = fallback
            state.fallback = None
            result.degraded = True

    shards = [
        (problem_type, precision)
        for problem_type in config.problem_types()
        for precision in config.precisions
    ]
    use_parallel = (
        jobs > 1
        and len(shards) > 1
        and faults is None
        and not isinstance(state.backend, FaultInjector)
        and _picklable((state.backend, config, retry))
    )
    try:
        if use_parallel:
            _run_parallel(
                state, shards, config, transfers, done, quarantined_keys,
                jobs, system_name, shard_timeout_s,
            )
        else:
            for problem_type, precision in shards:
                result.series.append(
                    _run_series(
                        state, problem_type, precision, config, transfers,
                        done, quarantined_keys,
                    )
                )
    finally:
        if writer is not None:
            writer.close()
    if cacheable and result.complete and not result.degraded:
        from .sweepcache import store_run

        store_run(cache_dir, backend, result)
    return result


def _run_series(
    state: _SweepState,
    problem_type,
    precision: Precision,
    config: RunConfig,
    transfers: Tuple[TransferType, ...],
    done: Dict[tuple, PerfSample],
    quarantined_keys: set,
) -> ProblemSeries:
    """Fill one (problem type, precision) series, batched when possible.

    The per-cell path appends each cell's sample to one list and turns
    it into columns once, when the series ends.
    """
    batched = state.can_batch() and _run_series_batched(
        state, done, quarantined_keys, problem_type, precision, config,
        transfers,
    )
    if batched:
        series, missing = batched
    else:
        missing = 0
        samples: List[PerfSample] = []
        for p in config.sweep_params(problem_type):
            dims = problem_type.dims_at(p)
            if config.cpu_enabled:
                _run_cell(
                    state, samples, done, quarantined_keys,
                    problem_type, precision, config,
                    DeviceKind.CPU, None, dims,
                )
            for transfer in transfers:
                status = _run_cell(
                    state, samples, done, quarantined_keys,
                    problem_type, precision, config,
                    DeviceKind.GPU, transfer, dims,
                )
                if status == "lost":
                    missing += 1
        series = ProblemSeries.from_samples(
            problem_type, precision, config.iterations, samples
        )
    quarantined_here = any(
        e.kernel is series.kernel
        and e.ident == series.ident
        and e.precision is series.precision
        for e in state.result.quarantine
    )
    series.partial = missing > 0 or quarantined_here
    return series


def _run_series_batched(
    state: _SweepState,
    done: Dict[tuple, PerfSample],
    quarantined_keys: set,
    problem_type,
    precision: Precision,
    config: RunConfig,
    transfers: Tuple[TransferType, ...],
) -> Optional[Tuple[ProblemSeries, int]]:
    """Vectorized evaluation of one series, column by column.

    Every (device, transfer) column is partitioned into replayed,
    skipped and fresh cells; the fresh cells go through the backend's
    batch entry point in one call.  All backend work happens *before*
    the series or the journal is touched, so a batch failure leaves no
    partial state behind — the caller falls back to the per-cell
    reference path (returns ``None``) and retries there.  Returns the
    series and its count of device-lost cells otherwise.
    """
    dims_all = [
        problem_type.dims_at(p) for p in config.sweep_params(problem_type)
    ]
    columns = [(DeviceKind.CPU, None)] if config.cpu_enabled else []
    columns += [(DeviceKind.GPU, t) for t in transfers]
    # Common case — nothing to replay, skip, or journal: per-cell key
    # construction and classification are pure overhead, so each column
    # is one batch call over every size, kept as the series' column.
    plain = not (done or quarantined_keys or state.gpu_lost) and (
        state.writer is None
    )
    # Keys are built inline (same layout as ``sample_key``) with the
    # enum values hoisted: per-cell enum attribute lookups were a
    # measurable slice of the fast path's runtime.
    kernel_v, ident_v = problem_type.kernel.value, problem_type.ident
    precision_v, iterations_v = precision.value, config.iterations
    evaluated = []  # per column: (cells, fresh column, fresh keys)
    try:
        for device, transfer in columns:
            cells = []  # per sweep param: (kind, payload)
            fresh_dims, fresh_keys = (dims_all if plain else []), []
            device_v = device.value
            transfer_v = transfer.value if transfer else None
            for dims in () if plain else dims_all:
                key = (
                    kernel_v, ident_v, precision_v, device_v, transfer_v,
                    dims.m, dims.n, dims.k, iterations_v,
                )
                if key in quarantined_keys:
                    cells.append(("quarantined", None))
                elif key in done:
                    cells.append(("replay", done[key]))
                elif device is DeviceKind.GPU and state.gpu_lost:
                    cells.append(("lost", None))
                else:
                    cells.append(("fresh", len(fresh_dims)))
                    fresh_dims.append(dims)
                    fresh_keys.append(key)
            fresh = None
            if plain or fresh_dims:
                if device is DeviceKind.CPU:
                    fresh = state.backend.cpu_sample_batch(
                        problem_type.kernel, fresh_dims, precision,
                        config.iterations, config.alpha, config.beta,
                    )
                else:
                    fresh = state.backend.gpu_sample_batch(
                        problem_type.kernel, fresh_dims, precision,
                        config.iterations, transfer, config.alpha,
                        config.beta,
                    )
                if fresh is None or len(fresh) != len(fresh_dims):
                    return None
            evaluated.append((cells, fresh, fresh_keys))
    except Exception:
        return None

    # Invariant-check every fresh column before the series or journal
    # is touched: a strict-mode rejection leaves no partial state.
    for _cells, fresh, _keys in evaluated:
        if fresh is not None:
            state.guard(fresh, precision)

    stats = state.result.stats
    if plain:
        fresh = [fresh for _cells, fresh, _keys in evaluated]
        if state.result.degraded:
            stats.fallback_samples += sum(map(len, fresh))
        cpu = fresh.pop(0) if config.cpu_enabled else None
        gpu = {col.transfer: col for col in fresh}
        return ProblemSeries(
            problem_type, precision, config.iterations, cpu, gpu
        ), 0
    missing = 0
    samples: List[PerfSample] = []
    for (cells, fresh, fresh_keys) in evaluated:
        fresh_samples = fresh.samples() if fresh is not None else []
        for kind, payload in cells:
            if kind == "replay":
                samples.append(payload)
                stats.resumed_samples += 1
            elif kind == "lost":
                missing += 1
            elif kind == "fresh":
                sample = fresh_samples[payload]
                samples.append(sample)
                if state.writer is not None:
                    state.writer.sample(fresh_keys[payload], sample)
                if state.result.degraded:
                    stats.fallback_samples += 1
    series = ProblemSeries.from_samples(
        problem_type, precision, config.iterations, samples
    )
    return series, missing


def _picklable(obj) -> bool:
    import pickle

    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


def _encode_done(done_sub: Dict[tuple, PerfSample]) -> list:
    """Flatten a shard's resume samples to primitive rows for the pool
    pipe: the sample key already carries every identity field, so only
    the measured values ride along (floats pickle exactly)."""
    return [
        (key, s.seconds, s.gflops, s.checksum_ok)
        for key, s in done_sub.items()
    ]


def _decode_done(rows: list) -> Dict[tuple, PerfSample]:
    return {
        key: sample_from_record(dict(
            zip(_KEY_FIELDS, key), seconds=seconds, gflops=gflops,
            checksum_ok=checksum_ok,
        ))
        for key, seconds, gflops, checksum_ok in rows
    }


def _pack_shard_result(series: ProblemSeries, result: RunResult) -> tuple:
    """Worker-side result encoding: the series' column codec bytes
    (:func:`~repro.core.records.encode_series`) in one shared-memory
    segment, its column metadata on the pipe.

    The segment is unregistered from the worker's resource tracker —
    ownership transfers to the parent, which copies and unlinks it.  Any
    trouble (no shm support, an empty series) falls back to returning
    the pickled series.
    """
    try:
        from multiprocessing import resource_tracker, shared_memory

        (meta,), data = encode_series([series])
        shm = shared_memory.SharedMemory(create=True, size=len(data))
        try:
            shm.buf[:len(data)] = data
            name = shm.name
        finally:
            try:
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
            shm.close()
        return (
            "shm", name, len(data), meta,
            result.quarantine, result.degraded, result.device_lost,
            result.stats,
        )
    except Exception:
        return (
            "pickle-worker", series, result.quarantine, result.degraded,
            result.device_lost, result.stats,
        )


def _decode_shard_result(outcome: tuple):
    """Parent-side inverse of :func:`_pack_shard_result`."""
    from . import workerpool

    if outcome[0] in ("pickle", "pickle-worker"):
        # bare "pickle" is the parent's own in-process last resort — not
        # a pool transport, so it never counts as a fallback
        if outcome[0] == "pickle-worker":
            workerpool.record_shard(pickled=True)
        return outcome[1:]
    (
        _tag, name, nbytes, meta, quarantine, degraded, device_lost, stats,
    ) = outcome
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=name)
    try:
        data = bytes(shm.buf[:nbytes])
    finally:
        shm.close()
        shm.unlink()
    (series,) = decode_series([meta], data)
    workerpool.record_shard(nbytes)
    return series, quarantine, degraded, device_lost, stats


def _sweep_shard_worker(payload: tuple):
    """Run one (problem type, precision) series in a pool worker.

    Returns a tagged result tuple — ``("shm", ...)`` from pool workers
    (samples ride a shared-memory segment, see :func:`_pack_shard_result`)
    or ``("pickle", series, quarantine, degraded, device_lost, stats)``
    from the in-process last resort — that :func:`_decode_shard_result`
    turns back into everything the parent's ordered merge needs.

    Chaos hook: setting ``REPRO_CHAOS_KILL_SHARD=<index>`` hard-kills
    the worker assigned that shard (``os._exit``, no cleanup — the way
    an OOM kill or node failure looks to the parent).  The value is
    captured in the *parent* at payload-build time, so warm-pool workers
    forked before the variable was set still honor it.  The guard on the
    parent pid means only *pool* attempts die; the supervised executor's
    last-resort in-process attempt runs in the parent and survives, so a
    kill-always chaos run still completes.
    """
    import os

    (
        backend, problem_type, precision, config, retry, done_rows,
        quarantined, shard_path, system_name, transfers, gpu_lost, degraded,
        shard_index, parent_pid, chaos,
    ) = payload
    in_worker = os.getpid() != parent_pid
    if chaos == str(shard_index) and in_worker:
        os._exit(1)
    result = RunResult(config=config, system_name=system_name)
    writer = (
        CheckpointWriter(shard_path, config, system_name)
        if shard_path is not None
        else None
    )
    fallback = _derive_fallback(backend)
    state = _SweepState(
        backend, fallback, retry, writer, result, strict=config.validate
    )
    # Re-apply sweep-level events the parent replayed from a checkpoint:
    # a lost GPU stays lost, and a degraded sweep keeps counting its
    # samples as fallback samples.
    state.gpu_lost = gpu_lost
    if degraded:
        result.degraded = True
    try:
        series = _run_series(
            state, problem_type, precision, config, transfers,
            _decode_done(done_rows), quarantined,
        )
    finally:
        if writer is not None:
            writer.close()
    if in_worker:
        return _pack_shard_result(series, result)
    return (
        "pickle", series, result.quarantine, result.degraded,
        result.device_lost, result.stats,
    )


#: Pool attempts per shard before the supervised executor gives up on
#: process isolation and runs the shard in the parent: the initial
#: submission plus this many re-submissions on fresh pools.
_MAX_SHARD_RETRIES = 2


def _shard_label(shards, i: int) -> str:
    problem_type, precision = shards[i]
    return (
        f"shard {i} ({problem_type.kernel.value}/{problem_type.ident}/"
        f"{precision.value})"
    )


def _terminate_pool(pool) -> None:
    """Tear a pool down *now*: a deadline overrun means a worker is
    wedged, so a cooperative shutdown would block behind it.

    The process list must be snapshotted *before* ``shutdown()`` —
    ``Executor.shutdown`` drops its ``_processes`` reference even with
    ``wait=False``, and a wedged worker left running would block
    interpreter exit behind the executor's atexit join.
    """
    import contextlib

    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        with contextlib.suppress(Exception):
            proc.terminate()


def _run_parallel(
    state: _SweepState,
    shards,
    config: RunConfig,
    transfers: Tuple[TransferType, ...],
    done: Dict[tuple, PerfSample],
    quarantined_keys: set,
    jobs: int,
    system_name: Optional[str],
    shard_timeout_s: Optional[float] = None,
) -> None:
    """Shard series across the *supervised* warm pool; merge in
    submission order.

    Supervision loop: every round submits the still-pending shards and
    waits on each future (bounded by ``shard_timeout_s``).  First-attempt
    shards share the persistent warm pool (:mod:`repro.core.workerpool`
    — spawned once, reused across sweeps); a shard that already broke a
    pool runs on an ephemeral dedicated single-worker pool, so a repeat
    death cannot take its siblings' work with it.  A worker death
    (``BrokenProcessPool``) charges every shard that lost its result and
    retires the warm pool (the next acquisition respawns it); a deadline
    overrun kills the wedged pool and charges only the late shard —
    siblings keep finished results and re-run uncharged.  A shard that
    fails :data:`_MAX_SHARD_RETRIES` + 1 pool attempts runs in-process
    in the parent, which cannot be killed, so the sweep always
    completes.  Backoff between attempts is simulated (accumulated on
    stats, never slept), recoveries are journaled as ``shard-retry`` /
    ``shard-inprocess`` events, and the merged result stays bit-identical
    to a clean serial run (workers return samples through shared-memory
    segments whose float64 bit patterns survive the trip exactly).
    """
    import concurrent.futures
    import os

    from . import workerpool

    result = state.result
    stats = result.stats
    was_degraded = result.degraded
    parent_pid = os.getpid()
    chaos = os.environ.get("REPRO_CHAOS_KILL_SHARD")
    payloads = []
    shard_paths = []
    for i, (problem_type, precision) in enumerate(shards):
        ident = (problem_type.kernel.value, problem_type.ident, precision.value)
        done_rows = _encode_done(
            {k: v for k, v in done.items() if k[:3] == ident}
        )
        quarantined_sub = {k for k in quarantined_keys if k[:3] == ident}
        shard_path = (
            f"{state.writer.path}.shard-{i}" if state.writer is not None
            else None
        )
        shard_paths.append(shard_path)
        payloads.append((
            state.backend, problem_type, precision, config, state.retry,
            done_rows, quarantined_sub, shard_path, system_name, transfers,
            state.gpu_lost, result.degraded, i, parent_pid, chaos,
        ))

    def charge(i: int, reason: str) -> None:
        attempts[i] += 1
        stats.worker_retries += 1
        stats.backoff_s += state.retry.backoff_s(
            min(attempts[i], state.retry.max_retries + 1), ("shard", i)
        )
        if state.writer is not None:
            state.writer.event(
                "shard-retry",
                f"{_shard_label(shards, i)} attempt {attempts[i]} "
                f"failed: {reason}",
            )

    outcomes: List[Optional[tuple]] = [None] * len(payloads)
    attempts = [0] * len(payloads)
    pending = list(range(len(payloads)))
    while pending:
        # Last resort for shards that burned every pool attempt: run
        # them right here in the parent.  No process isolation and no
        # deadline — but nothing left to crash, either.
        exhausted = [i for i in pending if attempts[i] > _MAX_SHARD_RETRIES]
        for i in exhausted:
            stats.inprocess_shards += 1
            if state.writer is not None:
                state.writer.event(
                    "shard-inprocess",
                    f"{_shard_label(shards, i)} degraded to in-process "
                    f"execution after {attempts[i]} failed pool attempts",
                )
            # Quarantine warnings are re-emitted by the merge loop (as
            # they are for pool shards, whose warnings die with the
            # worker process) — mute the duplicates from running in the
            # parent.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PartialSweepWarning)
                outcomes[i] = _sweep_shard_worker(payloads[i])
        pending = [i for i in pending if attempts[i] <= _MAX_SHARD_RETRIES]
        if not pending:
            break
        # Blast-radius control: a shard that already broke a pool runs
        # in its own *ephemeral* single-worker pool this round, so a
        # repeat death cannot take its siblings' work (and attempt
        # budgets) — or the shared warm pool — with it.  First-attempt
        # shards share the warm pool for throughput.
        fresh = [i for i in pending if attempts[i] == 0]
        groups = ([(fresh, True)] if fresh else []) + [
            ([i], False) for i in pending if attempts[i] > 0
        ]
        still = []
        for group, warm in groups:
            pool = (
                workerpool.get_pool(jobs) if warm
                else workerpool.dedicated_pool()
            )
            try:
                futures = {
                    i: pool.submit(_sweep_shard_worker, payloads[i])
                    for i in group
                }
            except Exception:
                # A warm pool can report healthy and still refuse the
                # submit: a prior sweep's worker death is detected by
                # the executor's manager thread asynchronously, so the
                # breakage may only surface now.  Retire it and submit
                # to a fresh respawn (uncharged — no shard ran).
                if not warm:
                    raise
                workerpool.mark_broken(jobs)
                pool = workerpool.get_pool(jobs)
                futures = {
                    i: pool.submit(_sweep_shard_worker, payloads[i])
                    for i in group
                }
            broken = False
            try:
                deadline_hit = False
                for i, future in futures.items():
                    if deadline_hit:
                        # The pool is dead; salvage whatever finished
                        # before the kill, re-run the rest uncharged
                        # (our own termination broke their futures, not
                        # their fault).
                        salvaged = False
                        if future.done() and not future.cancelled():
                            try:
                                outcomes[i] = future.result()
                                salvaged = True
                            except Exception:
                                pass
                        if not salvaged:
                            still.append(i)
                        continue
                    try:
                        outcomes[i] = future.result(timeout=shard_timeout_s)
                    except concurrent.futures.TimeoutError:
                        still.append(i)
                        charge(
                            i,
                            f"deadline of {shard_timeout_s:.3g}s exceeded",
                        )
                        if warm:
                            workerpool.terminate(jobs)
                        else:
                            _terminate_pool(pool)
                        deadline_hit = True
                    except Exception:
                        # A dead worker breaks its whole pool: every
                        # shard whose future now raises lost its result
                        # and is charged a pool attempt.
                        still.append(i)
                        charge(i, "worker died")
                        broken = True
            finally:
                if warm:
                    # The warm pool outlives the sweep unless a worker
                    # death poisoned it — then retire it so the next
                    # acquisition respawns warm workers.
                    if broken:
                        workerpool.mark_broken(jobs)
                else:
                    pool.shutdown(wait=False, cancel_futures=True)
        pending = still
    for i, (outcome, shard_path) in enumerate(zip(outcomes, shard_paths)):
        series, quarantine, degraded, device_lost, shard_stats = (
            _decode_shard_result(outcome)
        )
        result.series.append(series)
        result.quarantine.extend(quarantine)
        for entry in quarantine:
            warnings.warn(
                f"quarantined sweep cell: {entry}", PartialSweepWarning,
                stacklevel=3,
            )
        if degraded and not was_degraded:
            result.degraded = True
        if device_lost:
            result.device_lost = True
        stats.retries += shard_stats.retries
        stats.backoff_s += shard_stats.backoff_s
        stats.resumed_samples += shard_stats.resumed_samples
        stats.fallback_samples += shard_stats.fallback_samples
        if shard_path is not None:
            state.writer.merge_shard(shard_path)


def _run_cell(
    state: _SweepState,
    samples: List[PerfSample],
    done: Dict[tuple, PerfSample],
    quarantined_keys: set,
    problem_type,
    precision: Precision,
    config: RunConfig,
    device: DeviceKind,
    transfer: Optional[TransferType],
    dims,
) -> str:
    """Sample (or replay) one sweep cell onto ``samples``.

    Returns a status string: ``"sampled"``, ``"replayed"`` (from the
    checkpoint), ``"quarantined"`` (this run or a resumed one), or
    ``"lost"`` (skipped because the GPU is gone).  Replay lookups come
    *before* the device-loss check so a resumed sweep keeps the GPU
    samples it completed before the device disappeared.
    """
    key = sample_key(
        problem_type.kernel, problem_type.ident, precision, device,
        transfer, dims, config.iterations,
    )
    if key in quarantined_keys:
        return "quarantined"
    cached = done.get(key)
    if cached is not None:
        samples.append(cached)
        state.result.stats.resumed_samples += 1
        return "replayed"
    if device is DeviceKind.GPU and state.gpu_lost:
        return "lost"

    if device is DeviceKind.CPU:
        def fn(backend):
            return backend.cpu_sample(
                problem_type.kernel, dims, precision,
                config.iterations, config.alpha, config.beta,
            )
    else:
        def fn(backend):
            return backend.gpu_sample(
                problem_type.kernel, dims, precision,
                config.iterations, transfer, config.alpha, config.beta,
            )

    def make_entry(attempts: int, exc: Optional[Exception]) -> QuarantineEntry:
        return QuarantineEntry(
            kernel=problem_type.kernel,
            ident=problem_type.ident,
            precision=precision,
            device=device,
            transfer=transfer,
            dims=dims,
            iterations=config.iterations,
            attempts=attempts,
            error=type(exc).__name__ if exc is not None else "UnknownError",
            message=str(exc) if exc is not None else "",
        )

    sample = state.sample_cell(fn, key, make_entry)
    if sample is None:
        return "quarantined"
    state.guard((sample,), precision)
    samples.append(sample)
    if state.writer is not None:
        state.writer.sample(key, sample)
    return "sampled"
