"""Model-invariant guard: physical plausibility checks at the backend
boundary.

A miscalibrated :class:`~repro.systems.specs.SystemSpec` or a buggy
backend subclass can silently bend every offload threshold downstream —
a sample that implies moving data faster than the host-device link, or
computing above the device roofline, is not a data point, it is a bug.
The guard checks every *fresh* sample the sweep runner collects (replays
from checkpoints and cache hits are covered by the artifact integrity
layer instead):

1. **Finiteness** — ``seconds`` must be finite and strictly positive,
   ``gflops`` finite and non-negative.
2. **Link-bandwidth floor** — a GPU sample's total time cannot beat the
   bytes its paradigm must move across the link at the link's peak
   bandwidth.  The floor is schedule-agnostic (``max`` of the two
   directions, so double-buffered overlap is never a false positive)
   and derated by the model's noise amplitude.
3. **Roofline ceiling** — the aggregate GFLOP/s rate cannot exceed the
   device's spec peak.  The ceiling carries a documented slack factor:
   the CPU's warm-data compute boost and matrix-engine speedups are
   folded in exactly, and library quirks that *speed up* a kernel (e.g.
   ``rocblas-sgemm-k2560`` at 0.85x time) are covered by
   :data:`QUIRK_SLACK`.

:func:`validate_spec` separately audits a spec's own calibration —
scale factors above 1.0 (an effective bandwidth above the link peak),
non-positive peaks, NaN anywhere — which is how ``--strict`` rejects a
spec "calibrated above its own link bandwidth" before the sweep starts.

Violations raise :class:`~repro.errors.ModelInvariantError` in strict
mode (``RunConfig.validate=True`` / ``--strict``) and emit
:class:`~repro.errors.ModelInvariantWarning` otherwise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ModelInvariantError, ModelInvariantWarning
from ..types import DeviceKind, Precision, TransferType
from .flops import d2h_bytes, d2h_bytes_batch, h2d_bytes, h2d_bytes_batch
from .records import Column

__all__ = [
    "QUIRK_SLACK",
    "InvariantContext",
    "check_samples",
    "guard_samples",
    "guard_spec",
    "invariant_context",
    "validate_spec",
]

#: Headroom above the spec roofline for known library quirks that model
#: *speedups* (time factors < 1; the largest today is rocBLAS's 0.85x,
#: i.e. a 1.18x rate), plus float-noise between the analytic and DES
#: paths.  A real miscalibration overshoots by far more than this.
QUIRK_SLACK = 1.25

#: Relative tolerance absorbing float-sum differences between the
#: closed-form and event-replay paths.
_REL_EPS = 1e-6


@dataclass(frozen=True)
class InvariantContext:
    """Everything the per-sample checks need about the model behind a
    backend.  ``spec=None`` (host measurements, unknown backends)
    reduces the guard to the finiteness checks."""

    spec: object = None  # Optional[SystemSpec]
    noise_amplitude: float = 0.0

    @property
    def time_slack(self) -> float:
        """Worst-case multiplicative shrink the noise model may apply."""
        return max(0.0, 1.0 - self.noise_amplitude) * (1.0 - _REL_EPS)


def invariant_context(backend) -> InvariantContext:
    """Build the check context for a backend, unwrapping fault
    injectors.  Injected faults only ever *slow* samples down, so the
    inner model's spec and noise amplitude stay authoritative."""
    inner = getattr(backend, "inner", backend)
    model = getattr(inner, "model", None)
    if model is None:
        return InvariantContext()
    noise = getattr(model, "noise", None)
    amplitude = float(getattr(noise, "amplitude", 0.0) or 0.0)
    return InvariantContext(spec=model.spec, noise_amplitude=amplitude)


# -- spec calibration -------------------------------------------------


def _bad(value: float) -> bool:
    return not math.isfinite(value)


def validate_spec(spec) -> List[str]:
    """Audit a :class:`SystemSpec`'s calibration; returns violation
    strings (empty = clean).

    The decisive checks are the bandwidth scale factors: a
    ``staging_bw_scale`` or ``migration_bw_scale`` above 1.0 makes the
    model move data faster than the link's own peak — a spec calibrated
    above its own link bandwidth.
    """
    out: List[str] = []
    cpu, gpu, link, usm = spec.cpu, spec.gpu, spec.link, spec.usm
    for label, value in (
        ("cpu.cores", cpu.cores),
        ("cpu.freq_ghz", cpu.freq_ghz),
        ("cpu.flops_per_cycle_f64", cpu.flops_per_cycle_f64),
        ("cpu.mem_bw_gbs", cpu.mem_bw_gbs),
        ("cpu.single_core_mem_bw_gbs", cpu.single_core_mem_bw_gbs),
        ("cpu.cache_bw_gbs", cpu.cache_bw_gbs),
        ("cpu.single_core_cache_bw_gbs", cpu.single_core_cache_bw_gbs),
        ("link.bw_gbs", link.bw_gbs),
    ):
        if _bad(value) or value <= 0:
            out.append(f"{spec.name}: {label} must be positive, got {value!r}")
    if _bad(link.latency_s) or link.latency_s < 0:
        out.append(
            f"{spec.name}: link.latency_s must be >= 0, got {link.latency_s!r}"
        )
    if _bad(cpu.warm_compute_boost) or cpu.warm_compute_boost < 1.0:
        out.append(
            f"{spec.name}: cpu.warm_compute_boost must be >= 1, got "
            f"{cpu.warm_compute_boost!r}"
        )
    if _bad(link.staging_bw_scale) or not 0.0 < link.staging_bw_scale <= 1.0:
        out.append(
            f"{spec.name}: link.staging_bw_scale={link.staging_bw_scale!r} "
            "implies a staged transfer bandwidth above the link peak "
            f"({link.bw_gbs} GB/s); must be in (0, 1]"
        )
    if _bad(usm.migration_bw_scale) or not 0.0 < usm.migration_bw_scale <= 1.0:
        out.append(
            f"{spec.name}: usm.migration_bw_scale={usm.migration_bw_scale!r} "
            "implies a migration bandwidth above the link peak "
            f"({link.bw_gbs} GB/s); must be in (0, 1]"
        )
    if usm.pages_per_fault < 1 or usm.page_bytes < 1:
        out.append(
            f"{spec.name}: usm pages_per_fault/page_bytes must be >= 1"
        )
    if gpu is not None:
        for label, value in (
            ("gpu.peak_gflops_f64", gpu.peak_gflops_f64),
            ("gpu.peak_gflops_f32", gpu.peak_gflops_f32),
            ("gpu.mem_bw_gbs", gpu.mem_bw_gbs),
        ):
            if _bad(value) or value <= 0:
                out.append(
                    f"{spec.name}: {label} must be positive, got {value!r}"
                )
    return out


# -- per-sample checks ------------------------------------------------


def _cpu_peak_gflops(spec, precision: Precision) -> float:
    peak = spec.cpu.peak_gflops(precision.itemsize)
    peak *= spec.cpu.warm_compute_boost
    engine = spec.cpu.matrix_engine
    if engine is not None:
        peak *= engine.speedup_for(precision.value)
    return peak


def _check_one(sample, precision: Precision, ctx: InvariantContext
               ) -> Optional[str]:
    """One sample's violation string, or ``None`` when plausible."""
    seconds, gflops = sample.seconds, sample.gflops
    if not math.isfinite(seconds) or seconds <= 0.0:
        return f"non-finite or non-positive time {seconds!r}"
    if not math.isfinite(gflops) or gflops < 0.0:
        return f"non-finite or negative rate {gflops!r} GFLOP/s"
    spec = ctx.spec
    if spec is None:
        return None
    if sample.device is DeviceKind.GPU and sample.transfer is not None:
        up = h2d_bytes(sample.dims, precision)
        down = d2h_bytes(sample.dims, precision)
        if sample.transfer is TransferType.ALWAYS:
            up, down = up * sample.iterations, down * sample.iterations
        # Schedule-agnostic floor: whatever the overlap, each direction
        # must move its bytes through the link at no more than peak.
        floor = max(up, down) / (spec.link.bw_gbs * 1e9)
        if seconds < floor * ctx.time_slack:
            eff = max(up, down) / seconds / 1e9
            return (
                f"effective link bandwidth {eff:.1f} GB/s exceeds the "
                f"{spec.link.bw_gbs:.1f} GB/s link peak of {spec.name}"
            )
        peak = spec.gpu.peak_gflops(precision.value) if spec.gpu else None
    else:
        peak = _cpu_peak_gflops(spec, precision)
    if peak is not None and gflops > peak * QUIRK_SLACK / ctx.time_slack:
        return (
            f"throughput {gflops:.1f} GFLOP/s exceeds the {peak:.1f} "
            f"GFLOP/s {sample.device.value} roofline of {spec.name}"
        )
    return None


def check_samples(
    samples: Sequence, precision: Precision, ctx: InvariantContext
) -> List[Tuple[object, str]]:
    """Violations among ``samples``: ``(sample, reason)`` pairs."""
    out: List[Tuple[object, str]] = []
    for sample in samples:
        if sample is None:
            continue
        reason = _check_one(sample, precision, ctx)
        if reason is not None:
            out.append((sample, reason))
    return out


def _check_column(column: Column, precision: Precision,
                  ctx: InvariantContext):
    """Vectorized twin of :func:`_check_one` over one column.  Returns
    the rows of violating cells; the caller re-checks only those
    scalarly for the violation message.
    """
    seconds, gflops = column.seconds, column.gflops
    bad = (
        ~np.isfinite(seconds) | (seconds <= 0.0)
        | ~np.isfinite(gflops) | (gflops < 0.0)
    )
    spec = ctx.spec
    if spec is not None:
        peak = None
        if column.device is DeviceKind.GPU and column.transfer is not None:
            kernel = column.dims_at(0).kernel
            m, n, k = column.m, column.n, column.k
            up = h2d_bytes_batch(kernel, m, n, k, precision)
            down = d2h_bytes_batch(kernel, m, n, k, precision)
            if column.transfer is TransferType.ALWAYS:
                up, down = up * column.iterations, down * column.iterations
            floor = np.maximum(up, down) / (spec.link.bw_gbs * 1e9)
            with np.errstate(invalid="ignore"):
                bad |= seconds < floor * ctx.time_slack
            if spec.gpu is not None:
                peak = spec.gpu.peak_gflops(precision.value)
        else:
            peak = _cpu_peak_gflops(spec, precision)
        if peak is not None:
            bad |= gflops > peak * QUIRK_SLACK / ctx.time_slack
    return np.nonzero(bad)[0]


def guard_samples(
    samples: Column | Sequence,
    precision: Precision,
    ctx: InvariantContext,
    strict: bool,
) -> None:
    """Enforce the invariants on freshly produced samples.

    ``samples`` is a :class:`~repro.core.records.Column` (the batch
    path, checked in one NumPy shot) or a sequence of per-cell samples
    (checked one at a time, with no NumPy call: a DES cell costs about a
    millisecond, and the array form would add some 50 µs to each).
    Strict mode raises :class:`ModelInvariantError` on the first
    violation; the default mode emits one
    :class:`ModelInvariantWarning` per violating sample and keeps it.
    """
    if isinstance(samples, Column):
        if not len(samples):
            return
        rows = _check_column(samples, precision, ctx)
        if not len(rows):
            return
        cells = samples.samples()
        samples = [cells[i] for i in rows]
    for sample, reason in check_samples(samples, precision, ctx):
        message = f"model invariant violated at {sample.dims}: {reason}"
        if strict:
            raise ModelInvariantError(message)
        warnings.warn(message, ModelInvariantWarning, stacklevel=3)


def guard_spec(ctx: InvariantContext, strict: bool) -> None:
    """Enforce :func:`validate_spec` before a sweep starts."""
    if ctx.spec is None:
        return
    violations = validate_spec(ctx.spec)
    if not violations:
        return
    message = "; ".join(violations)
    if strict:
        raise ModelInvariantError(message)
    warnings.warn(message, ModelInvariantWarning, stacklevel=3)
