"""A backend wrapper that acts out a :class:`~repro.chaos.ChaosPlan`'s
sweep kinds.

``FaultInjector`` composes with *any* backend — analytic, DES, or host —
because it only intercepts the two ``Backend`` sampling methods.  Raising
faults (kernel, transfer, device loss) abort the sample with the matching
:mod:`repro.errors` exception; degrading faults (hang, ECC) let the inner
backend produce its sample and then stretch its simulated seconds, which
is exactly how the real pathologies present: the run "succeeds" but the
timing is poisoned until a watchdog or retry policy notices.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional

from ..backends.base import Backend
from ..chaos import ChaosKind, ChaosPlan
from ..core.records import PerfSample
from ..errors import (
    DeviceLostError,
    TransferError,
    TransientKernelError,
)
from ..types import DeviceKind, Dims, Precision, TransferType

__all__ = ["FaultInjector"]


class FaultInjector(Backend):
    """Wraps ``inner`` and injects the faults ``plan`` dictates.

    The injector keeps a per-sample-key attempt counter, so the n-th
    call for the same cell is draw ``attempt=n`` of the plan — retries
    see fresh, still-deterministic outcomes.  ``stats`` counts fired
    faults by kind.  Device loss is sticky: once it fires, every later
    GPU sample raises :class:`~repro.errors.DeviceLostError`.
    """

    def __init__(self, inner: Backend, plan: ChaosPlan) -> None:
        self.inner = inner
        self.plan = plan
        self.device_lost = False
        self.stats: Counter = Counter()
        self._attempts: Dict[tuple, int] = {}

    @property
    def gpu_transfers(self) -> tuple:
        return () if self.device_lost else self.inner.gpu_transfers

    @property
    def system_name(self) -> Optional[str]:
        return getattr(self.inner, "system_name", None)

    def reset(self) -> None:
        """Forget attempt counters, stats and device loss."""
        self.device_lost = False
        self.stats.clear()
        self._attempts.clear()

    # -- internals ----------------------------------------------------
    def _attempt(self, key: tuple) -> int:
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        return attempt

    def _degrade(self, sample: PerfSample, key: tuple, attempt: int,
                 beta: float) -> PerfSample:
        """Apply the non-raising (timing-poisoning) fault kinds."""
        seconds = sample.seconds
        if self.plan.fires(ChaosKind.ECC, key, attempt):
            self.stats[ChaosKind.ECC] += 1
            seconds *= self.plan.ecc_slowdown
        if self.plan.fires(ChaosKind.HANG, key, attempt):
            self.stats[ChaosKind.HANG] += 1
            seconds += self.plan.hang_s
        if seconds == sample.seconds:
            return sample
        return PerfSample.from_seconds(
            sample.device, sample.transfer, sample.dims, sample.iterations,
            seconds, checksum_ok=sample.checksum_ok, beta=beta,
        )

    # -- Backend interface --------------------------------------------
    def cpu_sample(self, kernel, dims: Dims, precision: Precision,
                   iterations: int, alpha: float = 1.0,
                   beta: float = 0.0) -> PerfSample:
        key = (DeviceKind.CPU.value, None, kernel.value, dims.as_tuple(),
               precision.value, iterations)
        attempt = self._attempt(key)
        if self.plan.fires(ChaosKind.KERNEL, key, attempt):
            self.stats[ChaosKind.KERNEL] += 1
            raise TransientKernelError(
                f"injected CPU kernel failure at {dims} (attempt {attempt})"
            )
        sample = self.inner.cpu_sample(
            kernel, dims, precision, iterations, alpha, beta
        )
        return self._degrade(sample, key, attempt, beta)

    def gpu_sample(self, kernel, dims: Dims, precision: Precision,
                   iterations: int, transfer: TransferType,
                   alpha: float = 1.0,
                   beta: float = 0.0) -> Optional[PerfSample]:
        if self.device_lost:
            raise DeviceLostError("GPU device was lost earlier in this sweep")
        key = (DeviceKind.GPU.value, transfer.value, kernel.value,
               dims.as_tuple(), precision.value, iterations)
        attempt = self._attempt(key)
        if self.plan.fires(ChaosKind.DEVICE_LOST, key, attempt):
            self.stats[ChaosKind.DEVICE_LOST] += 1
            self.device_lost = True
            raise DeviceLostError(
                f"injected device loss at {dims} ({transfer.value})"
            )
        if self.plan.fires(ChaosKind.TRANSFER, key, attempt):
            self.stats[ChaosKind.TRANSFER] += 1
            raise TransferError(
                f"injected DMA {transfer.value} failure at {dims} "
                f"(attempt {attempt})"
            )
        if self.plan.fires(ChaosKind.KERNEL, key, attempt):
            self.stats[ChaosKind.KERNEL] += 1
            raise TransientKernelError(
                f"injected GPU kernel failure at {dims} (attempt {attempt})"
            )
        sample = self.inner.gpu_sample(
            kernel, dims, precision, iterations, transfer, alpha, beta
        )
        if sample is None:
            return None
        return self._degrade(sample, key, attempt, beta)
