"""Analytic backend: samples come from the closed-form performance model.

This is the default backend of the repro engine — it evaluates
:class:`repro.sim.perfmodel.NodePerfModel` instead of running kernels,
so full paper-scale sweeps finish in seconds on any machine.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.flops import dims_columns, flops_for_batch
from ..core.records import Column, PerfSample
from ..sim.perfmodel import NodePerfModel
from ..types import DeviceKind, Dims, TransferType
from .base import Backend, model_cache_token
from .des import DESBackend, DesBackend

__all__ = ["AnalyticBackend", "DESBackend", "DesBackend"]


class AnalyticBackend(Backend):
    """Evaluates the analytic node model; checksums are vacuously OK."""

    def __init__(self, model: NodePerfModel) -> None:
        self.model = model
        self.gpu_transfers = (
            tuple(TransferType) if model.has_gpu else ()
        )

    @property
    def system_name(self) -> str:
        return self.model.spec.name

    @property
    def cache_token(self) -> str:
        return f"analytic:{model_cache_token(self.model)}"

    def cpu_sample(self, kernel, dims, precision, iterations,
                   alpha=1.0, beta=0.0) -> PerfSample:
        seconds = self.model.cpu_time(
            dims, precision, iterations, alpha=alpha, beta=beta)
        return PerfSample.from_seconds(
            DeviceKind.CPU, None, dims, iterations, seconds,
            checksum_ok=True, beta=beta)

    def gpu_sample(self, kernel, dims, precision, iterations, transfer,
                   alpha=1.0, beta=0.0) -> Optional[PerfSample]:
        if not self.model.has_gpu:
            return None
        seconds = self.model.gpu_time(
            dims, precision, iterations, transfer, alpha=alpha, beta=beta)
        return PerfSample.from_seconds(
            DeviceKind.GPU, transfer, dims, iterations, seconds,
            checksum_ok=True, beta=beta)

    # -- batch path -----------------------------------------------------
    #
    # One closed-form evaluation over a same-kernel batch of dims, as one
    # column.  The per-cell samplers above price a batch of one through
    # the same forms, so each cell equals the per-cell sample bit for bit.

    def cpu_sample_batch(
        self, kernel, dims_list: Sequence[Dims], precision, iterations,
        alpha=1.0, beta=0.0,
    ) -> Column:
        seconds = self.model.cpu_time_batch(
            dims_list, precision, iterations, alpha=alpha, beta=beta)
        return _column(
            DeviceKind.CPU, None, kernel, dims_list, iterations, seconds, beta
        )

    def gpu_sample_batch(
        self, kernel, dims_list: Sequence[Dims], precision, iterations,
        transfer, alpha=1.0, beta=0.0,
    ) -> Optional[Column]:
        if not self.model.has_gpu:
            return None
        seconds = self.model.gpu_time_batch(
            dims_list, precision, iterations, transfer, alpha=alpha, beta=beta)
        return _column(
            DeviceKind.GPU, transfer, kernel, dims_list, iterations, seconds,
            beta,
        )


def _column(
    device, transfer, kernel, dims_list, iterations, seconds, beta,
) -> Column:
    """Batch twin of :meth:`PerfSample.from_seconds`: the GFLOP/s rates
    vectorize (flop counts and the iterations product stay < 2**53, so
    the float64 division matches the scalar arithmetic bit-for-bit)."""
    m, n, k = dims_columns(dims_list)
    seconds = np.asarray(seconds, dtype=np.float64)
    flops = flops_for_batch(kernel, m, n, k, beta)
    with np.errstate(divide="ignore"):
        gflops = np.where(
            seconds > 0, iterations * flops / seconds / 1e9, 0.0
        )
    checks = np.ones(len(seconds), dtype=np.int8)  # vacuously OK
    return Column(device, transfer, iterations, m, n, k, seconds, gflops,
                  checks)
