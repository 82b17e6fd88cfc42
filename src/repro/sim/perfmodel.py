"""Node-level composition: CPU, GPU and the three transfer paradigms.

Closed forms (section III-B of the paper):

* Transfer-Once:   ``h2d(A,B,C) + i * kernel + d2h(C)``
* Transfer-Always: ``i * (staged h2d + kernel + staged d2h)``
* Unified-Memory:  fault-driven migration in, ``i *`` (kernel + residency
  refresh), then writeback.

Each direction of an explicit transfer pays the link latency; Transfer-
Always additionally streams through unpinned staging buffers
(``link.staging_bw_scale``), which is why its thresholds *rise* with
data re-use while Transfer-Once's fall.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..blas.registry import CpuLibraryModel, GpuLibraryModel, get_cpu_library, get_gpu_library
from ..core.flops import (
    d2h_bytes,
    d2h_bytes_batch,
    dims_columns,
    flops_for,
    h2d_bytes,
    h2d_bytes_batch,
)
from ..systems.specs import SystemSpec
from ..types import Dims, Precision, TransferType
from .cpu import CpuModel
from .gpu import GpuModel
from .noise import NO_NOISE, NoiseModel
from .usm import closed_form_unified_batch

__all__ = ["NodePerfModel"]


class NodePerfModel:
    """Analytic performance model of one heterogeneous node."""

    def __init__(
        self,
        spec: SystemSpec,
        cpu_library: Optional[CpuLibraryModel] = None,
        gpu_library: Optional[GpuLibraryModel] = None,
        cpu_threads: Optional[int] = None,
        noise: NoiseModel = NO_NOISE,
    ) -> None:
        self.spec = spec
        cpu_lib = cpu_library or get_cpu_library(spec.cpu_library)
        threads = cpu_threads or cpu_lib.threads or spec.cpu_threads
        self.cpu = CpuModel(spec.cpu, cpu_lib, max_threads=threads, noise=noise)
        if spec.gpu is not None:
            gpu_lib = gpu_library or get_gpu_library(spec.gpu_library)
            self.gpu = GpuModel(spec.gpu, gpu_lib)
        else:
            self.gpu = None
        self.noise = noise

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def has_gpu(self) -> bool:
        return self.gpu is not None

    # -- device-side pieces -------------------------------------------
    def cpu_time(
        self,
        dims: Dims,
        precision: Precision,
        iterations: int = 1,
        alpha: float = 1.0,
        beta: float = 0.0,
    ) -> float:
        return self.cpu.time(dims, precision, iterations, alpha, beta)

    def kernel_time(
        self, dims: Dims, precision: Precision, alpha: float = 1.0, beta: float = 0.0
    ) -> float:
        return self.gpu.kernel_time(dims, precision, alpha, beta)

    def _link_time(self, nbytes):
        """One explicit transfer of ``nbytes`` (an int or an array of
        them): link latency plus a copy at the pinned link bandwidth."""
        link = self.spec.link
        return link.latency_s + nbytes / (link.bw_gbs * 1e9)

    def h2d_time(self, dims: Dims, precision: Precision) -> float:
        return self._link_time(h2d_bytes(dims, precision))

    def d2h_time(self, dims: Dims, precision: Precision) -> float:
        return self._link_time(d2h_bytes(dims, precision))

    # -- paradigms ----------------------------------------------------
    def gpu_time(
        self,
        dims: Dims,
        precision: Precision,
        iterations: int = 1,
        transfer: TransferType = TransferType.ONCE,
        alpha: float = 1.0,
        beta: float = 0.0,
    ) -> float:
        return float(self.gpu_time_batch(
            (dims,), precision, iterations, transfer, alpha, beta)[0])

    # -- the closed forms, over same-kernel columns of dims -------------
    def cpu_time_batch(
        self,
        dims_list: Sequence[Dims],
        precision: Precision,
        iterations: int = 1,
        alpha: float = 1.0,
        beta: float = 0.0,
    ) -> np.ndarray:
        """Seconds of :meth:`cpu_time`, one per entry of a same-kernel
        ``dims_list``."""
        return self.cpu.time_batch(dims_list, precision, iterations, alpha, beta)

    def gpu_time_batch(
        self,
        dims_list: Sequence[Dims],
        precision: Precision,
        iterations: int = 1,
        transfer: TransferType = TransferType.ONCE,
        alpha: float = 1.0,
        beta: float = 0.0,
    ) -> np.ndarray:
        """Seconds of :meth:`gpu_time`, one per entry of a same-kernel
        ``dims_list``."""
        if not len(dims_list):
            return np.zeros(0)
        kernel = dims_list[0].kernel
        m, n, k = dims_columns(dims_list)
        link = self.spec.link
        kern = self.gpu.kernel_time_batch(kernel, m, n, k, precision, alpha, beta)
        up = h2d_bytes_batch(kernel, m, n, k, precision)
        down = d2h_bytes_batch(kernel, m, n, k, precision)
        if transfer is TransferType.ONCE:
            total = self._link_time(up) + iterations * kern + self._link_time(down)
        elif transfer is TransferType.ALWAYS:
            staged_bw = link.bw_gbs * link.staging_bw_scale * 1e9
            per_iter = (
                2.0 * link.latency_s + (up + down) / staged_bw + kern
            )
            total = iterations * per_iter
        else:  # UNIFIED
            total = closed_form_unified_batch(
                self.spec.usm, link, up, down, kern, iterations
            )
        tv, pv = transfer.value, precision.value
        total = total * self.noise.factor_batch([
            ("gpu", tv, d.as_tuple(), pv, iterations) for d in dims_list
        ])
        return total

    # -- convenience rates --------------------------------------------
    def cpu_gflops(
        self, dims: Dims, precision: Precision, iterations: int = 1
    ) -> float:
        t = self.cpu_time(dims, precision, iterations)
        return iterations * flops_for(dims) / t / 1e9
