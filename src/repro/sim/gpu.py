"""Closed-form GPU kernel timing model.

Per-iteration kernel time::

    launch + max(F / (peak * occupancy), bytes / effective_bw)

The occupancy ramp ``F / (F + occ_ramp)`` models device fill: small
kernels cannot use every execution unit, which is why GPU time is flat
(launch-bound) at small sizes.  GEMV adds a row-parallelism factor —
matrices with few rows cannot saturate the memory system.
"""

from __future__ import annotations

import numpy as np

from ..blas.registry import GpuLibraryModel
from ..core.flops import dims_columns, flops_for_batch, kernel_bytes_batch
from ..systems.specs import GpuSpec
from ..types import Dims, Kernel, Precision
from .quirks import quirk_factor_batch

__all__ = ["GpuModel"]

#: Fraction of the beta-update's extra output-read traffic that is NOT
#: hidden behind the operand streams.
_BETA_READ_EXPOSED = 0.7


class GpuModel:
    def __init__(self, spec: GpuSpec, library: GpuLibraryModel) -> None:
        self.spec = spec
        self.library = library

    def kernel_time(
        self,
        dims: Dims,
        precision: Precision,
        alpha: float = 1.0,
        beta: float = 0.0,
    ) -> float:
        """One kernel execution, launch included (no data movement)."""
        m, n, k = dims_columns((dims,))
        return float(
            self.kernel_time_batch(dims.kernel, m, n, k, precision, alpha, beta)[0]
        )

    def kernel_time_batch(
        self,
        kernel: Kernel,
        m: np.ndarray,
        n: np.ndarray,
        k: np.ndarray,
        precision: Precision,
        alpha: float = 1.0,
        beta: float = 0.0,
    ) -> np.ndarray:
        """Seconds of :meth:`kernel_time`, one per entry of the
        same-kernel ``m``, ``n``, ``k`` columns."""
        flops = flops_for_batch(kernel, m, n, k, beta)
        peak = self.spec.peak_gflops(precision.value) * 1e9
        occupancy = flops / (flops + self.library.occ_ramp_flops)
        compute = flops / (peak * occupancy)
        # The beta != 0 read of C streams alongside the operand reads and
        # is partially hidden — measured beta-update slowdowns top out
        # around 1.7x, not the 2x a pure traffic count would predict.
        base_bytes = kernel_bytes_batch(kernel, m, n, k, precision)
        beta_bytes = kernel_bytes_batch(kernel, m, n, k, precision, beta) - base_bytes
        if kernel is Kernel.GEMV:
            row_eff = m / (m + self.library.gemv_row_half)
            bw = self.spec.mem_bw_gbs * self.library.gemv_bw_eff * row_eff
            launch = self.library.gemv_launch_s
        else:
            bw = self.spec.mem_bw_gbs * self.library.hbm_eff
            launch = self.library.launch_s
        memory = (base_bytes + _BETA_READ_EXPOSED * beta_bytes) / (bw * 1e9)
        t = launch + np.maximum(compute, memory)
        t = t * quirk_factor_batch(self.library.quirks, kernel, m, n, k, precision)
        return t
