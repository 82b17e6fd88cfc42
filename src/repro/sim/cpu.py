"""Closed-form CPU timing model.

Per-call GEMM time::

    overhead + sync_per_thread * T + max(compute, memory)

with ``T`` engaged threads (library threading heuristic), a parallel-
efficiency ramp in per-thread work, saturating shape-efficiency factors
in ``min(m, n)`` and ``k``, and a warm-data compute boost once the
working set is cache-resident (iterations after the first).

GEMV is modelled as pure data movement: the first (cold) iteration
streams from memory at a bandwidth limited by the engaged thread count;
warm iterations run at cache bandwidth while the working set fits the
effective LLC — crossing that boundary is DAWN's {4089} cliff.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..blas.registry import CpuLibraryModel
from ..core.flops import dims_columns, flops_for_batch, kernel_bytes_batch
from ..systems.specs import CpuSocketSpec
from ..types import Dims, Kernel, Precision
from .noise import NO_NOISE, NoiseModel
from .quirks import quirk_factor_batch

__all__ = ["CpuModel"]


class CpuModel:
    def __init__(
        self,
        spec: CpuSocketSpec,
        library: CpuLibraryModel,
        max_threads: Optional[int] = None,
        noise: NoiseModel = NO_NOISE,
    ) -> None:
        self.spec = spec
        self.library = library
        self.max_threads = max_threads or library.threads or spec.cores
        self.noise = noise

    # -- threading ----------------------------------------------------
    def engaged_threads(self, flops: float) -> int:
        """Threads the library engages for one call of ``flops`` flops."""
        return int(self._engaged_threads_batch(np.array([flops]))[0])

    def _peak_gflops(self, precision: Precision) -> float:
        peak = self.spec.peak_gflops(precision.itemsize)
        peak *= self.max_threads / self.spec.cores
        engine = self.spec.matrix_engine
        if engine is not None:
            peak *= engine.speedup_for(precision.value)
        return peak

    # -- public API ---------------------------------------------------
    def time(
        self,
        dims: Dims,
        precision: Precision,
        iterations: int = 1,
        alpha: float = 1.0,
        beta: float = 0.0,
    ) -> float:
        """Total seconds for ``iterations`` back-to-back library calls."""
        return float(self.time_batch((dims,), precision, iterations, alpha, beta)[0])

    # -- the closed forms, over same-kernel columns of dims -------------

    def _engaged_threads_batch(self, flops: np.ndarray) -> np.ndarray:
        lib = self.library
        if lib.threading == "always-max":
            return np.full(len(flops), self.max_threads, dtype=np.int64)
        raw = (-((-flops) // lib.grain_flops)).astype(np.int64)
        return np.maximum(1, np.minimum(self.max_threads, raw))

    def _parallel_eff_batch(
        self, flops: np.ndarray, threads: np.ndarray
    ) -> np.ndarray:
        lib = self.library
        ramp = lib.ramp_flops * (threads - 1) / max(1, self.max_threads - 1)
        ptw = flops / threads
        # The efficiency floor is a *single-core* small-call throughput:
        # the absolute floor rate must not grow with the team width, so
        # the per-thread floor shrinks as threads are added.
        floor = np.minimum(1.0, lib.eff_floor * self.spec.cores / threads)
        eff = np.maximum(floor, ptw / (ptw + ramp))
        return np.where(threads <= 1, 1.0, eff)

    def _shape_eff_batch(
        self, kernel: Kernel, m: np.ndarray, n: np.ndarray, k: np.ndarray
    ) -> np.ndarray:
        lib = self.library
        out = np.minimum(m, n)
        eff = out / (out + lib.out_half)
        if kernel is Kernel.GEMM:
            eff = eff * (k / (k + lib.k_half))
            # A reduction dimension far longer than the output tile keeps
            # re-streaming operand panels through cache; square shapes
            # (aspect == 1) are unaffected.
            aspect = k / out
            narrowed = eff * (
                lib.k_aspect_half / (lib.k_aspect_half + aspect - 1.0)
            )
            eff = np.where(aspect > 1.0, narrowed, eff)
        # When several extents are tiny the two saturating factors stack
        # multiplicatively, but a real library degenerates to a streaming
        # kernel — bound the penalty from below.
        return np.maximum(eff, lib.shape_floor)

    def _gemm_call_batch(
        self,
        m: np.ndarray,
        n: np.ndarray,
        k: np.ndarray,
        precision: Precision,
        warm: bool,
        alpha: float,
        beta: float,
    ) -> np.ndarray:
        lib = self.library
        flops = flops_for_batch(Kernel.GEMM, m, n, k, beta)
        threads = self._engaged_threads_batch(flops)
        rate = (
            self._peak_gflops(precision)
            * (threads / self.max_threads)
            * self._parallel_eff_batch(flops, threads)
            * self._shape_eff_batch(Kernel.GEMM, m, n, k)
            * lib.gemm_eff
        ) * 1e9
        compute = flops / rate
        bytes_moved = kernel_bytes_batch(Kernel.GEMM, m, n, k, precision, beta)
        memory = bytes_moved / (self.spec.mem_bw_gbs * 1e9)
        if warm:
            fits = bytes_moved <= self.spec.llc_bytes
            compute = np.where(
                fits, compute / self.spec.warm_compute_boost, compute
            )
            memory = np.where(
                fits, bytes_moved / (self.spec.cache_bw_gbs * 1e9), memory
            )
        return lib.overhead_s + lib.sync_per_thread_s * threads + np.maximum(
            compute, memory
        )

    def _gemv_call_batch(
        self, m: np.ndarray, n: np.ndarray, precision: Precision, warm: bool
    ) -> np.ndarray:
        lib = self.library
        spec = self.spec
        k = np.zeros(len(m), dtype=np.int64)
        bytes_moved = kernel_bytes_batch(Kernel.GEMV, m, n, k, precision)
        if not lib.gemv_parallel:
            threads = np.ones(len(m), dtype=np.int64)
        elif lib.gemv_grain_rows is not None:
            # Partition along the longest matrix extent (rows when tall,
            # columns when wide): skinny shapes still engage many threads.
            extent = np.maximum(m, n)
            raw = (-((-extent) // lib.gemv_grain_rows)).astype(np.int64)
            threads = np.maximum(1, np.minimum(self.max_threads, raw))
        else:
            raw = (-((-bytes_moved) // lib.gemv_grain_bytes)).astype(np.int64)
            threads = np.maximum(1, np.minimum(self.max_threads, raw))
        if warm:
            engaged = self.max_threads if lib.gemv_parallel else 1
            bw_hit = min(spec.cache_bw_gbs, engaged * spec.single_core_cache_bw_gbs)
            bw_miss = min(spec.mem_bw_gbs, engaged * spec.single_core_mem_bw_gbs)
            bw = np.where(bytes_moved <= spec.llc_bytes, bw_hit, bw_miss)
        else:
            bw = np.minimum(
                spec.mem_bw_gbs, threads * spec.single_core_mem_bw_gbs
            )
        t = lib.gemv_overhead_s + bytes_moved / (bw * 1e9)
        if lib.gemv_fanout:
            t = t + lib.sync_per_thread_s * self.max_threads
        else:
            t = t + lib.sync_per_thread_s * threads
        return t

    def time_batch(
        self,
        dims_list: Sequence[Dims],
        precision: Precision,
        iterations: int = 1,
        alpha: float = 1.0,
        beta: float = 0.0,
    ) -> np.ndarray:
        """Total seconds of :meth:`time`, one per entry of a same-kernel
        ``dims_list``."""
        if not len(dims_list):
            return np.zeros(0)
        kernel = dims_list[0].kernel
        m, n, k = dims_columns(dims_list)
        if kernel is Kernel.GEMM:
            first = self._gemm_call_batch(m, n, k, precision, False, alpha, beta)
            rest = (
                self._gemm_call_batch(m, n, k, precision, True, alpha, beta)
                if iterations > 1
                else 0.0
            )
        else:
            first = self._gemv_call_batch(m, n, precision, False)
            rest = (
                self._gemv_call_batch(m, n, precision, True)
                if iterations > 1
                else 0.0
            )
        total = first + (iterations - 1) * rest
        total = total * quirk_factor_batch(
            self.library.quirks, kernel, m, n, k, precision
        )
        name, pv = self.library.name, precision.value
        total = total * self.noise.factor_batch([
            ("cpu", name, d.as_tuple(), pv, iterations) for d in dims_list
        ])
        return total
