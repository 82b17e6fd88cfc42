"""Named library quirks the paper calls out.

Each quirk is a multiplicative *time* factor over a same-kernel column
of problems: ``m``, ``n`` and ``k`` int64 arrays plus one precision.
Library models carry a tuple of quirk names; the CPU/GPU models multiply
the matching factors into every sample.

* ``onemkl-sq629-cliff`` — oneMKL's square-GEMM performance collapses
  at {629, 629, 629} and recovers gradually by ~{1400} (Fig. 2); this
  single quirk pins DAWN's 1-iteration GEMM thresholds.
* ``nvpl-gemv-flatten`` — NVPL GEMV throughput flattens around
  m = 256 on Grace, pinning Isambard-AI's GEMV thresholds (Table IV).
* ``rocblas-sgemm-k2560`` — rocBLAS SGEMM steps up once K >= 2560.
* ``implicit-scaling`` — DAWN's driver-implicit multi-tile scaling is
  both slower and far noisier than explicit scaling (Fig. 7).
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict

import numpy as np

from ..types import Kernel, Precision

__all__ = ["QUIRKS", "quirk_factor_batch"]

_CLIFF_START = 629
_CLIFF_DEPTH = 1.65  # time multiplier at the cliff edge is 1 + depth
_CLIFF_RECOVER = 1400


def _onemkl_sq629_cliff_batch(
    kernel: Kernel, m: np.ndarray, n: np.ndarray, k: np.ndarray,
    precision: Precision,
) -> np.ndarray:
    if kernel is not Kernel.GEMM:
        return np.ones(len(m))
    min_dim = np.minimum(np.minimum(m, n), k)
    span = _CLIFF_RECOVER - _CLIFF_START
    frac = np.maximum(0.0, (_CLIFF_RECOVER - min_dim) / span)
    return np.where(min_dim < _CLIFF_START, 1.0, 1.0 + _CLIFF_DEPTH * frac)


def _nvpl_gemv_flatten_batch(
    kernel: Kernel, m: np.ndarray, n: np.ndarray, k: np.ndarray,
    precision: Precision,
) -> np.ndarray:
    if kernel is not Kernel.GEMV:
        return np.ones(len(m))
    s = np.minimum(m, n)
    # Flat shoulder: strongest near 256, tapering away by 2048.
    frac = np.maximum(0.0, (2048 - s) / (2048 - 192))
    return np.where((s < 195) | (s >= 2048), 1.0, 1.0 + 0.9 * frac)


def _rocblas_sgemm_k2560_batch(
    kernel: Kernel, m: np.ndarray, n: np.ndarray, k: np.ndarray,
    precision: Precision,
) -> np.ndarray:
    if kernel is Kernel.GEMM and precision is Precision.SINGLE:
        return np.where(k >= 2560, 0.85, 1.0)
    return np.ones(len(m))


def _implicit_scaling_batch(
    kernel: Kernel, m: np.ndarray, n: np.ndarray, k: np.ndarray,
    precision: Precision,
) -> np.ndarray:
    # The jitter is keyed by the CRC of ``Dims.as_tuple()``: (m, n, k)
    # for GEMM, (m, n) for GEMV, as Python ints.
    columns = (m, n, k) if kernel is Kernel.GEMM else (m, n)
    digests = np.fromiter(
        (
            zlib.crc32(repr(("implicit", shape)).encode())
            for shape in zip(*(c.tolist() for c in columns))
        ),
        dtype=np.float64,
        count=len(m),
    )
    unit = digests / 0xFFFFFFFF
    jitter = 1.40 + 0.55 * (2.0 * unit - 1.0)
    max_dim = np.maximum(np.maximum(m, n), k)
    return np.where(max_dim < 512, 1.05, jitter)


QUIRKS: Dict[str, Callable] = {
    "onemkl-sq629-cliff": _onemkl_sq629_cliff_batch,
    "nvpl-gemv-flatten": _nvpl_gemv_flatten_batch,
    "rocblas-sgemm-k2560": _rocblas_sgemm_k2560_batch,
    "implicit-scaling": _implicit_scaling_batch,
}


def quirk_factor_batch(
    names, kernel: Kernel, m: np.ndarray, n: np.ndarray, k: np.ndarray,
    precision: Precision,
) -> np.ndarray:
    """Product of the named quirks' factors, one per problem."""
    factor = np.ones(len(m))
    for name in names:
        factor = factor * QUIRKS[name](kernel, m, n, k, precision)
    return factor
