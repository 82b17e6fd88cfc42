"""The paper's exact FLOP and byte model (section III-C).

GEMM performs ``2MNK + MN`` flops with ``beta == 0`` and an extra
``q*MN`` (q = 1) when ``beta != 0``; GEMV performs ``2MN + M + q*M``.
The byte helpers model GPU-BLOB's transfer set: all operands travel
host-to-device (A, B and C — the benchmark uploads the output buffer
too), only the output travels back.

Each count has one form, the ``*_batch`` function of a kernel and its
``m``, ``n``, ``k`` extents.  It is plain integer arithmetic, so it
takes NumPy ``int64`` columns (one same-kernel batch of a sweep) and
Python ints alike: the scalar helpers pass one
:class:`~repro.types.Dims`' ints through it and return an exact
``int``.  All swept dimensions stay far below 2**53, so a count
converts to float exactly wherever it is divided.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..types import Dims, Kernel, Precision

__all__ = [
    "arithmetic_intensity",
    "d2h_bytes",
    "d2h_bytes_batch",
    "dims_columns",
    "flops_for",
    "flops_for_batch",
    "h2d_bytes",
    "h2d_bytes_batch",
    "kernel_bytes",
    "kernel_bytes_batch",
    "naive_flops",
]


def flops_for(dims: Dims, beta: float = 0.0) -> int:
    """Exact flop count of one kernel invocation."""
    return flops_for_batch(dims.kernel, dims.m, dims.n, dims.k, beta)


def naive_flops(dims: Dims) -> int:
    """The commonly quoted ``2MNK`` / ``2MN`` approximation."""
    if dims.is_gemm:
        return 2 * dims.m * dims.n * dims.k
    return 2 * dims.m * dims.n


def h2d_bytes(dims: Dims, precision: Precision) -> int:
    """Bytes uploaded before the first iteration (A, B and C/x and y)."""
    return h2d_bytes_batch(dims.kernel, dims.m, dims.n, dims.k, precision)


def d2h_bytes(dims: Dims, precision: Precision) -> int:
    """Bytes downloaded after the last iteration (the output only)."""
    return d2h_bytes_batch(dims.kernel, dims.m, dims.n, dims.k, precision)


def kernel_bytes(dims: Dims, precision: Precision, beta: float = 0.0) -> int:
    """Memory traffic of one invocation assuming perfect operand reuse
    (reads of A and B/x, a write of the output, plus a read of the
    output when ``beta != 0``)."""
    return kernel_bytes_batch(dims.kernel, dims.m, dims.n, dims.k, precision, beta)


def arithmetic_intensity(dims: Dims, precision: Precision, beta: float = 0.0) -> float:
    """Flops per byte of minimum memory traffic — the paper's lens for
    why GEMM offloads and GEMV mostly does not."""
    return flops_for(dims, beta) / kernel_bytes(dims, precision, beta)


# -- the one form of each count, over int64 columns or Python ints ----

def dims_columns(dims_list: Sequence[Dims]) -> tuple:
    """The ``m``, ``n``, ``k`` int64 columns of a batch of dims."""
    count = len(dims_list)
    m = np.fromiter((d.m for d in dims_list), dtype=np.int64, count=count)
    n = np.fromiter((d.n for d in dims_list), dtype=np.int64, count=count)
    k = np.fromiter((d.k for d in dims_list), dtype=np.int64, count=count)
    return m, n, k


def flops_for_batch(
    kernel: Kernel, m: np.ndarray, n: np.ndarray, k: np.ndarray,
    beta: float = 0.0,
) -> np.ndarray:
    """Exact flop counts of a batch of same-kernel problems (int64)."""
    q = 1 if beta != 0.0 else 0
    if kernel is Kernel.GEMM:
        return 2 * m * n * k + m * n + q * m * n
    return 2 * m * n + m + q * m


def _elements(
    kernel: Kernel, m: np.ndarray, n: np.ndarray, k: np.ndarray
) -> tuple:
    """(input elements, output elements) touched by one invocation."""
    if kernel is Kernel.GEMM:
        return (m * k + k * n, m * n)
    return (m * n + n, m)


def h2d_bytes_batch(
    kernel: Kernel, m: np.ndarray, n: np.ndarray, k: np.ndarray,
    precision: Precision,
) -> np.ndarray:
    inputs, outputs = _elements(kernel, m, n, k)
    return (inputs + outputs) * precision.itemsize


def d2h_bytes_batch(
    kernel: Kernel, m: np.ndarray, n: np.ndarray, k: np.ndarray,
    precision: Precision,
) -> np.ndarray:
    _, outputs = _elements(kernel, m, n, k)
    return outputs * precision.itemsize


def kernel_bytes_batch(
    kernel: Kernel, m: np.ndarray, n: np.ndarray, k: np.ndarray,
    precision: Precision, beta: float = 0.0,
) -> np.ndarray:
    inputs, outputs = _elements(kernel, m, n, k)
    q = 1 if beta != 0.0 else 0
    return (inputs + outputs + q * outputs) * precision.itemsize
