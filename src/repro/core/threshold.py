"""The GPU offload-threshold detector (paper section III-D).

The threshold is the smallest problem size from which the GPU —
including data movement — beats the CPU *for every larger size in the
sweep*.  The paper smooths momentary flips: a candidate needs
``min_consecutive`` consecutive GPU wins to be accepted (2 in the
paper: previous + current), and is only discarded when the CPU retakes
the lead for the same number of consecutive sizes.  The reported dims
are the *start* of the surviving win streak, so a GPU that wins
everywhere yields a threshold at the first swept size.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import PartialSweepWarning
from ..types import Dims, TransferType
from .records import Column, ProblemSeries

__all__ = [
    "ThresholdResult",
    "aligned_rows",
    "find_offload_threshold",
    "threshold_for_series",
]


@dataclass(frozen=True)
class ThresholdResult:
    found: bool
    dims: Optional[Dims] = None
    index: Optional[int] = None

    def __bool__(self) -> bool:
        return self.found

    def __str__(self) -> str:
        return str(self.dims) if self.found else "none"


NOT_FOUND = ThresholdResult(False)


def find_offload_threshold(
    dims_list: Sequence,
    cpu_seconds: Sequence[float],
    gpu_seconds: Sequence[float],
    min_consecutive: int = 2,
) -> ThresholdResult:
    """Scan parallel CPU/GPU timing curves (ascending sizes); the
    result's ``dims`` is the entry of ``dims_list`` at the threshold."""
    if len(dims_list) != len(cpu_seconds) or len(dims_list) != len(gpu_seconds):
        raise ValueError("dims, cpu and gpu curves must have equal length")
    if min_consecutive < 1:
        raise ValueError("min_consecutive must be >= 1")
    candidate: Optional[int] = None
    gpu_streak = 0
    cpu_streak = 0
    for j, (ct, gt) in enumerate(zip(cpu_seconds, gpu_seconds)):
        if gt < ct:
            gpu_streak += 1
            cpu_streak = 0
            if candidate is None and gpu_streak >= min_consecutive:
                candidate = j - gpu_streak + 1
        else:
            cpu_streak += 1
            gpu_streak = 0
            if candidate is not None and cpu_streak >= min_consecutive:
                candidate = None
    if candidate is None:
        return NOT_FOUND
    return ThresholdResult(True, dims_list[candidate], candidate)


def aligned_rows(a: Column, b: Column) -> Tuple[np.ndarray, np.ndarray]:
    """Row indices into ``a`` and ``b`` of the sizes both columns hold,
    in ``a``'s order: the one pairing of cells across columns that the
    threshold detector and every series comparison read.  A size present
    in one column only is skipped, so a gap is bridged, never a break.
    """
    if a.same_sizes(b):
        rows = np.arange(len(a))
        return rows, rows
    where = {d: j for j, d in enumerate(_sizes(b))}
    pairs = [(i, where[d]) for i, d in enumerate(_sizes(a)) if d in where]
    pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def _sizes(column: Column):
    return zip(column.m.tolist(), column.n.tolist(), column.k.tolist())


def threshold_for_series(
    series: ProblemSeries,
    transfer: TransferType,
    min_consecutive: int = 2,
) -> ThresholdResult:
    """Offload threshold of one sweep series under one paradigm.

    Quarantined or otherwise missing cells never raise: sizes present on
    only one device are skipped with a :class:`PartialSweepWarning`, and
    the threshold is computed over the surviving pairs.
    """
    cpu, gpu = series.cpu, series.gpu.get(transfer)
    if gpu is None or not len(gpu) or not len(cpu):
        return NOT_FOUND
    rows_cpu, rows_gpu = aligned_rows(cpu, gpu)
    pairs = len(rows_cpu)
    missing, missing_cpu = len(cpu) - pairs, len(gpu) - pairs
    if missing or missing_cpu:
        blas = series.precision.blas_prefix + series.kernel.value
        gaps = [f"{missing} of {len(cpu)} sizes lack a GPU sample"] if missing else []
        if missing_cpu:
            gaps.append(f"{missing_cpu} GPU sizes lack a CPU sample")
        warnings.warn(
            f"{blas}:{series.ident} [{transfer.value}]: "
            + "; ".join(gaps)
            + " (quarantined or device lost); threshold computed over the "
            f"remaining {pairs} pairs",
            PartialSweepWarning, stacklevel=2,
        )
    found = find_offload_threshold(
        rows_cpu, cpu.seconds[rows_cpu].tolist(),
        gpu.seconds[rows_gpu].tolist(), min_consecutive,
    )
    if not found:
        return NOT_FOUND
    return ThresholdResult(True, cpu.dims_at(found.dims), found.index)
