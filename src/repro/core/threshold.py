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
from typing import Optional, Sequence

from ..errors import PartialSweepWarning
from ..types import Dims, TransferType
from .records import ProblemSeries

__all__ = [
    "ThresholdResult",
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
    dims_list: Sequence[Dims],
    cpu_seconds: Sequence[float],
    gpu_seconds: Sequence[float],
    min_consecutive: int = 2,
) -> ThresholdResult:
    """Scan parallel CPU/GPU timing curves (ascending sizes)."""
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
    gpu = series.gpu_samples(transfer)
    cpu = series.cpu_samples()
    if not gpu or not cpu:
        return NOT_FOUND
    by_dims = {s.dims: s for s in gpu}
    dims_list, cpu_t, gpu_t = [], [], []
    missing = 0
    for c in cpu:
        g = by_dims.get(c.dims)
        if g is None:
            missing += 1
            continue
        dims_list.append(c.dims)
        cpu_t.append(c.seconds)
        gpu_t.append(g.seconds)
    missing_cpu = len(by_dims) - len(dims_list)
    if missing or missing_cpu:
        blas = series.precision.blas_prefix + series.kernel.value
        gaps = []
        if missing:
            gaps.append(f"{missing} of {len(cpu)} sizes lack a GPU sample")
        if missing_cpu:
            gaps.append(f"{missing_cpu} GPU sizes lack a CPU sample")
        warnings.warn(
            f"{blas}:{series.ident} [{transfer.value}]: "
            + "; ".join(gaps)
            + " (quarantined or device lost); threshold computed over the "
            f"remaining {len(dims_list)} pairs",
            PartialSweepWarning, stacklevel=2,
        )
    if not dims_list:
        return NOT_FOUND
    return find_offload_threshold(dims_list, cpu_t, gpu_t, min_consecutive)
