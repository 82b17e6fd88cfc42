"""Series-level comparisons: GPU win windows and transfer rankings.

The offload threshold deliberately ignores GPU wins that do not persist
to the top of the sweep; ``gpu_win_windows`` reports them anyway — the
paper's Fig. 4 observation that a *window* can exist (DAWN/Isambard
square DGEMV) even when no threshold does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.records import ProblemSeries
from ..core.threshold import aligned_rows
from ..types import Dims, TransferType

__all__ = ["TransferComparison", "compare_transfers", "gpu_win_windows"]

#: Ignore windows shorter than this many consecutive sizes — the same
#: prev+current smoothing the threshold detector applies.
_MIN_RUN = 2


def gpu_win_windows(
    series: ProblemSeries, transfer: TransferType
) -> List[Tuple[Dims, Dims]]:
    """Maximal [first, last] dim ranges where the GPU beats the CPU for
    at least ``_MIN_RUN`` consecutive swept sizes.  Like the threshold
    detector, a size present on one device only is skipped, so a
    missing cell bridges a window instead of breaking it."""
    cpu, gpu = series.cpu, series.gpu.get(transfer)
    if gpu is None:
        return []
    rows_cpu, rows_gpu = aligned_rows(cpu, gpu)
    wins = (gpu.seconds[rows_gpu] < cpu.seconds[rows_cpu]).tolist()
    windows: List[Tuple[Dims, Dims]] = []
    start = 0
    for j, win in enumerate(wins + [False]):
        if win:
            continue
        if j - start >= _MIN_RUN:
            windows.append(
                (cpu.dims_at(rows_cpu[start]), cpu.dims_at(rows_cpu[j - 1]))
            )
        start = j + 1
    return windows


@dataclass(frozen=True)
class TransferComparison:
    """GPU GFLOP/s by transfer paradigm at one swept size."""

    dims: Dims
    gflops: Dict[TransferType, float]

    def best(self) -> TransferType:
        return max(self.gflops, key=self.gflops.get)


def compare_transfers(series: ProblemSeries) -> List[TransferComparison]:
    """One comparison per size present under every swept paradigm."""
    if not series.gpu:
        return []
    first = next(iter(series.gpu.values()))
    rows = {  # per transfer: row in ``first`` -> row in its own column
        t: dict(zip(*(r.tolist() for r in aligned_rows(first, col))))
        for t, col in series.gpu.items()
    }
    common = set.intersection(*map(set, rows.values()))
    return [
        TransferComparison(
            dims=first.dims_at(i),
            gflops={t: series.gpu[t].gflops[r[i]].item()
                    for t, r in rows.items()},
        )
        for i in sorted(common, key=first.dims_at)
    ]
