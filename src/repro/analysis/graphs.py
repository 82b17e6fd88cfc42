"""GFLOP/s curves and the fig.-2-style ASCII performance plots."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..core.records import Column, ProblemSeries
from ..types import TransferType

__all__ = [
    "Curve",
    "CurveSet",
    "ascii_plot",
    "cpu_curve",
    "gpu_curve",
    "performance_curves",
]

#: Paper-style curve markers: CPU, then the three transfer paradigms.
_MARKERS = "ox+*#@%&"


@dataclass(frozen=True)
class Curve:
    """One GFLOP/s-vs-size line."""

    label: str
    sizes: Tuple[int, ...]
    gflops: Tuple[float, ...]

    def at(self, size: int) -> float:
        """GFLOP/s at the swept size nearest to ``size``."""
        if not self.sizes:
            raise ValueError(f"curve {self.label!r} is empty")
        i = min(range(len(self.sizes)), key=lambda j: abs(self.sizes[j] - size))
        return self.gflops[i]


@dataclass
class CurveSet:
    title: str
    curves: List[Curve] = field(default_factory=list)

    def to_csv_rows(self) -> List[List[str]]:
        """Header + one row per size, one column per curve."""
        rows = [["size"] + [c.label for c in self.curves]]
        if not self.curves:
            return rows
        for i, size in enumerate(self.curves[0].sizes):
            row = [str(size)]
            for c in self.curves:
                row.append(repr(c.gflops[i]) if i < len(c.gflops) else "")
            rows.append(row)
        return rows


def _curve(label: str, column: Optional[Column]) -> Curve:
    if column is None:
        return Curve(label=label, sizes=(), gflops=())
    sizes = np.maximum(np.maximum(column.m, column.n), column.k)
    return Curve(label, tuple(sizes.tolist()), tuple(column.gflops.tolist()))


def cpu_curve(series: ProblemSeries, label: Optional[str] = None) -> Curve:
    return _curve(label or "CPU", series.cpu)


def gpu_curve(
    series: ProblemSeries,
    transfer: TransferType,
    label: Optional[str] = None,
) -> Curve:
    return _curve(
        label or f"GPU {transfer.label}", series.gpu.get(transfer)
    )


def performance_curves(
    series: ProblemSeries, title: Optional[str] = None
) -> CurveSet:
    """The paper's figure layout: the CPU curve first, then one GPU curve
    per swept transfer paradigm."""
    if title is None:
        title = (
            f"{series.precision.blas_prefix}{series.kernel.value} "
            f"{series.ident}, {series.iterations} iteration(s)"
        )
    curves = [cpu_curve(series)]
    for transfer in series.transfer_types():
        curves.append(gpu_curve(series, transfer))
    return CurveSet(title=title, curves=curves)


def ascii_plot(
    curve_set: CurveSet, width: int = 72, height: int = 20
) -> str:
    """Log-y scatter plot of every curve, with a marker legend."""
    curves = [c for c in curve_set.curves if c.sizes]
    if not curves:
        return f"{curve_set.title}\n(no data)"

    min_size = min(min(c.sizes) for c in curves)
    max_size = max(max(c.sizes) for c in curves)
    positive = [g for c in curves for g in c.gflops if g > 0]
    if not positive:
        return f"{curve_set.title}\n(no positive rates)"
    lo = math.log10(min(positive))
    hi = math.log10(max(positive))
    if hi - lo < 1e-9:
        hi = lo + 1.0

    def col(size: int) -> int:
        if max_size == min_size:
            return 0
        return round((size - min_size) / (max_size - min_size) * (width - 1))

    def row(gf: float) -> int:
        frac = (math.log10(max(gf, 10 ** lo)) - lo) / (hi - lo)
        return (height - 1) - round(frac * (height - 1))

    grid = [[" "] * width for _ in range(height)]
    for idx, curve in enumerate(curves):
        marker = _MARKERS[idx % len(_MARKERS)]
        for size, gf in zip(curve.sizes, curve.gflops):
            if gf <= 0:
                continue
            grid[row(gf)][col(size)] = marker

    top = f"{10 ** hi:,.0f}"
    bottom = f"{10 ** lo:,.3g}"
    gutter = max(len(top), len(bottom)) + 1
    lines = [curve_set.title]
    for r, cells in enumerate(grid):
        if r == 0:
            prefix = top.rjust(gutter)
        elif r == height - 1:
            prefix = bottom.rjust(gutter)
        else:
            prefix = " " * gutter
        lines.append(prefix + "|" + "".join(cells))
    lines.append(" " * gutter + "+" + "-" * width)
    axis = f"{min_size} .. {max_size} (max problem dimension)"
    lines.append(" " * (gutter + 1) + axis)
    lines.append(
        " " * (gutter + 1)
        + "GFLOP/s (log scale): "
        + "  ".join(
            f"{_MARKERS[i % len(_MARKERS)]}={c.label}"
            for i, c in enumerate(curves)
        )
    )
    return "\n".join(lines)
