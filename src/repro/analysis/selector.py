"""Device selectors: empirical (trained on sweep data) and model-backed.

Chikin et al. predict placement from per-architecture analytical models;
GPU-BLOB's portable alternative is to *measure*.  ``EmpiricalSelector``
operationalizes that: fit it on the samples of one or more sweeps and it
recommends a device for unseen (dims, precision, iterations) queries by
nearest-neighbour lookup in log-problem-space.  ``ModelSelector`` is the
oracle that asks the analytic model directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.threshold import aligned_rows
from ..sim.perfmodel import NodePerfModel
from ..types import DeviceKind, Dims, Precision, TransferType

__all__ = ["EmpiricalSelector", "ModelSelector", "Recommendation"]


@dataclass(frozen=True)
class Recommendation:
    device: DeviceKind
    expected_speedup: float
    confidence_distance: float
    transfer: Optional[TransferType] = None


def _features(dims: Dims, iterations: int) -> Tuple[float, ...]:
    return (
        math.log2(dims.m + 1),
        math.log2(dims.n + 1),
        math.log2(dims.k + 1),
        math.log2(iterations + 1),
    )


def _distance(a: Tuple[float, ...], b: Tuple[float, ...]) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


class EmpiricalSelector:
    """Nearest-neighbour device recommender over measured sweep points."""

    def __init__(self) -> None:
        # key: (precision, kernel-ness irrelevant — dims carry it)
        self._points: Dict[
            Precision, List[Tuple[Tuple[float, ...], float, float, Optional[TransferType]]]
        ] = {}

    def fit(self, *runs) -> "EmpiricalSelector":
        """Ingest every (dims, iterations) cell of the given runs."""
        for run in runs:
            for series in run.series:
                cpu = series.cpu
                best_s = [math.inf] * len(cpu)
                best_t: List[Optional[TransferType]] = [None] * len(cpu)
                for t, gpu in series.gpu.items():
                    rows_cpu, rows_gpu = aligned_rows(cpu, gpu)
                    for i, s in zip(rows_cpu.tolist(),
                                    gpu.seconds[rows_gpu].tolist()):
                        if s < best_s[i]:
                            best_s[i], best_t[i] = s, t
                cpu_s = cpu.seconds.tolist()
                self._points.setdefault(series.precision, []).extend(
                    (_features(cpu.dims_at(i), series.iterations),
                     cpu_s[i], best_s[i], t)
                    for i, t in enumerate(best_t) if t is not None
                )
        return self

    def n_points(self) -> int:
        return sum(len(v) for v in self._points.values())

    def recommend(
        self, dims: Dims, precision: Precision, iterations: int = 1
    ) -> Recommendation:
        points = self._points.get(precision)
        if not points:
            raise ValueError(
                f"no training data for precision {precision.value!r}"
            )
        query = _features(dims, iterations)
        feat, cpu_s, gpu_s, transfer = min(
            points, key=lambda p: _distance(p[0], query)
        )
        if gpu_s < cpu_s:
            return Recommendation(
                DeviceKind.GPU, cpu_s / gpu_s, _distance(feat, query), transfer
            )
        return Recommendation(
            DeviceKind.CPU, gpu_s / cpu_s, _distance(feat, query), None
        )

    def agreement_with(self, oracle: "ModelSelector", queries) -> float:
        """Fraction of (dims, precision, iterations) queries on which the
        recommended device matches the oracle's."""
        if not queries:
            return 1.0
        hits = 0
        for dims, precision, iterations in queries:
            mine = self.recommend(dims, precision, iterations)
            truth = oracle.recommend(dims, precision, iterations)
            hits += mine.device is truth.device
        return hits / len(queries)


class ModelSelector:
    """The oracle: evaluates the analytic model for the exact query."""

    def __init__(
        self,
        model: NodePerfModel,
        transfers: Tuple[TransferType, ...] = (
            TransferType.ONCE,
            TransferType.ALWAYS,
            TransferType.UNIFIED,
        ),
    ) -> None:
        self.model = model
        self.transfers = transfers

    def recommend(
        self, dims: Dims, precision: Precision, iterations: int = 1
    ) -> Recommendation:
        cpu_s = self.model.cpu_time(dims, precision, iterations)
        best_t = None
        best_s = math.inf
        if self.model.has_gpu:
            for t in self.transfers:
                s = self.model.gpu_time(dims, precision, iterations, t)
                if s < best_s:
                    best_s, best_t = s, t
        if best_s < cpu_s:
            return Recommendation(DeviceKind.GPU, cpu_s / best_s, 0.0, best_t)
        return Recommendation(
            DeviceKind.CPU, best_s / cpu_s if math.isfinite(best_s) else math.inf, 0.0, None
        )
