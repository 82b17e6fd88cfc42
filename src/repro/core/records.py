"""Run records: one timed sample and one per-problem-type series."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..types import DeviceKind, Dims, Kernel, Precision, TransferType
from .flops import flops_for
from .problem import ProblemType

__all__ = [
    "PerfSample", "ProblemSeries", "QuarantineEntry", "sample_from_record",
]


@dataclass(frozen=True, slots=True)
class PerfSample:
    """One timed data point: a (device, transfer, dims) cell.

    ``seconds`` is the total wall time over all iterations; ``gflops``
    is the aggregate rate ``iterations * flops / seconds``.

    Slotted: full-range sweeps hold hundreds of thousands of samples,
    and construction sits on the vectorized fast path's critical loop.
    """

    device: DeviceKind
    transfer: Optional[TransferType]
    dims: Dims
    iterations: int
    seconds: float
    gflops: float
    checksum_ok: Optional[bool] = None

    @classmethod
    def from_seconds(
        cls,
        device: DeviceKind,
        transfer: Optional[TransferType],
        dims: Dims,
        iterations: int,
        seconds: float,
        checksum_ok: Optional[bool] = None,
        beta: float = 0.0,
    ) -> "PerfSample":
        gflops = iterations * flops_for(dims, beta) / seconds / 1e9 if seconds > 0 else 0.0
        return cls(device, transfer, dims, iterations, seconds, gflops, checksum_ok)


def sample_from_record(rec: dict) -> PerfSample:
    """Rebuild a sample from its JSON record (checkpoint or cache)."""
    return PerfSample(
        device=DeviceKind(rec["device"]),
        transfer=TransferType(rec["transfer"]) if rec["transfer"] else None,
        dims=Dims(rec["m"], rec["n"], rec["k"]),
        iterations=rec["iterations"],
        seconds=rec["seconds"],
        gflops=rec["gflops"],
        checksum_ok=rec["checksum_ok"],
    )


@dataclass(frozen=True)
class QuarantineEntry:
    """One sweep cell that exhausted its retries (or hit a permanent
    fault) and was excluded from the series instead of crashing the run."""

    kernel: Kernel
    ident: str
    precision: Precision
    device: DeviceKind
    transfer: Optional[TransferType]
    dims: Dims
    iterations: int
    attempts: int
    error: str
    message: str

    def __str__(self) -> str:
        where = self.transfer.value if self.transfer else self.device.value
        return (
            f"{self.precision.blas_prefix}{self.kernel.value}:{self.ident} "
            f"{self.dims} [{where}] after {self.attempts} attempt(s): "
            f"{self.error}: {self.message}"
        )


@dataclass
class ProblemSeries:
    """All samples of one (kernel, problem type, precision, iterations)
    sweep, grouped by device and transfer paradigm.

    ``partial`` is set by the resilient runner when the sweep could not
    fill every requested cell — quarantined samples or device loss —
    so downstream consumers can distrust thresholds over gaps.
    """

    problem_type: ProblemType
    precision: Precision
    iterations: int
    cpu: List[PerfSample] = field(default_factory=list)
    gpu: Dict[TransferType, List[PerfSample]] = field(default_factory=dict)
    partial: bool = False

    @property
    def kernel(self) -> Kernel:
        return self.problem_type.kernel

    @property
    def ident(self) -> str:
        return self.problem_type.ident

    def add(self, sample: PerfSample) -> None:
        if sample.device is DeviceKind.CPU:
            self.cpu.append(sample)
        else:
            self.gpu.setdefault(sample.transfer, []).append(sample)

    def cpu_samples(self) -> List[PerfSample]:
        return list(self.cpu)

    def gpu_samples(self, transfer: TransferType) -> List[PerfSample]:
        return list(self.gpu.get(transfer, []))

    def transfers(self) -> tuple:
        return tuple(self.gpu.keys())

    def transfer_types(self) -> tuple:
        return tuple(self.gpu.keys())

    @property
    def samples(self) -> List[PerfSample]:
        """Every sample in a deterministic order (CPU first, then GPU
        per transfer paradigm in insertion order)."""
        return self.all_samples()

    def sizes(self) -> List[Dims]:
        source = self.cpu or next(iter(self.gpu.values()), [])
        return [s.dims for s in source]

    def all_samples(self) -> List[PerfSample]:
        out = list(self.cpu)
        for samples in self.gpu.values():
            out.extend(samples)
        return out
