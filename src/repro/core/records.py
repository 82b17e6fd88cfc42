"""Run records: one timed sample and one per-problem-type series, and
the column codec that carries series across processes and onto disk."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..types import DeviceKind, Dims, Kernel, Precision, TransferType
from .flops import flops_for
from .problem import ProblemType, get_problem_type

__all__ = [
    "PerfSample", "ProblemSeries", "QuarantineEntry", "decode_series",
    "encode_series", "sample_from_record",
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


# -- the column codec ---------------------------------------------------

#: int8 code of each ``checksum_ok`` value in the check column, and back
_CHECK_CODE = {None: -1, False: 0, True: 1}
_CHECK_VALUE = {code: value for value, code in _CHECK_CODE.items()}


def _require(values: list, types: tuple, what: str) -> list:
    """``values`` unchanged, or ValueError when one is not of ``types``
    (an int in a float column would come back a float, a float dim would
    be truncated: the layout must refuse, never alter)."""
    if not set(map(type, values)) <= set(types):
        raise ValueError(f"the column layout cannot hold a non-{what} value")
    return values


def encode_series(
    series_list: Sequence[ProblemSeries],
) -> Tuple[List[dict], bytes]:
    """Column metadata per series plus one little-endian byte string.

    Each series is one CPU column and one column per GPU transfer, in
    ``samples`` order.  The bytes are four arrays, every series in turn
    within each: int64 dims ``(D, 3)`` | float64 seconds ``(N,)`` |
    float64 gflops ``(N,)`` | int8 checksum codes ``(N,)`` (-1 None,
    0 False, 1 True).  Floats travel as raw bits, so a decoded series is
    bit-identical.  When every column of a series samples the same dims
    sequence — a full sweep — its dims are stored once
    (``shared_dims``), else once per sample.

    Raises ValueError for a series the layout cannot hold: a sample
    whose device, transfer or iteration count differs from its
    column's, or a value of another type than the field declares.
    """
    metas: List[dict] = []
    dims: List[Dims] = []
    samples: List[PerfSample] = []
    for series in series_list:
        columns = [(DeviceKind.CPU, None, series.cpu)]
        columns += [(DeviceKind.GPU, t, col) for t, col in series.gpu.items()]
        col_dims = []
        for device, transfer, col in columns:
            cell = (device, transfer, series.iterations)
            if any((s.device, s.transfer, s.iterations) != cell for s in col):
                raise ValueError(
                    f"a sample in the {device.value}/{transfer} column of "
                    f"{series.ident} has another device, transfer or "
                    "iteration count"
                )
            col_dims.append([s.dims for s in col])
            samples.extend(col)
        # list == compares identity first: the batch path shares Dims
        shared = all(d == col_dims[0] for d in col_dims[1:])
        dims.extend(col_dims[0] if shared else chain.from_iterable(col_dims))
        metas.append({
            "kernel": series.kernel.value,
            "ident": series.ident,
            "precision": series.precision.value,
            "iterations": series.iterations,
            "partial": series.partial,
            "shared_dims": shared,
            "cpu": len(series.cpu),
            "gpu": [
                [t.value if t is not None else None, len(col)]
                for t, col in series.gpu.items()
            ],
        })
    ints = _require(
        [v for d in dims for v in (d.m, d.n, d.k)], (int,), "int dim"
    )
    seconds = _require([s.seconds for s in samples], (float,), "float")
    gflops = _require([s.gflops for s in samples], (float,), "float")
    checks = _require(
        [s.checksum_ok for s in samples], (bool, type(None)), "bool checksum"
    )
    try:
        arrays = (
            np.array(ints, dtype="<i8"),
            np.array(seconds, dtype="<f8"),
            np.array(gflops, dtype="<f8"),
            np.array([_CHECK_CODE[c] for c in checks], dtype="i1"),
        )
    except OverflowError:
        raise ValueError("a dim does not fit in int64") from None
    return metas, b"".join(a.tobytes() for a in arrays)


def decode_series(metas: Sequence[dict], data) -> List[ProblemSeries]:
    """Inverse of :func:`encode_series`.  Raises ``KeyError``,
    ``TypeError`` or ``ValueError`` when the metadata and the bytes do
    not describe each other."""
    layout = []
    total_dims = total = 0
    for meta in metas:
        gpu = [
            (TransferType(t) if t is not None else None, int(count))
            for t, count in meta["gpu"]
        ]
        counts = [int(meta["cpu"])] + [count for _, count in gpu]
        shared = bool(meta["shared_dims"])
        if shared and len(set(counts)) > 1:
            raise ValueError("shared dims across columns of unequal length")
        n_dims = counts[0] if shared else sum(counts)
        layout.append((meta, gpu, counts, shared, n_dims))
        total_dims += n_dims
        total += sum(counts)
    if len(data) != total_dims * 24 + total * 17:
        raise ValueError(
            f"{len(data)} bytes do not match {total_dims} dims and "
            f"{total} samples"
        )
    flat = np.frombuffer(data, dtype="<i8", count=total_dims * 3)
    m, n, k = (flat[i::3].tolist() for i in range(3))
    offset = total_dims * 24
    seconds = np.frombuffer(data, "<f8", total, offset).tolist()
    gflops = np.frombuffer(data, "<f8", total, offset + total * 8).tolist()
    checks = [
        _CHECK_VALUE[c]
        for c in np.frombuffer(data, "i1", total, offset + total * 16).tolist()
    ]

    out: List[ProblemSeries] = []
    d0 = row = 0
    for meta, gpu, counts, shared, n_dims in layout:
        iterations = int(meta["iterations"])
        series = ProblemSeries(
            problem_type=get_problem_type(Kernel(meta["kernel"]), meta["ident"]),
            precision=Precision(meta["precision"]),
            iterations=iterations,
            partial=bool(meta["partial"]),
        )
        d1 = d0 + n_dims
        dims = list(map(Dims, m[d0:d1], n[d0:d1], k[d0:d1]))
        d0 = d1
        cells = [(DeviceKind.CPU, None)]
        cells += [(DeviceKind.GPU, t) for t, _ in gpu]
        start = 0
        for (device, transfer), count in zip(cells, counts):
            end = row + count
            col_dims = dims if shared else dims[start:start + count]
            start += count
            column = [
                PerfSample(device, transfer, d, iterations, s, g, c)
                for d, s, g, c in zip(
                    col_dims, seconds[row:end], gflops[row:end],
                    checks[row:end],
                )
            ]
            row = end
            if device is DeviceKind.CPU:
                series.cpu = column
            else:
                series.gpu[transfer] = column
        out.append(series)
    return out
