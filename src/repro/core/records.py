"""Run records: one timed sample, the column arrays of one (device,
transfer) sweep, one per-problem-type series of columns, and the codec
that carries series across processes and onto disk."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..types import DeviceKind, Dims, Kernel, Precision, TransferType
from .flops import flops_for
from .problem import ProblemType, get_problem_type

__all__ = [
    "Column", "PerfSample", "ProblemSeries", "QuarantineEntry",
    "decode_series", "encode_series", "sample_from_record",
]


@dataclass(frozen=True, slots=True)
class PerfSample:
    """One timed data point: a (device, transfer, dims) cell.

    ``seconds`` is the total wall time over all iterations; ``gflops``
    is the aggregate rate ``iterations * flops / seconds``.

    The unit of the per-cell path (DES, host, fault-injected and
    checkpoint-replayed cells) and the per-cell view of a
    :class:`Column`; batch backends never build one.
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


#: int8 code of each ``checksum_ok`` value in the check column, and back
_CHECK_CODE = {None: -1, False: 0, True: 1}
_CHECK_VALUE = {code: value for value, code in _CHECK_CODE.items()}

#: the array fields of a :class:`Column`
_ARRAYS = ("m", "n", "k", "seconds", "gflops", "checks")


def _require(values: list, types: tuple, what: str) -> list:
    """``values``, or ValueError when one is not of ``types`` (an int
    second would come back a float, a float dim truncated)."""
    if not set(map(type, values)) <= set(types):
        raise ValueError(f"the column layout cannot hold a non-{what} value")
    return values


@dataclass(frozen=True, eq=False)
class Column:
    """The cells of one (device, transfer) sweep column as parallel
    arrays: int64 ``m``, ``n``, ``k``; float64 ``seconds`` and
    ``gflops``; int8 ``checks`` (-1 unknown, 0 failed, 1 passed).
    Equality is bit for bit: -0.0 is not 0.0, and a NaN equals only the
    same NaN payload."""

    device: DeviceKind
    transfer: Optional[TransferType]
    iterations: int
    m: np.ndarray
    n: np.ndarray
    k: np.ndarray
    seconds: np.ndarray
    gflops: np.ndarray
    checks: np.ndarray

    @classmethod
    def from_samples(cls, device, transfer, iterations,
                     samples: Sequence[PerfSample]) -> "Column":
        """The one place where per-cell samples become a column.  Raises
        ValueError for a sample of another device, transfer or iteration
        count than the column's, or a value of another type than its
        field declares."""
        cell = (device, transfer, iterations)
        if any((s.device, s.transfer, s.iterations) != cell for s in samples):
            raise ValueError(f"a sample in the {device.value}/{transfer} "
                             "column has another device, transfer or "
                             "iteration count")
        dims = [v for s in samples for v in (s.dims.m, s.dims.n, s.dims.k)]
        try:
            dims = np.array(_require(dims, (int,), "int dim"),
                            dtype=np.int64).reshape(-1, 3)
        except OverflowError:
            raise ValueError("a dim does not fit in int64") from None
        seconds, gflops = (
            np.array(_require([getattr(s, f) for s in samples], (float,),
                              "float"), dtype=np.float64)
            for f in ("seconds", "gflops")
        )
        checks = _require([s.checksum_ok for s in samples],
                          (bool, type(None)), "bool checksum")
        return cls(device, transfer, iterations, *dims.T, seconds, gflops,
                   np.array([_CHECK_CODE[c] for c in checks], dtype=np.int8))

    def __len__(self) -> int:
        return len(self.seconds)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return (self.device, self.transfer, self.iterations) == (
            other.device, other.transfer, other.iterations
        ) and all(getattr(self, f).tobytes() == getattr(other, f).tobytes()
                  for f in _ARRAYS)

    def same_sizes(self, other: "Column") -> bool:
        """Whether both columns sample the same dims in the same order."""
        return len(self) == len(other) and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in "mnk"
        )

    def dims_at(self, row: int) -> Dims:
        return Dims(int(self.m[row]), int(self.n[row]), int(self.k[row]))

    def samples(self) -> List[PerfSample]:
        """Every cell as a :class:`PerfSample`: the per-cell view."""
        cell = (self.device, self.transfer)
        return [
            PerfSample(*cell, Dims(m, n, k), self.iterations, s, g,
                       _CHECK_VALUE[c])
            for m, n, k, s, g, c in zip(
                *(getattr(self, f).tolist() for f in _ARRAYS))
        ]


@dataclass(eq=False)
class ProblemSeries:
    """One (kernel, problem type, precision, iterations) sweep: the CPU
    column (empty if ``None`` is given) and one GPU column per transfer
    paradigm, in insertion order.

    ``partial`` is set by the resilient runner when the sweep could not
    fill every requested cell — quarantined samples or device loss —
    so downstream consumers can distrust thresholds over gaps.
    Equality compares every column bit for bit, in column order.
    """

    problem_type: ProblemType
    precision: Precision
    iterations: int
    cpu: Optional[Column] = None
    gpu: Dict[Optional[TransferType], Column] = field(default_factory=dict)
    partial: bool = False

    def __post_init__(self) -> None:
        if self.cpu is None:
            self.cpu = Column.from_samples(DeviceKind.CPU, None,
                                           self.iterations, ())

    @classmethod
    def from_samples(cls, problem_type, precision, iterations,
                     samples: Iterable[PerfSample]) -> "ProblemSeries":
        """The series of per-cell samples: a GPU column per transfer in
        first-seen order, each list converted once."""
        cpu: List[PerfSample] = []
        gpu: Dict[Optional[TransferType], List[PerfSample]] = {}
        for s in samples:
            if s.device is DeviceKind.GPU:
                gpu.setdefault(s.transfer, []).append(s)
            else:
                cpu.append(s)
        return cls(problem_type, precision, iterations,
                   Column.from_samples(DeviceKind.CPU, None, iterations, cpu),
                   {t: Column.from_samples(DeviceKind.GPU, t, iterations, col)
                    for t, col in gpu.items()})

    @property
    def kernel(self) -> Kernel:
        return self.problem_type.kernel

    @property
    def ident(self) -> str:
        return self.problem_type.ident

    def transfer_types(self) -> tuple:
        return tuple(self.gpu)

    def columns(self) -> List[Column]:
        """The CPU column, then each GPU column in insertion order."""
        return [self.cpu, *self.gpu.values()]

    def all_samples(self) -> List[PerfSample]:
        """Every cell as a :class:`PerfSample`, in :meth:`columns` order."""
        return [s for column in self.columns() for s in column.samples()]

    def _identity(self) -> tuple:
        return (self.problem_type, self.precision, self.iterations,
                self.partial, list(self.gpu), self.columns())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProblemSeries):
            return NotImplemented
        return self._identity() == other._identity()


# -- the column codec ---------------------------------------------------


def encode_series(
    series_list: Sequence[ProblemSeries],
) -> Tuple[List[dict], bytes]:
    """Column metadata per series plus one little-endian byte string.

    Each series is one CPU column and one column per GPU transfer, in
    :meth:`ProblemSeries.columns` order.  The bytes are four arrays,
    every series in turn within each: int64 dims ``(D, 3)`` | float64
    seconds ``(N,)`` | float64 gflops ``(N,)`` | int8 checksum codes
    ``(N,)``.  Floats travel as raw bits, so a decoded series is
    bit-identical.  When every column of a series samples the same dims
    — a full sweep — its dims are stored once (``shared_dims``), else
    once per sample.
    """
    metas: List[dict] = []
    dims = [np.empty((0, 3), dtype=np.int64)]
    every_column: List[Column] = []
    for series in series_list:
        columns = series.columns()
        shared = all(columns[0].same_sizes(col) for col in columns[1:])
        dims += [np.stack((c.m, c.n, c.k), axis=1)
                 for c in (columns[:1] if shared else columns)]
        every_column += columns
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
    arrays = [np.concatenate(dims).astype("<i8", copy=False)] + [
        np.concatenate([np.empty(0, dtype)]
                       + [getattr(c, f) for c in every_column])
        .astype(dtype, copy=False)
        for f, dtype in (("seconds", "<f8"), ("gflops", "<f8"), ("checks", "i1"))
    ]
    return metas, b"".join(a.tobytes() for a in arrays)


def decode_series(metas: Sequence[dict], data) -> List[ProblemSeries]:
    """Inverse of :func:`encode_series`: each column's arrays are slices
    of ``data``, not copies.  Raises ``KeyError``, ``TypeError`` or
    ``ValueError`` when the metadata and the bytes do not describe each
    other."""
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
    dims = np.frombuffer(data, "<i8", total_dims * 3).reshape(-1, 3)
    offset = total_dims * 24
    seconds = np.frombuffer(data, "<f8", total, offset)
    gflops = np.frombuffer(data, "<f8", total, offset + total * 8)
    checks = np.frombuffer(data, "i1", total, offset + total * 16)
    if ((checks < -1) | (checks > 1)).any():
        raise KeyError("a checksum code outside -1/0/1")

    out: List[ProblemSeries] = []
    d0 = row = 0
    for meta, gpu, counts, shared, n_dims in layout:
        iterations = int(meta["iterations"])
        slots = [(DeviceKind.CPU, None)]
        slots += [(DeviceKind.GPU, t) for t, _ in gpu]
        columns = []
        start = d0
        for (device, transfer), count in zip(slots, counts):
            end = row + count
            columns.append(Column(
                device, transfer, iterations, *dims[start:start + count].T,
                seconds[row:end], gflops[row:end], checks[row:end],
            ))
            start += 0 if shared else count
            row = end
        d0 += n_dims
        out.append(ProblemSeries(
            problem_type=get_problem_type(Kernel(meta["kernel"]), meta["ident"]),
            precision=Precision(meta["precision"]),
            iterations=iterations,
            cpu=columns[0],
            gpu={t: col for (_, t), col in zip(slots[1:], columns[1:])},
            partial=bool(meta["partial"]),
        ))
    return out
