"""Artifact-style CSV persistence for sweep results.

One file per (precision, kernel, problem type) series, named like the
GPU-BLOB artifact's outputs (``sgemm_square_i8.csv``), with one row per
timed sample.  ``read_samples``/``read_run_dir`` round-trip everything
``write_run`` produces.  Runs with a non-empty quarantine list also get
a ``quarantine.json`` report, so partial sweeps are auditable from the
output directory alone.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterator, List, Optional

from ..types import DeviceKind, Dims, TransferType
from .records import PerfSample, ProblemSeries

__all__ = [
    "FIELDNAMES",
    "QUARANTINE_FILENAME",
    "read_samples",
    "read_run_dir",
    "series_filename",
    "series_rows",
    "write_quarantine",
    "write_run",
    "write_series",
]

QUARANTINE_FILENAME = "quarantine.json"

FIELDNAMES = (
    "device", "transfer", "kernel", "problem_type",
    "m", "n", "k", "iterations", "seconds", "gflops", "checksum_ok",
)


def series_filename(series: ProblemSeries) -> str:
    """``{s|d|h|bf16}{gemm|gemv}_{ident}_i{iterations}.csv``"""
    blas = series.precision.blas_prefix + series.kernel.value
    return f"{blas}_{series.ident}_i{series.iterations}.csv"


def series_rows(series: ProblemSeries) -> Iterator[tuple]:
    """The cells of each CSV row of ``series`` in :data:`FIELDNAMES`
    order, column by column.  ``csv.writer`` stringifies every cell, so
    their ``str`` is the byte-level contract of a row: the serving
    daemon builds its ``series`` payloads from these rows, which keeps a
    cached API response byte-identical to the CLI's CSV output."""
    kernel, ident = series.kernel.value, series.ident
    for col in series.columns():
        fixed = (col.device.value, col.transfer.value if col.transfer else "",
                 kernel, ident)
        for m, n, k, seconds, gflops, check in zip(*(
            getattr(col, f).tolist()
            for f in ("m", "n", "k", "seconds", "gflops", "checks")
        )):
            yield (*fixed, m, n, k, col.iterations, repr(seconds),
                   repr(gflops), "" if check < 0 else check)


def write_series(series: ProblemSeries, path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FIELDNAMES)
        writer.writerows(series_rows(series))
    return path


def write_quarantine(result, path) -> Path:
    """JSON report of every quarantined cell of a run."""
    path = Path(path)
    path.write_text(json.dumps(result.quarantine_report(), indent=2) + "\n")
    return path


def write_run(result, directory) -> List[Path]:
    """Write every series of a run (plus a ``quarantine.json`` report
    when the run quarantined samples); returns the files written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = [
        write_series(series, directory / series_filename(series))
        for series in result.series
    ]
    if getattr(result, "quarantine", None):
        paths.append(
            write_quarantine(result, directory / QUARANTINE_FILENAME)
        )
    return paths


def _parse_sample(row: dict) -> PerfSample:
    dims = Dims(int(row["m"]), int(row["n"]), int(row["k"]))
    transfer: Optional[TransferType] = (
        TransferType(row["transfer"]) if row["transfer"] else None
    )
    checksum_ok = None if row["checksum_ok"] == "" else bool(int(row["checksum_ok"]))
    return PerfSample(
        device=DeviceKind(row["device"]),
        transfer=transfer,
        dims=dims,
        iterations=int(row["iterations"]),
        seconds=float(row["seconds"]),
        gflops=float(row["gflops"]),
        checksum_ok=checksum_ok,
    )


def read_samples(path) -> List[PerfSample]:
    """All samples of one series file, in file order."""
    with Path(path).open(newline="") as fh:
        return [_parse_sample(row) for row in csv.DictReader(fh)]


def read_run_dir(directory) -> dict:
    """Every ``*.csv`` under ``directory``, keyed by file stem."""
    return {
        p.stem: read_samples(p)
        for p in sorted(Path(directory).glob("*.csv"))
    }
