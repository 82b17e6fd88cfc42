"""Columnar series: one representation, read the same way everywhere.

A :class:`~repro.core.records.ProblemSeries` holds one set of column
arrays per (device, transfer).  A series built cell by cell (the DES,
host and fault-injection path) and one built from arrays (the batch
path) must be equal bit for bit, and every reader — the threshold
detector, the GPU win windows and the transfer comparison — must pair
CPU and GPU cells the same way on both: by size, skipping a size that
one side lacks.  Each reader is checked against a per-sample reference
written here, a dict by dims plus :func:`find_offload_threshold`.
"""

from __future__ import annotations

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.compare import compare_transfers, gpu_win_windows
from repro.core.problem import get_problem_type
from repro.core.records import Column, PerfSample, ProblemSeries
from repro.core.threshold import find_offload_threshold, threshold_for_series
from repro.errors import PartialSweepWarning
from repro.types import DeviceKind, Dims, Kernel, Precision, TransferType

SQUARE = get_problem_type(Kernel.GEMM, "square")


def _cells(device, transfer, seconds_by_size) -> list:
    """One sample per ``{size: seconds}`` entry, in ascending size."""
    return [
        PerfSample(device, transfer, Dims(s, s, s), 8, seconds, 1.0 / seconds,
                   True)
        for s, seconds in sorted(seconds_by_size.items())
    ]


def _per_cell(cpu: dict, gpu: dict) -> ProblemSeries:
    """The series the per-cell path builds: one list of samples."""
    samples = _cells(DeviceKind.CPU, None, cpu)
    for transfer, seconds_by_size in gpu.items():
        samples += _cells(DeviceKind.GPU, transfer, seconds_by_size)
    return ProblemSeries.from_samples(SQUARE, Precision.SINGLE, 8, samples)


def _as_columns(cpu: dict, gpu: dict) -> ProblemSeries:
    """The same series as a batch backend fills it: arrays, no samples."""

    def column(device, transfer, seconds_by_size):
        sizes = np.array(sorted(seconds_by_size), dtype=np.int64)
        seconds = np.array([seconds_by_size[s] for s in sizes.tolist()])
        return Column(device, transfer, 8, sizes, sizes, sizes.copy(),
                      seconds, 1.0 / seconds,
                      np.ones(len(sizes), dtype=np.int8))

    return ProblemSeries(
        SQUARE, Precision.SINGLE, 8, column(DeviceKind.CPU, None, cpu),
        {t: column(DeviceKind.GPU, t, g) for t, g in gpu.items()},
    )


# -- the per-sample reference -------------------------------------------


def _pairs(series: ProblemSeries, transfer):
    """(dims, cpu seconds, gpu seconds) of every size both sides hold."""
    gpu = {s.dims: s for s in series.all_samples()
           if s.device is DeviceKind.GPU and s.transfer is transfer}
    return [
        (c.dims, c.seconds, gpu[c.dims].seconds)
        for c in series.all_samples()
        if c.device is DeviceKind.CPU and c.dims in gpu
    ]


def _reference_threshold(series, transfer, min_consecutive):
    pairs = _pairs(series, transfer)
    return find_offload_threshold(
        [d for d, _, _ in pairs], [c for _, c, _ in pairs],
        [g for _, _, g in pairs], min_consecutive,
    )


def _reference_windows(series, transfer):
    windows, run = [], []
    for dims, cpu, gpu in _pairs(series, transfer) + [(None, 0.0, 1.0)]:
        if gpu < cpu:
            run.append(dims)
            continue
        if len(run) >= 2:
            windows.append((run[0], run[-1]))
        run = []
    return windows


def _reference_comparison(series):
    tables = {}
    for s in series.all_samples():
        if s.device is DeviceKind.GPU:
            tables.setdefault(s.transfer, {})[s.dims] = s.gflops
    if not tables:
        return []
    common = set.intersection(*map(set, tables.values()))
    return [
        (dims, {t: table[dims] for t, table in tables.items()})
        for dims in sorted(common)
    ]


def _readers(series, min_consecutive):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PartialSweepWarning)
        thresholds = [
            threshold_for_series(series, t, min_consecutive)
            for t in series.transfer_types()
        ]
    return (
        thresholds,
        [gpu_win_windows(series, t) for t in series.transfer_types()],
        [(c.dims, c.gflops) for c in compare_transfers(series)],
    )


curve = st.dictionaries(
    st.integers(1, 12), st.sampled_from([0.5, 1.0, 2.0]), max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(
    cpu=curve,
    # the per-cell path opens a GPU column at its first sample
    gpu=st.dictionaries(st.sampled_from(list(TransferType)),
                        curve.filter(bool), max_size=3),
    min_consecutive=st.integers(1, 3),
)
def test_readers_agree_on_both_forms_and_the_per_sample_reference(
    cpu, gpu, min_consecutive
):
    cells, columns = _per_cell(cpu, gpu), _as_columns(cpu, gpu)
    assert cells == columns
    got = _readers(cells, min_consecutive)
    assert _readers(columns, min_consecutive) == got
    thresholds, windows, comparison = got
    transfers = cells.transfer_types()
    assert thresholds == [
        _reference_threshold(cells, t, min_consecutive) for t in transfers
    ]
    assert windows == [_reference_windows(cells, t) for t in transfers]
    assert comparison == _reference_comparison(cells)
    for found in thresholds:
        if found:
            assert type(found.dims.m) is int and type(found.index) is int


# -- a missing GPU cell bridges a window, as it does the threshold -----


@pytest.mark.parametrize("wins, missing, window", [
    (range(3, 9), 4, (3, 8)),
    (range(3, 8), 5, (3, 7)),
])
def test_a_missing_gpu_cell_bridges_a_win_window(wins, missing, window):
    gpu = {s: 0.5 if s in wins else 2.0 for s in range(1, 9) if s != missing}
    series = _as_columns(dict.fromkeys(range(1, 9), 1.0),
                         {TransferType.ONCE: gpu})
    with pytest.warns(PartialSweepWarning, match="1 of 8 sizes"):
        found = threshold_for_series(series, TransferType.ONCE)
    assert found.dims == Dims(3, 3, 3)
    first, last = window
    assert gpu_win_windows(series, TransferType.ONCE) == [
        (Dims(first, first, first), Dims(last, last, last))
    ]


# -- equality is a bool, bit for bit ------------------------------------


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _one_cell(seconds: float, partial: bool = False) -> ProblemSeries:
    series = _per_cell({1: 1.0}, {TransferType.ONCE: {1: 1.0}})
    series.cpu = Column.from_samples(DeviceKind.CPU, None, 8, [
        PerfSample(DeviceKind.CPU, None, Dims(1, 1, 1), 8, seconds, 1.0)
    ])
    series.partial = partial
    return series


def test_series_equality_is_a_bool_and_compares_bits():
    quiet_nan, other_nan = _float(0x7FF8000000000000), _float(0x7FF8000000000001)
    assert math.isnan(quiet_nan) and math.isnan(other_nan)
    assert (_one_cell(1.0) == _one_cell(1.0)) is True
    assert (_one_cell(0.0) == _one_cell(-0.0)) is False
    assert (_one_cell(quiet_nan) == _one_cell(quiet_nan)) is True
    assert (_one_cell(quiet_nan) == _one_cell(other_nan)) is False
    assert (_one_cell(1.0) == _one_cell(1.0, partial=True)) is False
    assert (_one_cell(1.0) != _one_cell(-0.0)) is True
    gpu = {TransferType.ONCE: {1: 1.0}, TransferType.ALWAYS: {1: 1.0}}
    reordered = dict(reversed(gpu.items()))
    assert (_per_cell({}, gpu) == _per_cell({}, reordered)) is False
    assert [_one_cell(1.0)] == [_one_cell(1.0)]  # list compare needs a bool
    assert (_per_cell({1: 1.0}, gpu) == _as_columns({1: 1.0}, gpu)) is True
