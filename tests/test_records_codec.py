"""The column codec: every series crosses a process or the disk intact.

:func:`repro.core.records.encode_series` is the payload of sweep-cache
entries, dist result shards and pool shared-memory segments.  A series
must come back bit for bit — floats compared by their bits, so -0.0,
subnormals, infinities and NaN payloads count — with its column order.
A sample the column layout cannot hold must be refused where per-cell
samples become a column (:meth:`Column.from_samples`), never altered.
"""

from __future__ import annotations

import math
import struct
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AnalyticBackend, make_model, run_sweep
from repro.core.config import RunConfig
from repro.core.problem import get_problem_type, problem_idents
from repro.core.records import (
    Column,
    PerfSample,
    ProblemSeries,
    decode_series,
    encode_series,
)
from repro.core.runner import (
    RunResult,
    _decode_shard_result,
    _pack_shard_result,
)
from repro.core.sweepcache import load_cached_run, store_run
from repro.dist.worker import load_result_shard, write_result_shard
from repro.types import DeviceKind, Dims, Kernel, Precision, TransferType

CONFIG = RunConfig(
    max_dim=64, step=16, iterations=8,
    kernels=(Kernel.GEMM, Kernel.GEMV), precisions=(Precision.SINGLE,),
)
INT64 = st.integers(-(2**63), 2**63 - 1)
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072e-308,
                     math.inf, -math.inf, math.nan, -math.nan]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
PROBLEMS = [
    get_problem_type(kernel, ident)
    for kernel in Kernel for ident in problem_idents(kernel)
]


class TokenBackend:
    """Just enough of a backend for the sweep cache to key an entry."""

    cache_token = "codec-round-trip"


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _view(series: ProblemSeries) -> tuple:
    """Everything a series holds, floats as bits, column order kept."""

    def column(col):
        return [
            (s.device, s.transfer, s.dims, s.iterations, _bits(s.seconds),
             _bits(s.gflops), repr(s.checksum_ok))
            for s in col.samples()
        ]

    return (
        series.problem_type, series.precision, series.iterations,
        series.partial, column(series.cpu),
        [(t, column(col)) for t, col in series.gpu.items()],
    )


@st.composite
def series_strategy(draw) -> ProblemSeries:
    iterations = draw(st.integers(1, 2**31))
    series = ProblemSeries(
        problem_type=draw(st.sampled_from(PROBLEMS)),
        precision=draw(st.sampled_from(list(Precision))),
        iterations=iterations,
        partial=draw(st.booleans()),
    )
    transfers = draw(st.lists(
        st.sampled_from([*TransferType, None]), unique=True, max_size=4,
    ))
    dims_list = st.lists(
        st.builds(Dims, INT64, INT64, INT64), max_size=5,
    )
    shared = draw(dims_list) if draw(st.booleans()) else None

    def column(device, transfer):
        dims = shared if shared is not None else draw(dims_list)
        return Column.from_samples(device, transfer, iterations, [
            PerfSample(device, transfer, d, iterations, draw(FLOATS),
                       draw(FLOATS), draw(st.sampled_from([None, False, True])))
            for d in dims
        ])

    series.cpu = column(DeviceKind.CPU, None)
    for transfer in transfers:
        series.gpu[transfer] = column(DeviceKind.GPU, transfer)
    return series


@settings(deadline=None)
@given(st.lists(series_strategy(), max_size=3))
def test_codec_round_trips_any_series_bit_for_bit(series_list):
    metas, data = encode_series(series_list)
    decoded = decode_series(metas, data)
    assert [_view(s) for s in decoded] == [_view(s) for s in series_list]


def _sweep_series():
    backend = AnalyticBackend(make_model("dawn"))
    return run_sweep(backend, CONFIG, "dawn").series


def _odd_series():
    """Columns that do not share dims, an empty column, and floats JSON
    cannot hold."""
    square = get_problem_type(Kernel.GEMM, "square")
    cpu = [
        PerfSample(DeviceKind.CPU, None, Dims(i + 1, 2, 3), 8, seconds,
                   gflops, [None, False, True][i])
        for i, (seconds, gflops) in enumerate([
            (-0.0, 5e-324), (math.inf, math.nan), (1.5e-300, -math.inf),
        ])
    ]
    once = [PerfSample(DeviceKind.GPU, TransferType.ONCE, Dims(7, 7, 7), 8,
                       2.0, 3.0, True)]
    return [ProblemSeries(
        square, Precision.DOUBLE, 8,
        cpu=Column.from_samples(DeviceKind.CPU, None, 8, cpu),
        gpu={
            TransferType.ALWAYS: Column.from_samples(
                DeviceKind.GPU, TransferType.ALWAYS, 8, []),
            TransferType.ONCE: Column.from_samples(
                DeviceKind.GPU, TransferType.ONCE, 8, once),
        },
        partial=True,
    )]


def _through_cache(series_list, tmp):
    result = RunResult(CONFIG, "dawn", series=series_list)
    assert store_run(tmp, TokenBackend(), result) is not None
    return load_cached_run(tmp, CONFIG, "dawn", TokenBackend()).series


def _through_shard(series_list, tmp):
    write_result_shard(tmp, "0123456789abcdef", RunResult(
        CONFIG, "dawn", series=series_list,
    ))
    return load_result_shard(tmp, "0123456789abcdef", CONFIG, "dawn").series


def _through_shm(series_list, tmp):
    out = []
    for series in series_list:
        outcome = _pack_shard_result(series, RunResult(CONFIG, "dawn"))
        assert outcome[0] == "shm"
        out.append(_decode_shard_result(outcome)[0])
    return out


@pytest.mark.parametrize("source", [_sweep_series, _odd_series])
@pytest.mark.parametrize(
    "transport", [_through_cache, _through_shard, _through_shm],
)
def test_every_transport_reproduces_the_series(source, transport):
    series_list = source()
    with tempfile.TemporaryDirectory() as tmp:
        back = transport(series_list, tmp)
    assert [_view(s) for s in back] == [_view(s) for s in series_list]


def _column_with(sample, column=DeviceKind.CPU) -> Column:
    """The 8-iteration column holding ``sample``: the CPU column, or the
    GPU column of that transfer."""
    if column is DeviceKind.CPU:
        return Column.from_samples(DeviceKind.CPU, None, 8, [sample])
    return Column.from_samples(DeviceKind.GPU, column, 8, [sample])


def _sample(**changes) -> PerfSample:
    fields = dict(device=DeviceKind.CPU, transfer=None, dims=Dims(4, 4, 4),
                  iterations=8, seconds=1.0, gflops=2.0, checksum_ok=True)
    fields.update(changes)
    return PerfSample(**fields)


@pytest.mark.parametrize("sample, column", [
    (_sample(iterations=4), DeviceKind.CPU),
    (_sample(device=DeviceKind.GPU), DeviceKind.CPU),  # GPU sample, CPU column
    (_sample(device=DeviceKind.GPU, transfer=TransferType.ALWAYS),
     TransferType.ONCE),
    (_sample(seconds=1), DeviceKind.CPU),  # an int would come back 1.0
    (_sample(gflops="2.0"), DeviceKind.CPU),
    (_sample(dims=Dims(1.5, 4, 4)), DeviceKind.CPU),
    (_sample(dims=Dims(2**63, 4, 4)), DeviceKind.CPU),
    (_sample(checksum_ok=1), DeviceKind.CPU),
], ids=["iterations", "device", "transfer", "int-seconds", "str-gflops",
        "float-dim", "int64-overflow", "int-checksum"])
def test_a_series_the_layout_cannot_hold_is_refused(sample, column):
    with pytest.raises(ValueError):
        _column_with(sample, column)


def test_bytes_that_do_not_match_the_metadata_are_refused():
    metas, data = encode_series(_sweep_series())
    with pytest.raises(ValueError):
        decode_series(metas, data[:-1])
    lopsided = dict(metas[0], cpu=metas[0]["cpu"] - 1)
    with pytest.raises(ValueError):
        decode_series([lopsided] + metas[1:], data)
    with pytest.raises(KeyError):  # a checksum code outside -1/0/1
        decode_series(metas, data[:-1] + b"\x05")
