"""CSV persistence round-trips (artifact-style outputs)."""

from __future__ import annotations

from repro.core.csvio import (
    FIELDNAMES,
    read_run_dir,
    read_samples,
    series_filename,
    write_run,
    write_series,
)
from repro.core.problem import get_problem_type
from repro.core.records import PerfSample, ProblemSeries
from repro.types import DeviceKind, Dims, Kernel, Precision, TransferType


def _series(iterations=8):
    samples = []
    for s in (16, 32, 64):
        dims = Dims(s, s, s)
        samples.append(
            PerfSample.from_seconds(
                DeviceKind.CPU, None, dims, iterations, 1.5e-6 * s,
                checksum_ok=True,
            )
        )
        for transfer in (TransferType.ONCE, TransferType.ALWAYS):
            samples.append(
                PerfSample.from_seconds(
                    DeviceKind.GPU, transfer, dims, iterations, 2.0e-6 * s
                )
            )
    return ProblemSeries.from_samples(
        get_problem_type(Kernel.GEMM, "square"), Precision.SINGLE,
        iterations, samples,
    )


def test_series_filename_matches_artifact_convention():
    assert series_filename(_series(8)) == "sgemm_square_i8.csv"
    gemv = ProblemSeries(
        problem_type=get_problem_type(Kernel.GEMV, "n16m"),
        precision=Precision.DOUBLE,
        iterations=128,
    )
    assert series_filename(gemv) == "dgemv_n16m_i128.csv"


def test_write_read_series_round_trip_is_exact(tmp_path):
    series = _series()
    path = write_series(series, tmp_path / "s.csv")
    restored = read_samples(path)
    assert restored == series.all_samples()  # exact: repr()-written floats


def test_round_trip_preserves_optional_fields(tmp_path):
    series = _series()
    restored = read_samples(write_series(series, tmp_path / "s.csv"))
    cpu = [r for r in restored if r.device is DeviceKind.CPU]
    gpu = [r for r in restored if r.device is DeviceKind.GPU]
    assert all(r.transfer is None and r.checksum_ok is True for r in cpu)
    assert all(r.transfer is not None and r.checksum_ok is None for r in gpu)


def test_csv_header_is_stable(tmp_path):
    path = write_series(_series(), tmp_path / "s.csv")
    header = path.read_text().splitlines()[0]
    assert header == ",".join(FIELDNAMES)


def test_write_run_and_read_run_dir(tmp_path):
    class FakeRun:
        series = [_series(1), _series(8)]

    paths = write_run(FakeRun(), tmp_path / "out")
    assert sorted(p.name for p in paths) == [
        "sgemm_square_i1.csv", "sgemm_square_i8.csv",
    ]
    table = read_run_dir(tmp_path / "out")
    assert set(table) == {"sgemm_square_i1", "sgemm_square_i8"}
    assert table["sgemm_square_i8"] == _series(8).all_samples()


def test_gflops_consistent_with_seconds():
    sample = _series().all_samples()[0]
    from repro.core.flops import flops_for

    expected = sample.iterations * flops_for(sample.dims) / sample.seconds / 1e9
    assert abs(sample.gflops - expected) < 1e-12 * expected
