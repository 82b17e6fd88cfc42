"""End-to-end engine behaviour: models, runner, thresholds, invariants.

Small strided sweeps keep this tier-1 fast while still exercising the
paper's qualitative structure.
"""

from __future__ import annotations

import pytest

from repro import (
    AnalyticBackend,
    Kernel,
    Precision,
    RunConfig,
    TransferType,
    make_model,
    run_sweep,
    system_names,
    threshold_for_series,
)
from repro.errors import UnknownSystemError


@pytest.fixture(scope="module")
def sweeps():
    """(system, iterations) -> RunResult for a fast strided square sweep."""
    out = {}
    for system in system_names():
        backend = AnalyticBackend(make_model(system))
        for i in (1, 128):
            out[(system, i)] = run_sweep(
                backend, RunConfig(max_dim=2048, iterations=i, step=16)
            )
    return out


def _thr(sweeps, system, i, kernel, precision, transfer):
    series = sweeps[(system, i)].series_for(kernel, "square", precision)
    return threshold_for_series(series, transfer)


def test_catalog_knows_the_three_paper_systems():
    assert {"dawn", "lumi", "isambard-ai"} <= set(system_names())


def test_unknown_system_raises():
    with pytest.raises(UnknownSystemError):
        make_model("frontier")


def test_run_sweep_produces_one_series_per_problem_and_precision(sweeps):
    result = sweeps[("dawn", 1)]
    # (GEMM square + GEMV square) x (single, double)
    assert len(result.series) == 4
    assert result.system_name == "dawn"
    for series in result.series:
        assert len(series.cpu)
        for t in TransferType:
            assert series.cpu.same_sizes(series.gpu[t])


def test_cpu_time_scales_with_work():
    from repro.types import Dims

    model = make_model("dawn")
    small = model.cpu_time(Dims(64, 64, 64), Precision.SINGLE)
    large = model.cpu_time(Dims(1024, 1024, 1024), Precision.SINGLE)
    assert 0 < small < large


def test_gpu_time_orders_transfers_at_high_reuse():
    from repro.types import Dims

    model = make_model("lumi")
    dims = Dims(1024, 1024, 1024)
    once = model.gpu_time(dims, Precision.SINGLE, 128, TransferType.ONCE)
    always = model.gpu_time(dims, Precision.SINGLE, 128, TransferType.ALWAYS)
    assert once < always  # re-sending operands every pass must cost more


# -- the paper's four qualitative invariants ------------------------------


@pytest.mark.parametrize("system", ("dawn", "lumi", "isambard-ai"))
def test_invariant_transfer_once_threshold_shrinks_with_reuse(sweeps, system):
    lo = _thr(sweeps, system, 1, Kernel.GEMM, Precision.SINGLE, TransferType.ONCE)
    hi = _thr(sweeps, system, 128, Kernel.GEMM, Precision.SINGLE, TransferType.ONCE)
    assert lo.found and hi.found
    assert hi.dims.m < lo.dims.m


@pytest.mark.parametrize("system", ("dawn", "lumi", "isambard-ai"))
def test_invariant_transfer_always_threshold_rises_with_reuse(sweeps, system):
    lo = _thr(sweeps, system, 1, Kernel.GEMM, Precision.SINGLE, TransferType.ALWAYS)
    hi = _thr(sweeps, system, 128, Kernel.GEMM, Precision.SINGLE, TransferType.ALWAYS)
    assert lo.found
    assert not hi.found or hi.dims.m > lo.dims.m


@pytest.mark.parametrize("system", ("dawn", "lumi", "isambard-ai"))
@pytest.mark.parametrize("precision", (Precision.SINGLE, Precision.DOUBLE))
def test_invariant_square_gemv_never_offloads_transfer_always(
    sweeps, system, precision
):
    for i in (1, 128):
        r = _thr(sweeps, system, i, Kernel.GEMV, precision, TransferType.ALWAYS)
        assert not r.found


@pytest.mark.parametrize("i", (1, 128))
def test_invariant_isambard_has_lowest_gemm_thresholds(sweeps, i):
    isam = _thr(sweeps, "isambard-ai", i, Kernel.GEMM, Precision.SINGLE,
                TransferType.ONCE)
    assert isam.found
    for other in ("dawn", "lumi"):
        r = _thr(sweeps, other, i, Kernel.GEMM, Precision.SINGLE,
                 TransferType.ONCE)
        assert not r.found or isam.dims.m <= r.dims.m


# -- the discrete-event backend -------------------------------------------


def test_des_backend_is_no_longer_deferred():
    from repro.backends.simulated import DesBackend

    backend = DesBackend(make_model("dawn"))
    assert backend.has_gpu
    assert backend.system_name == "dawn"
