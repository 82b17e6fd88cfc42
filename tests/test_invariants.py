"""Model-invariant guard: honest models pass, implausible ones don't.

The guard must be *silent* on every calibrated system under every
backend (a false positive would poison CI), must reject a spec
calibrated above its own link bandwidth in strict mode, and must catch
a backend emitting physically impossible samples — faster than the
link-bandwidth floor or above the roofline.
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro import (
    AnalyticBackend,
    InvariantContext,
    ModelInvariantError,
    ModelInvariantWarning,
    RunConfig,
    check_samples,
    make_model,
    run_sweep,
    system_names,
    validate_spec,
)
from repro.backends.des import DesBackend
from repro.core.invariants import guard_samples, invariant_context
from repro.core.records import Column, PerfSample
from repro.sim.noise import DeterministicNoise
from repro.systems.catalog import get_system
from repro.types import DeviceKind, Dims, Kernel, Precision, TransferType

CONFIG = RunConfig(
    max_dim=96, step=16, iterations=8,
    kernels=(Kernel.GEMM, Kernel.GEMV),
    precisions=(Precision.SINGLE, Precision.DOUBLE),
)

STRICT = dataclasses.replace(CONFIG, validate=True)


def _bad_spec(name="dawn", **link_overrides):
    spec = get_system(name)
    return dataclasses.replace(
        spec, link=dataclasses.replace(spec.link, **link_overrides)
    )


# -- spec calibration audit -------------------------------------------


def test_every_catalog_spec_is_clean():
    for name in system_names():
        assert validate_spec(get_system(name)) == [], name


def test_spec_calibrated_above_its_link_bandwidth_is_flagged():
    bad = _bad_spec(staging_bw_scale=1.5)
    violations = validate_spec(bad)
    assert any("above the link peak" in v for v in violations)


def test_strict_sweep_rejects_bad_spec_before_sampling():
    backend = AnalyticBackend(make_model(_bad_spec(staging_bw_scale=1.5)))
    with pytest.raises(ModelInvariantError, match="above the link peak"):
        run_sweep(backend, STRICT, "dawn")


def test_default_mode_warns_once_and_completes():
    backend = AnalyticBackend(make_model(_bad_spec(staging_bw_scale=1.5)))
    with pytest.warns(ModelInvariantWarning, match="above the link peak"):
        result = run_sweep(backend, CONFIG, "dawn")
    assert result.complete


def test_negative_latency_and_nonfinite_peaks_are_flagged():
    assert any(
        "latency" in v for v in validate_spec(_bad_spec(latency_s=-1e-6))
    )
    assert validate_spec(_bad_spec(bw_gbs=float("nan")))


# -- honest sweeps stay silent ----------------------------------------


@pytest.mark.parametrize("system", ["dawn", "lumi", "isambard-ai"])
@pytest.mark.parametrize("backend_cls", [AnalyticBackend, DesBackend])
def test_honest_backends_never_trip_the_guard(system, backend_cls):
    model = make_model(system, noise=DeterministicNoise(amplitude=0.05))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ModelInvariantWarning)
        result = run_sweep(
            backend_cls(model),
            dataclasses.replace(STRICT, max_dim=64),
            system,
        )
    assert result.complete


def test_parallel_strict_sweep_matches_serial(tmp_path):
    model = make_model("dawn")
    serial = run_sweep(AnalyticBackend(model), STRICT, "dawn")
    parallel = run_sweep(AnalyticBackend(model), STRICT, "dawn", jobs=4)
    assert serial.series == parallel.series


# -- per-sample checks ------------------------------------------------


def _sample(seconds, gflops, device=DeviceKind.CPU, transfer=None,
            dims=Dims(64, 64, 64), iterations=8):
    return PerfSample(
        device=device, transfer=transfer, dims=dims,
        iterations=iterations, seconds=seconds, gflops=gflops,
    )


def test_nonfinite_and_nonpositive_samples_are_violations():
    ctx = InvariantContext()
    for s in (
        _sample(float("nan"), 1.0),
        _sample(0.0, 1.0),
        _sample(-1.0, 1.0),
        _sample(1.0, float("inf")),
        _sample(1.0, -2.0),
    ):
        assert check_samples([s], Precision.SINGLE, ctx), s
    assert not check_samples([_sample(1.0, 1.0)], Precision.SINGLE, ctx)


def test_link_bandwidth_floor_catches_impossible_transfer():
    ctx = invariant_context(AnalyticBackend(make_model("dawn")))
    dims = Dims(4096, 4096, 4096)
    # ~200 MB of operands through a ~64 GB/s link in a nanosecond
    cheat = _sample(
        1e-9, 1.0, device=DeviceKind.GPU, transfer=TransferType.ONCE,
        dims=dims,
    )
    violations = check_samples([cheat], Precision.SINGLE, ctx)
    assert violations and "link" in violations[0][1]


def test_roofline_ceiling_catches_impossible_rate():
    ctx = invariant_context(AnalyticBackend(make_model("dawn")))
    cheat = _sample(1.0, 1e9)  # an exaflop/s CPU
    violations = check_samples([cheat], Precision.DOUBLE, ctx)
    assert violations and "roofline" in violations[0][1]


def test_strict_guard_raises_default_guard_warns():
    ctx = InvariantContext()
    bad = [_sample(-1.0, 1.0)]
    with pytest.raises(ModelInvariantError, match="non-positive"):
        guard_samples(bad, Precision.SINGLE, ctx, strict=True)
    with pytest.warns(ModelInvariantWarning, match="non-positive"):
        guard_samples(bad, Precision.SINGLE, ctx, strict=False)


def test_vectorized_column_check_agrees_with_scalar():
    """On a column the guard vectorizes; the flagged cells must be
    identical to the per-sample reference."""
    ctx = invariant_context(AnalyticBackend(make_model("dawn")))
    samples = [
        _sample(
            1e-9 if i % 7 == 0 else 1.0,
            1.0,
            device=DeviceKind.GPU,
            transfer=TransferType.ONCE,
            dims=Dims(2048 + i, 2048 + i, 2048 + i),
        )
        for i in range(64)
    ]
    violations = check_samples(samples, Precision.SINGLE, ctx)
    assert violations  # the cheats are in there
    column = Column.from_samples(DeviceKind.GPU, TransferType.ONCE, 8, samples)
    with pytest.warns(ModelInvariantWarning) as caught:
        guard_samples(column, Precision.SINGLE, ctx, strict=False)
    assert [str(w.message) for w in caught] == [
        f"model invariant violated at {s.dims}: {reason}"
        for s, reason in violations
    ]


def test_backend_emitting_garbage_fails_strict_sweep():
    class Broken(AnalyticBackend):
        def cpu_sample(self, kernel, dims, precision, iterations,
                       alpha=1.0, beta=0.0):
            sample = super().cpu_sample(
                kernel, dims, precision, iterations, alpha, beta
            )
            return dataclasses.replace(sample, seconds=-sample.seconds)

    backend = Broken(make_model("dawn"))
    with pytest.raises(ModelInvariantError, match="non-positive"):
        run_sweep(backend, STRICT, "dawn")
    with pytest.warns(ModelInvariantWarning):
        result = run_sweep(Broken(make_model("dawn")), CONFIG, "dawn")
    assert result.complete  # non-strict keeps the samples, loudly
