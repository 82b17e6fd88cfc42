"""Batch analytic path: each array value equals its per-element call.

Every closed form has one array implementation; the scalar API
(``cpu_time``/``gpu_time`` on the model, ``cpu_sample``/``gpu_sample``
on the analytic backend) prices a batch of one through it.  So every
value of a many-cell batch must equal the per-element scalar call
*bitwise* — not approximately: no element may depend on its
neighbours or on the batch length.  Hypothesis drives random shapes,
systems, iteration counts and paradigms at that exact bar.
``tests/test_model_pins.py`` pins the values themselves.

Also pins the noise draw's memo: a cached draw must equal its uncached
computation.
"""

from __future__ import annotations

import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AnalyticBackend, make_model, run_sweep
from repro.core.config import RunConfig
from repro.sim.noise import DeterministicNoise, _crc_unit
from repro.systems.catalog import system_names
from repro.types import ALL_PRECISIONS, Dims, TransferType

MODELS = {name: make_model(name) for name in system_names()}

dims_gemm = st.tuples(
    st.integers(1, 4096), st.integers(1, 4096), st.integers(1, 4096)
).map(lambda t: Dims(*t))
dims_gemv = st.tuples(st.integers(1, 4096), st.integers(1, 4096)).map(
    lambda t: Dims(*t)
)
dims_batches = st.one_of(
    st.lists(dims_gemm, min_size=1, max_size=24),
    st.lists(dims_gemv, min_size=1, max_size=24),
)


@settings(max_examples=60, deadline=None)
@given(
    dims_list=dims_batches,
    system=st.sampled_from(sorted(MODELS)),
    precision=st.sampled_from(ALL_PRECISIONS),
    iterations=st.sampled_from((1, 8, 32, 128)),
    beta=st.sampled_from((0.0, 1.0)),
)
def test_cpu_batch_bitwise_equals_scalar(
    dims_list, system, precision, iterations, beta
):
    model = MODELS[system]
    batch = model.cpu_time_batch(
        dims_list, precision, iterations, beta=beta
    )
    for dims, got in zip(dims_list, batch):
        want = model.cpu_time(dims, precision, iterations, beta=beta)
        assert float(got) == want  # bitwise, not approximate


@settings(max_examples=60, deadline=None)
@given(
    dims_list=dims_batches,
    system=st.sampled_from(sorted(MODELS)),
    precision=st.sampled_from(ALL_PRECISIONS),
    iterations=st.sampled_from((1, 8, 128)),
    transfer=st.sampled_from(tuple(TransferType)),
    beta=st.sampled_from((0.0, 1.0)),
)
def test_gpu_batch_bitwise_equals_scalar(
    dims_list, system, precision, iterations, transfer, beta
):
    model = MODELS[system]
    if not model.has_gpu:
        return
    batch = model.gpu_time_batch(
        dims_list, precision, iterations, transfer, beta=beta
    )
    for dims, got in zip(dims_list, batch):
        want = model.gpu_time(dims, precision, iterations, transfer, beta=beta)
        assert float(got) == want


@settings(max_examples=25, deadline=None)
@given(
    dims_list=dims_batches,
    precision=st.sampled_from(ALL_PRECISIONS),
    iterations=st.sampled_from((1, 8)),
)
def test_backend_sample_batch_equals_scalar_samples(
    dims_list, precision, iterations
):
    backend = AnalyticBackend(MODELS["dawn"])
    kernel = dims_list[0].kernel
    batch = backend.cpu_sample_batch(kernel, dims_list, precision, iterations)
    for dims, got in zip(dims_list, batch):
        assert got == backend.cpu_sample(kernel, dims, precision, iterations)
    for transfer in TransferType:
        batch = backend.gpu_sample_batch(
            kernel, dims_list, precision, iterations, transfer
        )
        for dims, got in zip(dims_list, batch):
            assert got == backend.gpu_sample(
                kernel, dims, precision, iterations, transfer
            )


def test_vectorized_sweep_equals_scalar_reference_sweep():
    """End-to-end: the runner's fast path reproduces the per-cell loop."""

    class ScalarOnly:
        def __init__(self, inner):
            self._inner = inner

        def __getattr__(self, name):
            if name.endswith("_batch"):
                raise AttributeError(name)
            return getattr(self._inner, name)

        @property
        def gpu_transfers(self):
            return self._inner.gpu_transfers

        @property
        def has_gpu(self):
            return self._inner.has_gpu

    config = RunConfig(max_dim=192, step=16, iterations=8)
    backend = AnalyticBackend(MODELS["lumi"])
    ref = run_sweep(ScalarOnly(backend), config, "lumi")
    fast = run_sweep(backend, config, "lumi")
    assert fast.series == ref.series
    assert fast == ref


# -- memoization satellites -------------------------------------------


def test_noise_crc_cache_matches_direct_draw():
    key = ("gpu", "once", (64, 64, 64), "single", 8)
    direct = zlib.crc32(repr((3,) + key).encode()) / 0xFFFFFFFF
    assert _crc_unit(3, key) == direct
    noise = DeterministicNoise(amplitude=0.02, seed=3)
    assert noise.factor(key) == 1.0 + 0.02 * (2.0 * direct - 1.0)
    assert float(noise.factor_batch([key])[0]) == noise.factor(key)
