"""Parallel sweep executor: jobs=N must be bit-identical to serial.

The executor shards (problem type, precision) series across a process
pool and merges in submission order; nothing about the numbers may
change.  These tests compare full :class:`RunResult` equality *and* the
written CSV bytes for every table-style configuration (at a reduced
sweep range), plus a resumed run whose journal mixes serial and
parallel segments.
"""

from __future__ import annotations

import warnings

import pytest

from repro import AnalyticBackend, make_model, run_sweep
from repro.backends.des import DesBackend
from repro.core.config import RunConfig
from repro.core.csvio import write_run
from repro.errors import PartialSweepWarning
from repro.types import Kernel, Precision

MODEL = make_model("dawn")

#: reduced-range stand-ins for the Table III–VI sweep configurations
TABLE_CONFIGS = {
    "table3": RunConfig(
        max_dim=96, step=16, iterations=8,
        kernels=(Kernel.GEMM,), problem_idents=("square",),
    ),
    "table4": RunConfig(
        max_dim=96, step=16, iterations=8,
        kernels=(Kernel.GEMV,), problem_idents=("square",),
    ),
    "table5": RunConfig(
        max_dim=96, step=16, iterations=8, kernels=(Kernel.GEMM,),
        problem_idents=("mn_k32", "mn32_k", "mk32_n", "kn32_m"),
    ),
    "table6": RunConfig(
        max_dim=96, step=16, iterations=8, kernels=(Kernel.GEMV,),
        problem_idents=("m32_n", "n32_m"),
    ),
}


def _csv_bytes(result, out_dir):
    paths = write_run(result, out_dir)
    return {p.name: p.read_bytes() for p in paths}


@pytest.mark.parametrize("table", sorted(TABLE_CONFIGS))
def test_parallel_csvs_byte_identical_to_serial(table, tmp_path):
    config = TABLE_CONFIGS[table]
    backend = AnalyticBackend(MODEL)
    serial = run_sweep(backend, config, "dawn")
    parallel = run_sweep(backend, config, "dawn", jobs=4)
    assert parallel == serial
    assert _csv_bytes(parallel, tmp_path / "par") == _csv_bytes(
        serial, tmp_path / "ser"
    )


def test_parallel_series_order_matches_serial():
    config = RunConfig(
        max_dim=64, step=16, iterations=1,
        problem_idents=("square", "mn_k32", "m32_n"),
    )
    backend = AnalyticBackend(MODEL)
    serial = run_sweep(backend, config, "dawn")
    parallel = run_sweep(backend, config, "dawn", jobs=3)
    assert [
        (s.kernel, s.ident, s.precision) for s in parallel.series
    ] == [(s.kernel, s.ident, s.precision) for s in serial.series]


def test_des_backend_series_parallelize():
    """The DES engine stays serial within a series, but series still
    shard across workers."""
    config = RunConfig(
        max_dim=48, step=16, iterations=4,
        precisions=(Precision.SINGLE,),
    )
    backend = DesBackend(make_model("lumi"))
    serial = run_sweep(backend, config, "lumi")
    parallel = run_sweep(backend, config, "lumi", jobs=2)
    assert parallel == serial


def test_resumed_run_mixing_serial_and_parallel_segments(tmp_path):
    """Journal half the sweep serially, finish it with jobs=4, and the
    merged result (and its journal-replayed twin) must equal a straight
    serial run."""
    config = RunConfig(max_dim=64, step=16, iterations=8)
    backend = AnalyticBackend(MODEL)
    reference = run_sweep(backend, config, "dawn")

    class Interrupting:
        """Stops the sweep partway through by raising on the Nth call."""

        def __init__(self, inner, fail_after):
            self._inner = inner
            self._calls = 0
            self._fail_after = fail_after

        def __getattr__(self, name):
            if name.endswith("_batch"):
                raise AttributeError(name)  # per-cell path, exact counting
            return getattr(self._inner, name)

        @property
        def gpu_transfers(self):
            return self._inner.gpu_transfers

        @property
        def has_gpu(self):
            return self._inner.has_gpu

        def cpu_sample(self, *args, **kwargs):
            self._tick()
            return self._inner.cpu_sample(*args, **kwargs)

        def gpu_sample(self, *args, **kwargs):
            self._tick()
            return self._inner.gpu_sample(*args, **kwargs)

        def _tick(self):
            self._calls += 1
            if self._calls > self._fail_after:
                raise KeyboardInterrupt

    ck = tmp_path / "ck.jsonl"
    with pytest.raises(KeyboardInterrupt):
        run_sweep(Interrupting(backend, 25), config, "dawn", checkpoint=ck)

    finished = run_sweep(
        backend, config, "dawn", checkpoint=ck, resume=True, jobs=4
    )
    assert finished.stats.resumed_samples == 25
    assert finished == reference

    replayed = run_sweep(
        backend, config, "dawn", checkpoint=ck, resume=True
    )
    assert replayed == reference


def test_parallel_fault_injection_falls_back_to_serial():
    """jobs>1 with faults silently runs in-process — fault attempt
    counters are per-injector state that cannot shard."""
    from repro import ChaosPlan, FaultInjector, RetryPolicy

    config = RunConfig(
        max_dim=48, step=16, iterations=8, precisions=(Precision.SINGLE,),
    )
    plan = ChaosPlan.uniform(0.2, seed=13)
    retry = RetryPolicy(max_retries=2)

    def sweep(jobs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PartialSweepWarning)
            return run_sweep(
                FaultInjector(AnalyticBackend(MODEL), plan), config,
                "dawn", retry=retry, jobs=jobs,
            )

    assert sweep(4) == sweep(1)
