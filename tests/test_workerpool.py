"""Warm worker pool: reuse, respawn after death, clean exit teardown.

The pool in :mod:`repro.core.workerpool` outlives individual sweeps —
these tests pin the lifecycle contract: consecutive ``run_sweep`` calls
reuse one spawn, a worker death retires the pool and the next sweep
respawns it transparently (still bit-identical), and a process that
used the pool exits promptly without hanging in atexit joins or in a
graceful shutdown.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro import AnalyticBackend, make_model, run_sweep
from repro.core import workerpool
from repro.core.config import RunConfig
from repro.core.csvio import write_run
from repro.types import Kernel

MODEL = make_model("dawn")
CONFIG = RunConfig(
    max_dim=96, step=16, iterations=8,
    kernels=(Kernel.GEMM, Kernel.GEMV), problem_idents=("square",),
)


def _csv_bytes(result, directory):
    return {p.name: p.read_bytes() for p in write_run(result, directory)}


def setup_function(_fn):
    # each test observes its own lifecycle counters from a cold pool
    workerpool.shutdown_all()
    workerpool.reset_stats()


def teardown_module(_module):
    workerpool.shutdown_all()


def test_pool_reused_across_sweeps(tmp_path):
    serial = run_sweep(AnalyticBackend(MODEL), CONFIG, "dawn")
    first = run_sweep(AnalyticBackend(MODEL), CONFIG, "dawn", jobs=2)
    second = run_sweep(AnalyticBackend(MODEL), CONFIG, "dawn", jobs=2)
    stats = workerpool.pool_stats()
    assert stats["spawns"] == 1
    assert stats["reuses"] >= 1
    assert stats["respawns"] == 0
    assert stats["shards_executed"] == 8  # 4 shards x 2 sweeps
    assert stats["pickle_fallbacks"] == 0
    assert stats["shm_bytes"] > 0
    assert first == serial and second == serial
    assert _csv_bytes(first, tmp_path / "a") == _csv_bytes(
        serial, tmp_path / "b"
    )


def test_worker_death_retries_and_respawns_warm_pool(tmp_path, monkeypatch):
    serial = run_sweep(AnalyticBackend(MODEL), CONFIG, "dawn")
    monkeypatch.setenv("REPRO_CHAOS_KILL_SHARD", "0")
    chaos = run_sweep(AnalyticBackend(MODEL), CONFIG, "dawn", jobs=2)
    assert chaos.complete
    assert chaos.stats.worker_retries >= 1
    monkeypatch.delenv("REPRO_CHAOS_KILL_SHARD")
    # the poisoned pool was retired; the next sweep respawns it warm
    # and keeps reusing it afterwards
    after = run_sweep(AnalyticBackend(MODEL), CONFIG, "dawn", jobs=2)
    stats = workerpool.pool_stats()
    assert stats["retired"] >= 1
    assert stats["respawns"] >= 1
    assert after == serial
    assert _csv_bytes(chaos, tmp_path / "a") == _csv_bytes(
        serial, tmp_path / "b"
    )
    assert _csv_bytes(after, tmp_path / "c") == _csv_bytes(
        serial, tmp_path / "d"
    )


def test_interpreter_exits_cleanly_with_live_pool():
    """A process that ran a parallel sweep and never shut the warm pool
    down must still exit promptly (the module's exit hook runs before
    concurrent.futures' join — a hang here would deadlock every CLI
    invocation that used jobs=N)."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "from repro import AnalyticBackend, make_model, run_sweep\n"
        "from repro.core.config import RunConfig\n"
        "from repro.core import workerpool\n"
        "from repro.types import Kernel\n"
        "config = RunConfig(max_dim=64, step=16, iterations=4,\n"
        "                   kernels=(Kernel.GEMM,),\n"
        "                   problem_idents=('square',))\n"
        "run_sweep(AnalyticBackend(make_model('dawn')), config, 'dawn',\n"
        "          jobs=2)\n"
        "assert workerpool.pool_stats()['pools_alive'] == 1\n"
        "print('OK')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout


def test_graceful_pool_shutdown_does_not_hang():
    """Forked workers must not inherit the parent's warm pools: a worker
    leaving on ``shutdown(wait=True)`` would otherwise run the module's
    exit hook on its copy of the parent's executor and block on a lock
    the parent held at the fork.  The sequence runs in its own session
    so a regression fails here, and its stuck workers die with it."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "from repro.core import workerpool\n"
        "pool = workerpool.get_pool(2)\n"
        "assert pool.submit(pow, 2, 5).result() == 32\n"
        "pool.shutdown(wait=True)\n"
        "print('OK')\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("graceful shutdown of a warm pool hung for 30 s")
    assert proc.returncode == 0, err
    assert "OK" in out
