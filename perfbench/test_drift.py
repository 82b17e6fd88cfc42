"""Tests of the drift meter.  Run from the repository root with
``PYTHONPATH=src python3 -m pytest perfbench/test_drift.py``."""

import subprocess
import sys
import time

import pytest

import drift


def test_correct_scales_by_nominal_over_mean_bracketing_quantum():
    assert drift.correct(2.0, (0.02, 0.02), nominal_s=0.01) == 1.0
    # a host twice as fast as nominal doubles the corrected time
    assert drift.correct(1.0, (0.005,), nominal_s=0.01) == 2.0
    # the bracketing quanta are averaged
    assert drift.correct(3.0, (0.01, 0.02), nominal_s=0.015) == 3.0


def test_correct_needs_a_quantum():
    with pytest.raises(ValueError):
        drift.correct(1.0, ())


class _FixedMeter:
    """A meter whose quanta are scripted."""

    def __init__(self, quanta):
        self._quanta = list(quanta)

    def measure(self):
        return self._quanta.pop(0)


def test_segments_correct_by_a_window_of_quanta(monkeypatch):
    monkeypatch.setattr(drift.Segments, "WINDOW", 1)
    quanta = [0.010, 0.020, 0.040, 0.030, 0.010]
    seg = drift.Segments(_FixedMeter(quanta))
    for _ in range(4):
        time.sleep(0.002)
        seg.mark()
    assert len(seg.raw) == 4 and seg.quanta == quanta
    # segment i lies between quanta i and i+1, plus one more each side
    windows = [quanta[0:3], quanta[0:4], quanta[1:5], quanta[2:5]]
    for raw, fixed, window in zip(seg.raw, seg.fixed, windows):
        assert fixed == pytest.approx(
            raw * drift.NOMINAL_S / (sum(window) / len(window)))
    assert seg.fixed_s == pytest.approx(sum(seg.fixed))
    assert seg.raw_s == pytest.approx(sum(seg.raw))


def test_cpu_advanced_compares_processes_in_both_snapshots():
    before = {1: 1.0, 2: 5.0}
    assert not drift.cpu_advanced(before, {1: 1.0001, 2: 5.0}, 0.0005)
    assert drift.cpu_advanced(before, {1: 1.0, 2: 5.01}, 0.0005)
    # a process that exited in between is ignored
    assert not drift.cpu_advanced(before, {1: 1.0}, 0.0005)


def _child(code: str) -> subprocess.Popen:
    proc = subprocess.Popen([sys.executable, "-c", code],
                            stdout=subprocess.PIPE)
    proc.stdout.readline()  # the child is running its loop
    return proc


def test_quantum_rejected_while_a_child_uses_cpu(monkeypatch):
    monkeypatch.setattr(drift, "MAX_ATTEMPTS", 3)
    busy = _child("print(flush=True)\nwhile True: pass")
    try:
        meter = drift.DriftMeter(watch=lambda: [busy.pid])
        with pytest.raises(drift.QuantumRejected):
            meter.measure()
        assert meter.rejected == 3
        assert meter.quanta == []
    finally:
        busy.kill()
        busy.wait(timeout=10)


def test_every_cpu_meter_restores_the_affinity_mask():
    import os

    mask = os.sched_getaffinity(0)
    meter = drift.DriftMeter(every_cpu=True)
    assert meter.cpus == sorted(mask)
    assert meter.measure() > 0
    assert os.sched_getaffinity(0) == mask


def test_quantum_accepted_while_a_child_is_idle():
    idle = _child("import time\nprint(flush=True)\ntime.sleep(60)")
    try:
        meter = drift.DriftMeter(watch=lambda: [idle.pid])
        q = meter.measure()
        assert q > 0 and meter.quanta == [q] and meter.rejected == 0
        assert meter.ref_ms() == q * 1e3
    finally:
        idle.kill()
        idle.wait(timeout=10)
