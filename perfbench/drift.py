"""Drift meter: a fixed reference quantum that tracks the host's speed.

The vCPU this benchmark runs on drifts: a fixed stdlib loop ran at
197-365 ops/s across 0.5 s windows of one minute, and a later minute
averaged 25% slower, with CPU/wall at 0.98-0.99 (so it is not
scheduling).  Every timed operation is therefore bracketed by
reference quanta, and its time is scaled by ``NOMINAL_S / measured``
quantum: the corrected figure is the time the operation would have
taken on a host running the quantum in exactly ``NOMINAL_S``.

The quantum mixes the kinds of work the program does -- interpreter
bytecode shaped like its sample keys, records and encoders,
``hashlib.sha256`` (the cache digests) and small NumPy vector ops (the
batch model) -- runs with the garbage collector off, and retains
nothing.  It imports nothing from ``repro``.

A quantum only measures the host while no program work is in flight.
:class:`DriftMeter` watches the CPU clocks of the program's other
processes (the serve daemon, pool workers) and rejects a quantum during
which any of them ran.

The two vCPUs drift only partly together: quanta pinned alternately to
each correlated at r = 0.24 point to point and r = 0.52 over blocks of
ten.  A single-threaded workload is best tracked by a quantum on the CPU
it runs on; a workload spread over both (the serve daemon and its
client, pool workers) by the mean of one quantum pinned to each CPU.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import time
import zlib
from typing import Callable, Dict, Iterable, List, Sequence

import numpy as np

#: The quantum's nominal duration; corrected times are expressed in it.
NOMINAL_S = 0.010

#: CPU time another watched process may use across one quantum before
#: the quantum is rejected (the idle daemon's event loop wakes briefly).
CHILD_CPU_TOLERANCE_S = 0.0005

#: Attempts at a clean quantum before the meter gives up.
MAX_ATTEMPTS = 20

#: Slices per quantum; the quantum reads the median slice times this.
SLICES = 5

_BLOCK = bytes(range(256)) * 64
_VEC = np.linspace(1.0, 2.0, 2048)


def _unit() -> int:
    """One slice of reference work (about a fifth of a quantum).

    Mostly interpreter work shaped like the program's own -- repr and
    CRC of sample keys, small dict records, JSON and float formatting --
    plus a little sha256 and NumPy.  Against tables-cold-sized sweeps,
    cache stores and CSV encodes timed over 2.5 minutes of drift, this
    mix tracked their speed at r = 0.92 with a slope of about 1, where a
    cache-resident loop of equal parts interpreter, sha256 and NumPy
    tracked at r = 0.84 with a slope of 1.4.
    """
    acc = 0
    for _ in range(2):
        rows = []
        for i in range(120):
            key = ("gpu", "once", (i, i + 1, 32), "single", 8)
            acc ^= zlib.crc32(repr(key).encode())
            rows.append({"m": i, "n": i + 1, "k": 32, "seconds": i * 1.5e-6,
                         "gflops": i * 0.25, "ok": True})
        acc += len(json.dumps(rows, separators=(",", ":")))
        acc += len(",".join("%r" % (row["seconds"],) for row in rows))
    digest = hashlib.sha256()
    for _ in range(20):
        digest.update(_BLOCK)
    acc += digest.digest()[0]
    for _ in range(25):
        acc += int(np.sqrt(_VEC * 1.0001 + 0.5).sum() > 0.0)
    return acc


def quantum() -> float:
    """Run one reference quantum; returns its duration in seconds.

    The quantum is SLICES equal slices, and the duration is the median
    slice times SLICES, so one interrupt landing on one slice does not
    read as host drift.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(SLICES):
            t0 = time.perf_counter()
            _unit()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times) * SLICES


def process_cpu_s(pid: int) -> float:
    """Total CPU time of process ``pid`` (every thread), in seconds.

    Reads the kernel's per-process CPU clock (``CPUCLOCK_SCHED`` of the
    process, nanosecond precision); falls back to the tick-granular
    ``/proc/<pid>/stat`` where that clock is unavailable.
    """
    try:
        return time.clock_gettime(((~pid) << 3) | 2)
    except OSError:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def child_pids(pid: int | None = None) -> List[int]:
    """Direct children of ``pid`` (default: this process)."""
    pid = os.getpid() if pid is None else pid
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return out


def cpu_snapshot(pids: Iterable[int]) -> Dict[int, float]:
    snap = {}
    for pid in pids:
        try:
            snap[pid] = process_cpu_s(pid)
        except OSError:
            continue  # exited: it can no longer disturb a quantum
    return snap


def cpu_advanced(before: Dict[int, float], after: Dict[int, float],
                 tolerance_s: float = CHILD_CPU_TOLERANCE_S) -> bool:
    """True when any process present in both snapshots used more than
    ``tolerance_s`` of CPU between them."""
    return any(
        after[pid] - before[pid] > tolerance_s
        for pid in before.keys() & after.keys()
    )


def correct(raw_s: float, quanta_s: Sequence[float],
            nominal_s: float = NOMINAL_S) -> float:
    """Scale one operation's raw time by nominal over measured quantum;
    the measured quantum is the mean of those bracketing the operation."""
    if not quanta_s:
        raise ValueError("an operation needs at least one bracketing quantum")
    return raw_s * nominal_s / (sum(quanta_s) / len(quanta_s))


class QuantumRejected(RuntimeError):
    """No clean quantum could be measured: program work kept running."""


class DriftMeter:
    """Measures quanta between operations and corrects their times.

    ``watch()`` returns the pids whose CPU clocks must stand still across
    a quantum; it is called for every quantum, so pools that spawn or
    retire workers are followed.  Every accepted quantum is kept, and
    :attr:`rejected` counts the ones discarded because program work was
    in flight.
    """

    def __init__(self, watch: Callable[[], Iterable[int]] = lambda: (),
                 every_cpu: bool = False) -> None:
        self.watch = watch
        #: with every_cpu, one quantum per CPU this process may use,
        #: each pinned there, and their mean; otherwise one, unpinned
        self.cpus = sorted(os.sched_getaffinity(0)) if every_cpu else []
        self.quanta: List[float] = []
        self.rejected = 0

    def _quantum(self) -> float:
        if not self.cpus:
            return quantum()
        mask = os.sched_getaffinity(0)
        try:
            times = []
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(quantum())
        finally:
            os.sched_setaffinity(0, mask)
        return sum(times) / len(times)

    def measure(self) -> float:
        for _ in range(MAX_ATTEMPTS):
            pids = list(self.watch())
            before = cpu_snapshot(pids)
            q = self._quantum()
            if not cpu_advanced(before, cpu_snapshot(pids)):
                self.quanta.append(q)
                return q
            self.rejected += 1
            time.sleep(0.005)
        raise QuantumRejected(
            f"program work stayed in flight across {MAX_ATTEMPTS} quanta"
        )

    def ref_ms(self) -> float:
        """Median accepted quantum, in milliseconds."""
        return statistics.median(self.quanta) * 1e3


class Segments:
    """A timed phase cut into segments at quanta.

    ``mark()`` closes the running segment, measures a quantum and opens
    the next; the quantum's own time belongs to no segment.  A segment's
    measured quantum is the mean of the two quanta on its sides and of
    up to WINDOW more on each side: single quanta scatter by ~20% from
    one to the next, which would otherwise widen every corrected latency
    distribution, while the drift worth correcting moves over seconds.
    """

    WINDOW = 5

    def __init__(self, meter: DriftMeter) -> None:
        self.meter = meter
        self.raw: List[float] = []
        self.quanta = [meter.measure()]
        self._open_t = time.perf_counter()

    def mark(self) -> None:
        self.raw.append(time.perf_counter() - self._open_t)
        self.quanta.append(self.meter.measure())
        self._open_t = time.perf_counter()

    def factors(self) -> List[float]:
        """Per segment, nominal over measured quantum."""
        w = self.WINDOW
        return [
            correct(1.0, self.quanta[max(0, i - w):i + 2 + w])
            for i in range(len(self.raw))
        ]

    @property
    def fixed(self) -> List[float]:
        return [raw * f for raw, f in zip(self.raw, self.factors())]

    @property
    def raw_s(self) -> float:
        return sum(self.raw)

    @property
    def fixed_s(self) -> float:
        return sum(self.fixed)
