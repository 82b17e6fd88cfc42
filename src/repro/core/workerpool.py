"""Persistent warm worker pools for the supervised parallel executor.

``run_sweep(jobs=N)`` used to spin up a fresh ``ProcessPoolExecutor``
for every round of every sweep — on realistic sweeps the fork/teardown
cost swamped the parallel win (the throughput bench showed ``--jobs 4``
at ~1.28x serial while the vectorized fast path ran at ~5.9x).  This
module keeps one pool per worker count alive for the life of the
process, so consecutive sweeps — a campaign's scenario matrix, the
serve daemon's job queue, the bench's timing rounds — pay the spawn
cost once and reuse warm workers after that.

Supervision semantics are unchanged: the runner still charges shard
attempts, isolates repeat offenders on dedicated single-worker pools
(which stay ephemeral — a shard that already killed a worker must not
poison the shared warm pool), and degrades exhausted shards to
in-process execution.  What changes is the *lifecycle*: a worker death
or deadline kill marks the warm pool broken/terminated here, and the
next acquisition transparently respawns it (counted on
:func:`pool_stats`, exported by the serve daemon's ``/metrics``).

Teardown at interpreter exit must never hang behind a wedged worker.
``concurrent.futures.process`` registers its own exit hook via
``threading._register_atexit``; those callbacks run LIFO, so by
importing that module *first* and registering ours *after*, our
teardown — which snapshots the worker processes, shuts the executor
down without waiting, and terminates the processes — runs before the
executor's join and leaves it nothing to wait on.

Fork-started workers inherit this module's state, exit hook included,
but own none of the parent's pools: a worker leaving on a graceful
``shutdown(wait=True)`` would run the hook on its copy of the parent's
executor and block on a lock the parent held when it forked.  The child
therefore forgets the parent's pools right after every fork.
"""

from __future__ import annotations

import concurrent.futures
import concurrent.futures.process  # noqa: F401 - registers its exit hook first
import contextlib
import multiprocessing
import os
import threading
from typing import Dict

__all__ = [
    "dedicated_pool",
    "get_pool",
    "mark_broken",
    "pool_stats",
    "reset_stats",
    "shutdown_all",
    "terminate",
]


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


_lock = threading.Lock()
_pools: Dict[int, concurrent.futures.ProcessPoolExecutor] = {}
_counters = {
    "spawns": 0,          # warm pools created (first spawn + respawns)
    "reuses": 0,          # get_pool() calls served by an existing pool
    "respawns": 0,        # spawns that replaced a broken/terminated pool
    "retired": 0,         # pools marked broken or terminated
    "shards_executed": 0, # shard results decoded from warm/dedicated pools
    "shm_bytes": 0,       # bytes returned through shared-memory segments
    "pickle_fallbacks": 0,# shard results that fell back to pickling
}
#: worker counts whose pool was ever retired — the next get_pool() for
#: that count is a *respawn*, not a first spawn.
_retired_sizes: set = set()


def _effective_workers(workers: int) -> int:
    """Cap pool size at the physical core count: CPU-bound shards gain
    nothing from oversubscription, and on a core-starved host the
    context-switch thrash of N idle-fighting workers is a measurable
    tax (the throughput bench lost ~25% to it at jobs=4 on one core).
    Pools stay keyed by the *requested* count, so supervision call
    sites (``mark_broken(jobs)``, ``terminate(jobs)``) are unaffected."""
    return max(1, min(workers, os.cpu_count() or workers))


def get_pool(workers: int) -> concurrent.futures.ProcessPoolExecutor:
    """The shared warm pool for ``workers`` workers, spawning or
    respawning it if none is alive."""
    with _lock:
        pool = _pools.get(workers)
        if pool is not None and not _is_broken(pool):
            _counters["reuses"] += 1
            return pool
        if pool is not None:
            _retire_locked(workers)
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=_effective_workers(workers),
            mp_context=_mp_context(),
        )
        _pools[workers] = pool
        _counters["spawns"] += 1
        if workers in _retired_sizes:
            _counters["respawns"] += 1
        return pool


def dedicated_pool(workers: int = 1) -> concurrent.futures.ProcessPoolExecutor:
    """An *ephemeral* pool for blast-radius isolation of repeat-offender
    shards; the caller owns its shutdown."""
    return concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, mp_context=_mp_context()
    )


def _is_broken(pool) -> bool:
    return bool(getattr(pool, "_broken", False)) or bool(
        getattr(pool, "_shutdown_thread", False)
    )


def _retire_locked(workers: int, *, kill: bool = False) -> None:
    pool = _pools.pop(workers, None)
    if pool is None:
        return
    _counters["retired"] += 1
    _retired_sizes.add(workers)
    # Snapshot processes *before* shutdown(): the executor drops its
    # _processes reference even with wait=False, and an un-terminated
    # wedged worker would block interpreter exit behind the executor's
    # join (see _terminate_pool in runner.py, same idiom).
    procs = list((getattr(pool, "_processes", None) or {}).values())
    with contextlib.suppress(Exception):
        pool.shutdown(wait=False, cancel_futures=True)
    if kill:
        for proc in procs:
            with contextlib.suppress(Exception):
                proc.terminate()


def mark_broken(workers: int) -> None:
    """Retire the warm pool after a worker death (``BrokenProcessPool``);
    the next :func:`get_pool` respawns it."""
    with _lock:
        _retire_locked(workers)


def terminate(workers: int) -> None:
    """Kill the warm pool *now* (deadline overrun — a worker is wedged,
    a cooperative shutdown would block behind it)."""
    with _lock:
        _retire_locked(workers, kill=True)


def shutdown_all() -> None:
    """Retire every warm pool (tests, daemon drain, interpreter exit)."""
    with _lock:
        for workers in list(_pools):
            _retire_locked(workers, kill=True)


def record_shard(shm_bytes: int = 0, *, pickled: bool = False) -> None:
    """Count one decoded shard result (called by the runner's merge)."""
    with _lock:
        _counters["shards_executed"] += 1
        if pickled:
            _counters["pickle_fallbacks"] += 1
        else:
            _counters["shm_bytes"] += shm_bytes


def workers_alive() -> int:
    """Live worker processes across all warm pools (a gauge, best
    effort — the executor may still be forking)."""
    with _lock:
        alive = 0
        for pool in _pools.values():
            for proc in (getattr(pool, "_processes", None) or {}).values():
                if proc.is_alive():
                    alive += 1
        return alive


def pool_stats() -> dict:
    """Lifecycle counters plus live gauges, for benches and /metrics."""
    with _lock:
        snapshot = dict(_counters)
        snapshot["pools_alive"] = len(_pools)
    snapshot["workers_alive"] = workers_alive()
    return snapshot


def reset_stats() -> None:
    """Zero the counters (benches and tests bracket runs with this).
    The respawn epoch resets too: a spawn after the reset only counts
    as a respawn if its pool was retired *within* the new observation
    window — retirements from before the reset are history."""
    with _lock:
        for key in _counters:
            _counters[key] = 0
        _retired_sizes.clear()


def _shutdown_at_exit() -> None:  # pragma: no cover - interpreter exit
    shutdown_all()


def _forget_parent_pools() -> None:  # pragma: no cover - forked child
    global _lock
    _lock = threading.Lock()  # another parent thread may have held it
    _pools.clear()


if hasattr(os, "register_at_fork"):  # absent on platforms without fork
    os.register_at_fork(after_in_child=_forget_parent_pools)


try:  # CPython >= 3.9: run before concurrent.futures' own exit join
    threading._register_atexit(_shutdown_at_exit)
except (AttributeError, RuntimeError):  # pragma: no cover - fallback
    import atexit

    atexit.register(_shutdown_at_exit)
