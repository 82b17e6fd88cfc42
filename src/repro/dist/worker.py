"""Campaign workers: scenario execution at the far end of the wire.

A worker receives one scenario at a time from the dispatcher, runs it
through the same supervised :func:`~repro.core.runner.run_sweep` a
single-node campaign uses, writes the result durably as a *shard*
file, and reports back.  Two flavors share the protocol:

* :class:`SubprocessWorker` — a real child process running
  ``gpu-blob dist-worker`` (:func:`worker_main`), speaking JSON lines
  over stdin/stdout with a background heartbeat thread.  It inherits
  the environment, so ``REPRO_CHAOS_KILL_SHARD`` composes: the
  dispatcher can lose a whole worker while that worker is losing a
  pool shard.
* :class:`SimulatedWorker` — in-process, no threads, executes one
  queued scenario per :meth:`~SimulatedWorker.poll`.  Deterministic
  under a fake clock, which is what the dist test-suite drives.

Idempotent completion lives here: a result shard is keyed by the
*scenario fingerprint* (:func:`scenario_fingerprint`) and holds the
run payload the content-addressed sweep cache uses (column arrays,
floats as raw bits), sealed in the same envelope (:mod:`repro.journal`),
so a shard computed by *any* worker (or any attempt) feeds the
aggregated report byte-identically.  Duplicate
finishes of a stolen scenario overwrite the shard with identical
bytes; the ledger dedupes the bookkeeping.

Dispatcher -> worker messages: ``{"t": "run", "scenario": {...}}`` and
``{"t": "shutdown"}``.  Worker -> dispatcher: ``hello``, ``heartbeat``,
``done`` and ``failed`` (all tagged with the worker id; every one
counts as a liveness beat).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import threading
from collections import deque
from pathlib import Path
from queue import Empty, SimpleQueue
from typing import Callable, List, Optional, Sequence

from ..errors import ReproError
from ..faults.checkpoint import config_fingerprint
from ..journal import EnvelopeError, open_envelope, write_envelope
from ..types import Kernel, Precision, TransferType

__all__ = [
    "SimulatedWorker",
    "SubprocessWorker",
    "default_worker_command",
    "execute_scenario",
    "load_result_shard",
    "scenario_fingerprint",
    "scenario_record",
    "worker_main",
    "write_result_shard",
]

# -- scenario wire format ---------------------------------------------


def scenario_fingerprint(scenario) -> str:
    """Stable identity of one scenario — everything that changes what
    it computes.  Completion (ledger records, result shard filenames)
    is keyed on this, which is what makes re-execution after a steal
    idempotent."""
    blob = f"{scenario.system}|{config_fingerprint(scenario.config, scenario.system)}"
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def scenario_record(scenario, backend: str, jobs: int) -> dict:
    """The JSON form of one scenario as dispatched over the wire."""
    config = scenario.config
    return {
        "index": scenario.index,
        "fingerprint": scenario_fingerprint(scenario),
        "system": scenario.system,
        "iterations": scenario.iterations,
        "backend": backend,
        "jobs": jobs,
        "config": {
            "min_dim": config.min_dim,
            "max_dim": config.max_dim,
            "iterations": config.iterations,
            "step": config.step,
            "kernels": [k.value for k in config.kernels],
            "problems": list(config.problem_idents),
            "precisions": [p.value for p in config.precisions],
            "transfers": [t.value for t in config.transfers],
            "validate": config.validate,
        },
    }


def _parse_scenario_config(rec: dict):
    from ..core.config import RunConfig

    return RunConfig(
        min_dim=rec["min_dim"],
        max_dim=rec["max_dim"],
        iterations=rec["iterations"],
        step=rec["step"],
        kernels=tuple(Kernel(k) for k in rec["kernels"]),
        problem_idents=tuple(rec["problems"]),
        precisions=tuple(Precision(p) for p in rec["precisions"]),
        transfers=tuple(TransferType(t) for t in rec["transfers"]),
        validate=rec.get("validate", False),
    )


def execute_scenario(record: dict, cache_dir=None):
    """Run one dispatched scenario exactly the way a single-node
    campaign would; returns the :class:`~repro.core.runner.RunResult`.
    The model is deterministic, so every worker (and every retry)
    computes identical bytes for one fingerprint."""
    from ..backends import make_backend
    from ..core.runner import run_sweep
    from ..systems.catalog import make_model, resolve_system

    config = _parse_scenario_config(record["config"])
    spec = resolve_system(record["system"], strict=record["config"].get(
        "validate", False))
    backend = make_backend(record.get("backend", "analytic"),
                           make_model(spec))
    return run_sweep(
        backend,
        config,
        system_name=spec.name,
        jobs=int(record.get("jobs", 1)),
        cache_dir=cache_dir,
    )


# -- result shards ----------------------------------------------------


def _shard_path(results_dir, fp: str) -> Path:
    return Path(results_dir) / f"{fp}.json"


def write_result_shard(results_dir, fp: str, result) -> Path:
    """Durably persist one scenario result, keyed by fingerprint.
    Atomic (write-then-rename) so a kill -9 mid-write leaves either
    the old shard or none, never a torn one."""
    from ..core.sweepcache import run_payload

    path = _shard_path(results_dir, fp)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_envelope(path, "shard", run_payload(result), fingerprint=fp)
    return path


def _run_scenario(worker_id: str, rec: dict, results_dir, cache_dir=None,
                 executor: Callable = execute_scenario) -> dict:
    """Execute one dispatched scenario, persist its shard, and return
    the ``done`` (or ``failed``) message to report."""
    msg = {"t": "done", "worker": worker_id, "fp": rec["fingerprint"],
           "index": rec["index"]}
    try:
        result = executor(rec, cache_dir=cache_dir)
    except ReproError as exc:
        return dict(msg, t="failed", error=str(exc))
    write_result_shard(results_dir, rec["fingerprint"], result)
    return msg


def load_result_shard(results_dir, fp: str, config,
                      system_name: Optional[str] = None):
    """Load and verify one result shard; ``None`` when the shard is
    missing, version-skewed, mis-keyed or fails its payload digest —
    the dispatcher treats all of those as "not done, re-run"."""
    from ..core.sweepcache import parse_run_payload

    try:
        payload = open_envelope(_shard_path(results_dir, fp).read_bytes(),
                                "shard", fingerprint=fp)
        return parse_run_payload(payload, config, system_name)
    except (OSError, EnvelopeError, KeyError, TypeError, ValueError):
        return None


# -- in-process simulated worker --------------------------------------


class SimulatedWorker:
    """An in-process worker for deterministic tests.

    ``send`` only queues; :meth:`poll` executes at most one queued
    scenario and returns the resulting messages plus a heartbeat —
    mirroring the asynchrony of a real subprocess closely enough that
    the dispatcher cannot tell them apart, while keeping execution on
    the test's own thread.  ``executor`` is injectable so tests can
    make a scenario fail deterministically (dead-letter paths).
    """

    def __init__(self, worker_id: str, results_dir, cache_dir=None,
                 executor: Optional[Callable] = None) -> None:
        self.worker_id = worker_id
        self.results_dir = Path(results_dir)
        self.cache_dir = cache_dir
        self._executor = executor if executor is not None else \
            execute_scenario
        self._inbox: deque = deque()
        self._alive = True

    def alive(self) -> bool:
        return self._alive

    def send(self, msg: dict) -> None:
        if not self._alive:
            raise BrokenPipeError(f"worker {self.worker_id} is gone")
        self._inbox.append(msg)

    def poll(self) -> List[dict]:
        """Drain: execute at most one queued scenario, then beat."""
        if not self._alive:
            return []
        out: List[dict] = []
        while self._inbox:
            msg = self._inbox.popleft()
            t = msg.get("t")
            if t == "shutdown":
                self._alive = False
                return out
            if t != "run":
                continue
            out.append(_run_scenario(self.worker_id, msg["scenario"],
                                    self.results_dir, self.cache_dir,
                                    self._executor))
            break
        out.append({"t": "heartbeat", "worker": self.worker_id})
        return out

    def kill(self) -> None:
        """The SIGKILL analog: queued work and unsent messages are
        lost; the worker never speaks again."""
        self._alive = False
        self._inbox.clear()

    def close(self) -> None:
        self._alive = False


# -- subprocess worker -------------------------------------------------


def default_worker_command() -> List[str]:
    """The argv prefix that launches this build's own dist-worker."""
    return [sys.executable, "-m", "repro.cli", "dist-worker"]


class SubprocessWorker:
    """A real child process speaking the JSON-lines worker protocol.

    A reader thread drains the child's stdout into a queue so
    :meth:`poll` never blocks the dispatch loop; :meth:`alive` is the
    process's own exit status, which is how a kill -9 is detected
    faster than waiting out the heartbeat timeout.
    """

    def __init__(self, worker_id: str, results_dir, cache_dir=None,
                 heartbeat_s: float = 2.0,
                 command: Optional[Sequence[str]] = None) -> None:
        self.worker_id = worker_id
        self.results_dir = Path(results_dir)
        argv = list(command) if command else default_worker_command()
        argv += [
            "--worker-id", worker_id,
            "--results-dir", str(results_dir),
            "--heartbeat", str(heartbeat_s),
        ]
        if cache_dir is not None:
            argv += ["--cache-dir", str(cache_dir)]
        self._proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        self._queue: SimpleQueue = SimpleQueue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    @property
    def pid(self) -> int:
        return self._proc.pid

    def _drain(self) -> None:
        try:
            for line in self._proc.stdout:
                self._queue.put(line)
        except ValueError:  # stdout closed under us
            pass

    def alive(self) -> bool:
        return self._proc.poll() is None

    def send(self, msg: dict) -> None:
        if self._proc.poll() is not None:
            raise BrokenPipeError(f"worker {self.worker_id} has exited")
        self._proc.stdin.write(json.dumps(msg, separators=(",", ":")) + "\n")
        self._proc.stdin.flush()

    def poll(self) -> List[dict]:
        out: List[dict] = []
        while True:
            try:
                line = self._queue.get_nowait()
            except Empty:
                break
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if isinstance(rec, dict):
                out.append(rec)
        return out

    def kill(self) -> None:
        self._proc.kill()
        self._proc.wait()

    def close(self) -> None:
        if self.alive():
            try:
                self.send({"t": "shutdown"})
            except OSError:
                pass
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        else:
            self._proc.wait()
        self._reader.join(timeout=2)
        for stream in (self._proc.stdin, self._proc.stdout):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass


# -- the dist-worker entry point --------------------------------------


def worker_main(argv: Optional[Sequence[str]] = None) -> int:
    """``gpu-blob dist-worker``: serve scenarios over stdin/stdout.

    Meant to be spawned by the dispatcher, not typed by hand — but it
    is a plain subcommand so ``--worker-cmd`` can wrap it (srun, ssh,
    a container runtime) on real clusters.
    """
    parser = argparse.ArgumentParser(
        prog="gpu-blob dist-worker",
        description="campaign worker speaking JSON lines on stdin/stdout",
    )
    parser.add_argument("--worker-id", required=True)
    parser.add_argument("--results-dir", required=True,
                        help="directory for result shard files")
    parser.add_argument("--cache-dir", default=None,
                        help="shared content-addressed sweep cache")
    parser.add_argument("--heartbeat", type=float, default=2.0,
                        metavar="SECONDS")
    args = parser.parse_args(argv)
    if args.heartbeat <= 0:
        parser.error(f"--heartbeat must be > 0, got {args.heartbeat}")

    lock = threading.Lock()

    def emit(msg: dict) -> None:
        with lock:
            sys.stdout.write(json.dumps(msg, separators=(",", ":")) + "\n")
            sys.stdout.flush()

    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(args.heartbeat):
            try:
                emit({"t": "heartbeat", "worker": args.worker_id})
            except OSError:  # dispatcher is gone; nothing left to do
                return

    threading.Thread(target=beat, daemon=True).start()
    emit({"t": "hello", "worker": args.worker_id})
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        t = msg.get("t") if isinstance(msg, dict) else None
        if t == "shutdown":
            break
        if t != "run":
            continue
        emit(_run_scenario(args.worker_id, msg["scenario"], args.results_dir,
                          args.cache_dir))
    stop.set()
    return 0
