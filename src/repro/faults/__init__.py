"""Fault injection and checkpoints for resilient sweeps.

Real sweeps on LUMI/DAWN/Isambard queues hit transient kernel launch
failures, DMA stalls, watchdog timeouts, ECC-retry slowdowns, and the
occasional mid-run device loss.  A seeded :class:`~repro.chaos
.ChaosPlan` decides, per sample key and attempt, which of them fires,
and a :class:`FaultInjector` wraps any
:class:`~repro.backends.base.Backend` — analytic, DES, or host — to act
the plan out.  The same seed always produces the same fault sequence,
so chaos runs are replayable and the resumable runner can be
property-tested against them.

Checkpointing lives in :mod:`repro.faults.checkpoint`: an append-only
JSONL log of completed samples and quarantine decisions that
:func:`repro.core.runner.run_sweep` replays on ``resume=True``.
"""

from __future__ import annotations

from .checkpoint import (
    CheckpointReader,
    CheckpointWriter,
    sample_key,
)
from .injector import FaultInjector

__all__ = [
    "CheckpointReader",
    "CheckpointWriter",
    "FaultInjector",
    "sample_key",
]
