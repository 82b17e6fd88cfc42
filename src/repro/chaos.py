"""Every seeded chaos draw: which fault fires where, and how long a
retry waits.

A chaos run must replay exactly from its inputs: two runs with one
seed, or an interrupted run and its resume, see the same faults, the
same victims and the same backoff.  So every such decision is one
:func:`draw` — BLAKE2b over the ``repr`` of a key tuple, mapped to a
unit float.  BLAKE2b, not CRC: CRC is linear, so keys that differ only
in the attempt counter would draw correlated values and a retried
sample would keep hitting the same fault.

One :class:`ChaosPlan` holds seeded rates for twelve kinds, each acted
out by its own layer:

* **sweep** — :class:`~repro.faults.injector.FaultInjector` wraps a
  backend: ``kernel``, ``transfer``, ``hang``, ``ecc``,
  ``device-lost``, drawn per sample attempt;
* **serve** — :class:`~repro.serve.service.ThresholdService`:
  ``slow-backend``, ``fail-backend``, ``wal-stall``, ``wal-bitflip``,
  drawn per job attempt;
* **dist** — the campaign dispatcher: ``node-kill``, ``partition``,
  ``slow-worker``.  These are one-shot: each fires once per campaign,
  on a victim worker and at a trigger assignment drawn from the seed.

A per-attempt kind takes a rate in ``[0, 1)``, so a retry can always
succeed.  A one-shot kind is switched on with rate 1.0 (its only other
rate is 0), and a plan switches on at most one.

The draw keys (pinned bit for bit by ``tests/data/chaos-pins.json``)::

    sweep fault   (seed, kind, attempt, *cell_key)
    serve fault   (seed, "serve", kind, cache_key, attempt)
    fleet fault   (seed, "dist", kind, "victim" | "trigger")
    retry jitter  (seed, "backoff", attempt, *key)

Sweep keys carry no layer tag and put the attempt first: they predate
the others, and seeded chaos results depend on them.

One chaos input is not a plan: ``REPRO_CHAOS_KILL_SHARD=<i>``
hard-kills the pool worker that picks up shard ``i``
(:mod:`repro.core.runner`).  It must reach forked pool workers,
``gpu-blob dist-worker`` subprocesses and serve's sweep pool alike, and
the environment carries it there with a hook of a few lines.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, Mapping, Optional

from .errors import ConfigError

__all__ = ["ChaosKind", "ChaosPlan", "PRESETS", "draw"]


def draw(*key) -> float:
    """Deterministic hash of ``key`` to a unit float in [0, 1)."""
    digest = hashlib.blake2b(repr(key).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


class ChaosKind(Enum):
    """Every fault a plan can draw, tagged with the layer (``sweep``,
    ``serve`` or ``dist``) that acts it out."""

    def __new__(cls, value: str, layer: str) -> "ChaosKind":
        member = object.__new__(cls)
        member._value_ = value
        member.layer = layer
        return member

    #: transient kernel launch/execution failure → TransientKernelError
    KERNEL = "kernel", "sweep"
    #: DMA error on an explicit-copy GPU sample → TransferError
    TRANSFER = "transfer", "sweep"
    #: the sample's simulated clock gains ``hang_s`` seconds
    HANG = "hang", "sweep"
    #: ECC retry storm: the sample slows by ``ecc_slowdown``x
    ECC = "ecc", "sweep"
    #: the GPU falls off the bus, permanently → DeviceLostError
    DEVICE_LOST = "device-lost", "sweep"
    #: the sweep behind a job stalls ``slow_s`` wall seconds
    SLOW_BACKEND = "slow-backend", "serve"
    #: the sweep behind a job raises TransientKernelError
    FAIL_BACKEND = "fail-backend", "serve"
    #: the job's WAL append is swallowed, as if the disk were full
    WAL_STALL = "wal-stall", "serve"
    #: one byte of the job's just-written WAL record is flipped
    WAL_BITFLIP = "wal-bitflip", "serve"
    #: the victim worker is killed after its trigger assignment
    NODE_KILL = "node-kill", "dist"
    #: every message the victim sends is held back for a window
    PARTITION = "partition", "dist"
    #: the victim's messages arrive late, but arrive
    SLOW_WORKER = "slow-worker", "dist"

    @property
    def one_shot(self) -> bool:
        """Fires once per campaign rather than per attempt."""
        return self.layer == "dist"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ChaosPlan:
    """Seeded firing rates per :class:`ChaosKind`; absent kinds never
    fire.

    ``hang_s`` is the simulated time a hung sample loses,
    ``ecc_slowdown`` the factor an ECC storm slows a sample by, and
    ``slow_s`` the wall-clock stall of one ``slow-backend`` hit.
    """

    seed: int = 0
    rates: Mapping[ChaosKind, float] = field(default_factory=dict)
    hang_s: float = 30.0
    ecc_slowdown: float = 1.35
    slow_s: float = 0.2

    def __post_init__(self) -> None:
        for kind, rate in self.rates.items():
            if not isinstance(kind, ChaosKind):
                raise ConfigError(f"rates keys must be ChaosKind, got {kind!r}")
            if kind.one_shot:
                if rate not in (0.0, 1.0):
                    raise ConfigError(
                        f"{kind.value!r} fires once per campaign: its rate "
                        f"is 1.0 (on) or 0 (off), got {rate}"
                    )
            elif not 0.0 <= rate < 1.0:
                raise ConfigError(
                    f"chaos rate for {kind.value!r} must be in [0, 1), "
                    f"got {rate}"
                )
        fleet = [k.value for k, r in self.rates.items() if k.one_shot and r]
        if len(fleet) > 1:
            raise ConfigError(
                "a plan switches on at most one fleet kind, got "
                + ", ".join(fleet)
            )
        if self.hang_s <= 0.0:
            raise ConfigError(f"hang_s must be > 0, got {self.hang_s}")
        if self.ecc_slowdown < 1.0:
            raise ConfigError(
                f"ecc_slowdown must be >= 1, got {self.ecc_slowdown}"
            )
        if self.slow_s <= 0.0:
            raise ConfigError(f"slow_s must be > 0, got {self.slow_s}")

    @classmethod
    def uniform(
        cls, rate: float, *, seed: int = 0, device_lost_rate: float = 0.0
    ) -> "ChaosPlan":
        """One rate for every transient sweep kind; device loss is set
        separately (it is permanent, so it defaults to off)."""
        rates = {
            ChaosKind.KERNEL: rate,
            ChaosKind.TRANSFER: rate,
            ChaosKind.HANG: rate,
            ChaosKind.ECC: rate,
        }
        if device_lost_rate:
            rates[ChaosKind.DEVICE_LOST] = device_lost_rate
        return cls(seed=seed, rates=rates)

    @classmethod
    def parse(cls, text: str, layer: str) -> "ChaosPlan":
        """Build a plan from a ``--chaos-plan NAME[:SEED]`` argument,
        accepting only ``layer``'s presets."""
        name, _, seed_text = text.partition(":")
        try:
            seed = int(seed_text) if seed_text else 0
        except ValueError:
            raise ConfigError(
                f"chaos-plan seed must be an integer, got {seed_text!r}"
            ) from None
        presets = PRESETS.get(layer, {})
        if name not in presets:
            raise ConfigError(
                f"unknown {layer} chaos plan {name!r}; valid: "
                + ", ".join(presets)
            )
        return replace(presets[name], seed=seed)

    @property
    def enabled(self) -> bool:
        return any(rate > 0.0 for rate in self.rates.values())

    @property
    def fleet_kind(self) -> Optional[ChaosKind]:
        """The one-shot kind this plan switches on, if any."""
        return next(
            (k for k, r in self.rates.items() if k.one_shot and r), None
        )

    def _draw(self, kind: ChaosKind, *subject) -> float:
        tag = () if kind.layer == "sweep" else (kind.layer,)
        return draw(self.seed, *tag, kind.value, *subject)

    def fires(self, kind: ChaosKind, key: tuple, attempt: int) -> bool:
        """Does ``kind`` fire on this attempt at the sample or job
        ``key``?  Each attempt is an independent draw."""
        rate = self.rates.get(kind, 0.0)
        if rate <= 0.0:
            return False
        if kind.layer == "sweep":
            return self._draw(kind, attempt, *key) < rate
        return self._draw(kind, *key, attempt) < rate

    def victim(self, n_workers: int) -> int:
        """Which of ``n_workers`` workers the fleet fault strikes."""
        if n_workers < 1:
            raise ConfigError("chaos needs at least one worker to attack")
        unit = self._draw(self._fleet(), "victim")
        return min(int(unit * n_workers), n_workers - 1)

    def trigger_assignment(self) -> int:
        """Which of the victim's assignments (1-based) pulls the
        trigger: the 1st or 2nd, so the fault can land mid-campaign
        rather than always on the opening dispatch."""
        return 1 + int(self._draw(self._fleet(), "trigger") * 2)

    def _fleet(self) -> ChaosKind:
        kind = self.fleet_kind
        if kind is None:
            raise ConfigError("this chaos plan switches on no fleet kind")
        return kind


#: Every ``--chaos-plan`` preset, by the layer whose command takes it.
#: ``gpu-blob run`` has none: it builds a uniform sweep plan from
#: ``--fault-rate``.
PRESETS: Dict[str, Dict[str, ChaosPlan]] = {
    "serve": {
        # mild background chaos: occasional stalls and failures
        "light": ChaosPlan(rates={
            ChaosKind.SLOW_BACKEND: 0.15,
            ChaosKind.FAIL_BACKEND: 0.05,
        }, slow_s=0.1),
        # the aggressive preset the chaos bench and CI drill use
        "heavy": ChaosPlan(rates={
            ChaosKind.SLOW_BACKEND: 0.35,
            ChaosKind.FAIL_BACKEND: 0.2,
            ChaosKind.WAL_STALL: 0.1,
        }, slow_s=0.25),
        # near-total backend failure: trips every breaker, forcing the
        # degraded-answer path (a per-attempt rate stays below 1)
        "blackout": ChaosPlan(rates={ChaosKind.FAIL_BACKEND: 0.999}),
    },
    "dist": {
        kind.value: ChaosPlan(rates={kind: 1.0})
        for kind in (
            ChaosKind.NODE_KILL, ChaosKind.PARTITION, ChaosKind.SLOW_WORKER
        )
    },
}
