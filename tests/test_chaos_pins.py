"""Bit-exact pins of every seeded chaos draw and retry jitter.

``tests/data/chaos-pins.json`` records, for fixed seeds, which sweep
fault fires on which cell attempt, which serve fault fires on which
job attempt, which worker a fleet fault strikes and on which of its
assignments, and the exact jittered backoff a retry is charged:

* sweep faults, for each of the five kinds, under
  ``uniform(0.3, device_lost_rate=0.01)`` and under a plan with that
  one kind at 0.5; seeds {0, 7, 2024}, attempts 0-3, over CPU and GPU
  cell keys in the injector's layout with all three transfers;
* serve faults, for each of the four kinds, under the ``light``,
  ``heavy`` and ``blackout`` presets; seeds {0, 7, 42}, over cache
  keys with attempts 1-3;
* fleet faults: the victim among 1-5 workers and the trigger
  assignment, for each of the three kinds and seeds 0-9 and 42;
* retry backoff as ``float.hex``, for seeds {0, 7} and attempts 1-4.

The pins were drawn by the three plan classes that :mod:`repro.chaos`
replaced (``FaultPlan``, ``ServeChaosPlan`` and ``DistChaosPlan``).
:func:`legacy_draws` still speaks their API, so it runs only against a
checkout of the commit before the merge::

    PYTHONPATH=<pre-merge checkout>/src python tests/test_chaos_pins.py

:func:`current_draws` asks :mod:`repro.chaos` for the same table, and
every entry must come back unchanged: a chaos run, its resume and its
CI drill replay exactly from the seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

PINS = Path(__file__).parent / "data" / "chaos-pins.json"

SWEEP_KINDS = ("kernel", "transfer", "hang", "ecc", "device-lost")
SWEEP_SEEDS = (0, 7, 2024)
SWEEP_ATTEMPTS = range(4)
SERVE_KINDS = ("slow-backend", "fail-backend", "wal-stall", "wal-bitflip")
SERVE_PRESETS = ("light", "heavy", "blackout")
SERVE_SEEDS = (0, 7, 42)
SERVE_ATTEMPTS = (1, 2, 3)
FLEET_KINDS = ("node-kill", "partition", "slow-worker")
FLEET_SEEDS = tuple(range(10)) + (42,)
FLEET_SIZES = range(1, 6)
BACKOFF_SEEDS = (0, 7)
BACKOFF_ATTEMPTS = range(1, 5)


def cell_keys() -> list:
    """CPU and GPU sample keys in :class:`~repro.faults.injector
    .FaultInjector`'s layout: ``(device, transfer, kernel, dims,
    precision, iterations)``."""
    keys = []
    for kernel, dims in (
        ("gemm", (64, 64, 64)), ("gemm", (1, 4096, 33)), ("gemv", (512, 128)),
    ):
        for precision in ("single", "double"):
            for iterations in (1, 128):
                keys.append(("cpu", None, kernel, dims, precision, iterations))
                for transfer in ("once", "always", "unified"):
                    keys.append(
                        ("gpu", transfer, kernel, dims, precision, iterations)
                    )
    return keys


#: content-addressed sweep-cache keys, as the serve layer hashes them
CACHE_KEYS = tuple(
    hashlib.sha256(f"cache-{i}".encode()).hexdigest() for i in range(16)
)

#: every key shape a retry is priced under: a sample key, a pool shard,
#: a dispatch fingerprint and a client request
BACKOFF_KEYS = (
    ("gemm", "square", "single", "gpu", "once", 64, 64, 64, 8),
    ("gemv", "tall", "double", "cpu", None, 4096, 32, 0, 1),
    ("shard", 0),
    ("shard", 5),
    (hashlib.sha256(b"scenario").hexdigest(),),
    ("POST", "/v1/threshold"),
)


def _bits(flags) -> str:
    return "".join("1" if flag else "0" for flag in flags)


def _table(sweep_fires, serve_fires, fleet, backoff) -> dict:
    """The pin table, given one callable per layer:
    ``sweep_fires(plan_name, kind, seed, key, attempt)``,
    ``serve_fires(preset, kind, seed, key, attempt)``,
    ``fleet(kind, seed) -> (victim(n), trigger)`` and
    ``backoff(seed, attempt, key)``."""
    keys = cell_keys()
    sweep = {}
    for plan_name in ("uniform",) + SWEEP_KINDS:
        for kind in SWEEP_KINDS:
            if plan_name not in ("uniform", kind):
                continue
            for seed in SWEEP_SEEDS:
                sweep[f"{plan_name}/{kind}/{seed}"] = _bits(
                    sweep_fires(plan_name, kind, seed, key, attempt)
                    for attempt in SWEEP_ATTEMPTS for key in keys
                )
    serve = {
        f"{preset}/{kind}/{seed}": _bits(
            serve_fires(preset, kind, seed, key, attempt)
            for attempt in SERVE_ATTEMPTS for key in CACHE_KEYS
        )
        for preset in SERVE_PRESETS
        for kind in SERVE_KINDS
        for seed in SERVE_SEEDS
    }
    dist = {}
    for kind in FLEET_KINDS:
        for seed in FLEET_SEEDS:
            victim, trigger = fleet(kind, seed)
            dist[f"{kind}/{seed}"] = {
                "victims": [victim(n) for n in FLEET_SIZES],
                "trigger": trigger,
            }
    jitter = {
        str(seed): [
            [backoff(seed, attempt, key).hex() for attempt in BACKOFF_ATTEMPTS]
            for key in BACKOFF_KEYS
        ]
        for seed in BACKOFF_SEEDS
    }
    return {"sweep": sweep, "serve": serve, "dist": dist, "backoff": jitter}


def legacy_draws() -> dict:
    """The pin table drawn by the pre-merge plan classes."""
    from repro.core.runner import RetryPolicy
    from repro.faults.distchaos import DistChaosKind, DistChaosPlan
    from repro.faults.plan import FaultKind, FaultPlan
    from repro.faults.servechaos import ServeChaosKind, ServeChaosPlan

    def sweep_fires(plan_name, kind, seed, key, attempt):
        if plan_name == "uniform":
            plan = FaultPlan.uniform(0.3, seed=seed, device_lost_rate=0.01)
        else:
            plan = FaultPlan(seed=seed, rates={FaultKind(kind): 0.5})
        return plan.fires(FaultKind(kind), key, attempt)

    def serve_fires(preset, kind, seed, key, attempt):
        plan = ServeChaosPlan.parse(f"{preset}:{seed}")
        return plan.fires(ServeChaosKind(kind), (key, attempt))

    def fleet(kind, seed):
        plan = DistChaosPlan(kind=DistChaosKind(kind), seed=seed)
        return plan.victim, plan.trigger_assignment()

    def backoff(seed, attempt, key):
        return RetryPolicy(seed=seed).backoff_s(attempt, key)

    return _table(sweep_fires, serve_fires, fleet, backoff)


def current_draws() -> dict:
    """The same table drawn through :mod:`repro.chaos`."""
    from repro.chaos import ChaosKind, ChaosPlan
    from repro.core.runner import RetryPolicy

    def sweep_fires(plan_name, kind, seed, key, attempt):
        if plan_name == "uniform":
            plan = ChaosPlan.uniform(0.3, seed=seed, device_lost_rate=0.01)
        else:
            plan = ChaosPlan(seed=seed, rates={ChaosKind(kind): 0.5})
        return plan.fires(ChaosKind(kind), key, attempt)

    def serve_fires(preset, kind, seed, key, attempt):
        plan = ChaosPlan.parse(f"{preset}:{seed}", "serve")
        return plan.fires(ChaosKind(kind), (key,), attempt)

    def fleet(kind, seed):
        plan = ChaosPlan.parse(f"{kind}:{seed}", "dist")
        return plan.victim, plan.trigger_assignment()

    def backoff(seed, attempt, key):
        return RetryPolicy(seed=seed).backoff_s(attempt, key)

    return _table(sweep_fires, serve_fires, fleet, backoff)


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.fixture(scope="module")
def current():
    return current_draws()


@pytest.mark.parametrize("layer", ("sweep", "serve", "dist", "backoff"))
def test_every_draw_matches_its_pin(layer, pins, current):
    assert current[layer].keys() == pins[layer].keys()
    for name, pinned in pins[layer].items():
        assert current[layer][name] == pinned, f"{layer} {name}"


def test_pins_exercise_both_outcomes(pins):
    """A pin that never fires, or always does, proves nothing about
    the draw behind it."""
    for layer in ("sweep", "serve"):
        bits = "".join(pins[layer].values())
        assert "0" in bits and "1" in bits, layer
    victims = {v for entry in pins["dist"].values() for v in entry["victims"]}
    assert victims == set(range(5))
    assert {entry["trigger"] for entry in pins["dist"].values()} == {1, 2}


def test_injector_acts_out_the_pinned_sweep_draws(pins):
    """The injector's own key layout reaches the pinned draws: a CPU
    cell under a kernel-only plan raises exactly where the pins fire."""
    from repro.backends import AnalyticBackend
    from repro.chaos import ChaosKind, ChaosPlan
    from repro.errors import TransientKernelError
    from repro.faults import FaultInjector
    from repro.systems.catalog import make_model
    from repro.types import Dims, Kernel, Precision

    keys = cell_keys()
    for seed in SWEEP_SEEDS:
        bits = pins["sweep"][f"kernel/kernel/{seed}"]
        inj = FaultInjector(
            AnalyticBackend(make_model("dawn")),
            ChaosPlan(seed=seed, rates={ChaosKind.KERNEL: 0.5}),
        )
        for i, key in enumerate(keys):
            if key[0] != "cpu":
                continue
            _, _, kernel, dims, precision, iterations = key
            raised = []
            for _ in SWEEP_ATTEMPTS:
                try:
                    inj.cpu_sample(Kernel(kernel), Dims(*dims),
                                   Precision(precision), iterations)
                except TransientKernelError:
                    raised.append(True)
                else:
                    raised.append(False)
            expected = [
                bits[attempt * len(keys) + i] == "1"
                for attempt in SWEEP_ATTEMPTS
            ]
            assert raised == expected, (seed, key)


if __name__ == "__main__":
    PINS.write_text(json.dumps(legacy_draws(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
