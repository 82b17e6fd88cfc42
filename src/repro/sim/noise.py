"""Deterministic run-to-run noise.

Real sweeps jitter by a percent or two; the simulator reproduces that
with a *deterministic* multiplicative factor derived from a CRC of the
sample key, so identical configurations always produce identical
curves (a property the ablation benchmark relies on).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache

from ..errors import ConfigError

__all__ = ["NO_NOISE", "DeterministicNoise", "NoiseModel"]


@lru_cache(maxsize=1 << 14)
def _crc_unit(seed: int, key: tuple) -> float:
    """Memoized CRC draw in [0, 1].  Pure in (seed, key), and sweep
    re-runs (warm caches, repeated bench rounds, resumed configs) ask
    for the same keys again — caching skips the repr+CRC round trip
    without changing a single drawn value.

    The bound is memory, not hit rate: a serving daemon lives long and
    sweeps many cold keys, and at 2^17 entries its memo grew to about
    43 MiB over 120 cold sweeps; 2^14 caps it near 8 MiB.  That still
    holds a sweep's keys whole — a 2,052-cell serve query, the 8,208
    of the sweep-throughput bench, the 6,240 of a DES smoke campaign —
    so their re-runs stay memo-warm.  A full Table III-VI matrix
    (about 1.3 x 10^5 distinct keys) no longer fits and redraws cold.
    """
    return zlib.crc32(repr((seed,) + key).encode()) / 0xFFFFFFFF


@dataclass(frozen=True)
class NoiseModel:
    """Base: no noise.  ``factor`` maps a hashable sample key to a
    multiplicative time factor."""

    amplitude: float = 0.0

    def __post_init__(self) -> None:
        # amplitude >= 1 would allow a zero or negative time factor,
        # which poisons every GFLOP/s rate downstream.
        if not 0.0 <= self.amplitude < 1.0:
            raise ConfigError(
                f"noise amplitude must be in [0, 1), got {self.amplitude}"
            )

    def factor(self, key: tuple) -> float:
        return 1.0

    def factor_batch(self, keys) -> "object":
        """Array of :meth:`factor` over a sequence of sample keys.

        The base class hashes nothing, so subclasses that keep the
        default identity factor get a constant-time batch path; noisy
        subclasses inherit an exact per-key loop.
        """
        import numpy as np

        if type(self).factor is NoiseModel.factor:
            return np.ones(len(keys))
        return np.array([self.factor(key) for key in keys])


@dataclass(frozen=True)
class DeterministicNoise(NoiseModel):
    """Uniform multiplicative noise in ``1 +/- amplitude``, keyed by a
    stable CRC32 of (seed, key)."""

    amplitude: float = 0.02
    seed: int = 0

    def factor(self, key: tuple) -> float:
        if self.amplitude == 0.0:
            return 1.0
        unit = _crc_unit(self.seed, tuple(key))
        return 1.0 + self.amplitude * (2.0 * unit - 1.0)

    def factor_batch(self, keys):
        """Batch draw: the CRC stays per-key (and memoized), but the
        unit-to-factor arithmetic vectorizes.  CRC digests fit float64
        exactly (< 2**32), so each factor is bit-identical to
        :meth:`factor`."""
        import numpy as np

        if self.amplitude == 0.0:
            return np.ones(len(keys))
        seed = self.seed
        units = np.fromiter(
            (_crc_unit(seed, key) for key in keys),
            dtype=np.float64,
            count=len(keys),
        )
        return 1.0 + self.amplitude * (2.0 * units - 1.0)


NO_NOISE = NoiseModel()
