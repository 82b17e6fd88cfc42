"""Content-addressed sweep cache: hits replay bit-identical results.

The cache key is the checkpoint config fingerprint plus the backend's
``cache_token``; a hit must reproduce the stored run exactly (floats
are stored as raw bits), a changed model or config must miss, and
anything fault-touched or incomplete must never be stored.
"""

from __future__ import annotations

import warnings

import pytest

from repro import AnalyticBackend, FaultPlan, RetryPolicy, make_model, run_sweep
from repro.backends.des import DesBackend
from repro.core.config import RunConfig
from repro.core.csvio import write_run
from repro.core.sweepcache import sweep_cache_key
from repro.errors import CacheIntegrityWarning, PartialSweepWarning
from repro.sim.noise import DeterministicNoise
from repro.types import Kernel, Precision

CONFIG = RunConfig(
    max_dim=64, step=16, iterations=8,
    kernels=(Kernel.GEMM,), precisions=(Precision.SINGLE,),
)


def _backend(system="dawn", **model_kwargs):
    return AnalyticBackend(make_model(system, **model_kwargs))


def test_cache_hit_is_bit_identical(tmp_path):
    cache = tmp_path / "cache"
    first = run_sweep(_backend(), CONFIG, "dawn", cache_dir=cache)
    assert first.stats.cached_samples == 0
    entries = list(cache.glob("*.json"))
    assert len(entries) == 1

    hit = run_sweep(_backend(), CONFIG, "dawn", cache_dir=cache)
    assert hit == first
    assert hit.series == first.series
    assert hit.stats.cached_samples == sum(
        len(s.all_samples()) for s in first.series
    )


def test_cache_hit_csvs_byte_identical(tmp_path):
    cache = tmp_path / "cache"
    first = run_sweep(_backend(), CONFIG, "dawn", cache_dir=cache)
    hit = run_sweep(_backend(), CONFIG, "dawn", cache_dir=cache)
    a = {p.name: p.read_bytes() for p in write_run(first, tmp_path / "a")}
    b = {p.name: p.read_bytes() for p in write_run(hit, tmp_path / "b")}
    assert a == b


def test_different_model_or_config_misses(tmp_path):
    cache = tmp_path / "cache"
    run_sweep(_backend(), CONFIG, "dawn", cache_dir=cache)
    # different noise seed -> different cache_token -> second entry
    other = _backend(noise=DeterministicNoise(amplitude=0.01, seed=9))
    run_sweep(other, CONFIG, "dawn", cache_dir=cache)
    assert len(list(cache.glob("*.json"))) == 2
    # different config -> third entry
    wider = RunConfig(
        max_dim=96, step=16, iterations=8,
        kernels=(Kernel.GEMM,), precisions=(Precision.SINGLE,),
    )
    run_sweep(_backend(), wider, "dawn", cache_dir=cache)
    assert len(list(cache.glob("*.json"))) == 3


def test_backend_kind_disambiguates_key():
    analytic = _backend("lumi")
    des = DesBackend(make_model("lumi"))
    a = sweep_cache_key(CONFIG, "lumi", analytic)
    d = sweep_cache_key(CONFIG, "lumi", des)
    assert a and d and a != d


def test_corrupt_entry_is_a_warned_miss_and_gets_rewritten(tmp_path):
    cache = tmp_path / "cache"
    first = run_sweep(_backend(), CONFIG, "dawn", cache_dir=cache)
    (entry,) = cache.glob("*.json")
    entry.write_text("{not json")
    with pytest.warns(CacheIntegrityWarning, match="not parseable"):
        again = run_sweep(_backend(), CONFIG, "dawn", cache_dir=cache)
    assert again == first
    assert again.stats.cached_samples == 0  # recomputed, not replayed
    third = run_sweep(_backend(), CONFIG, "dawn", cache_dir=cache)
    assert third.stats.cached_samples > 0  # the rewrite is readable


def test_single_flipped_byte_fails_the_digest(tmp_path):
    """A bit flip anywhere in the payload — still valid JSON — must be
    caught by ``payload_sha256`` and warned, never silently replayed."""
    cache = tmp_path / "cache"
    first = run_sweep(_backend(), CONFIG, "dawn", cache_dir=cache)
    (entry,) = cache.glob("*.json")
    blob = bytearray(entry.read_bytes())
    # flip the low bit of a digit inside the payload (past the
    # version/digest envelope at the front of the entry)
    for i in range(len(blob) - 1, 0, -1):
        if chr(blob[i]).isdigit():
            blob[i] ^= 0x01
            break
    entry.write_bytes(bytes(blob))
    import json

    json.loads(entry.read_text())  # still parseable: only the digest trips
    with pytest.warns(CacheIntegrityWarning, match="sha256"):
        again = run_sweep(_backend(), CONFIG, "dawn", cache_dir=cache)
    assert again == first
    assert again.stats.cached_samples == 0


def test_stale_version_is_a_quiet_miss(tmp_path):
    cache = tmp_path / "cache"
    run_sweep(_backend(), CONFIG, "dawn", cache_dir=cache)
    (entry,) = cache.glob("*.json")
    import json

    stale = json.loads(entry.read_text())
    stale["version"] = 1
    entry.write_text(json.dumps(stale))
    with warnings.catch_warnings():
        warnings.simplefilter("error", CacheIntegrityWarning)
        again = run_sweep(_backend(), CONFIG, "dawn", cache_dir=cache)
    assert again.stats.cached_samples == 0


def test_prune_evicts_least_recently_used_first(tmp_path):
    import os
    import time

    from repro import prune_cache

    cache = tmp_path / "cache"
    configs = [
        RunConfig(max_dim=dim, step=16, iterations=8,
                  kernels=(Kernel.GEMM,), precisions=(Precision.SINGLE,))
        for dim in (48, 64, 96)
    ]
    for cfg in configs:
        run_sweep(_backend(), cfg, "dawn", cache_dir=cache)
    entries = sorted(cache.glob("*.json"))
    assert len(entries) == 3
    # age all entries, then touch the first config via a cache *hit* —
    # hits refresh recency, so it must survive the prune
    for i, p in enumerate(entries):
        os.utime(p, (time.time() - 1000 + i, time.time() - 1000 + i))
    hit = run_sweep(_backend(), configs[0], "dawn", cache_dir=cache)
    assert hit.stats.cached_samples > 0
    evicted = prune_cache(cache, max_entries=1)
    assert len(evicted) == 2
    survivor = run_sweep(_backend(), configs[0], "dawn", cache_dir=cache)
    assert survivor.stats.cached_samples > 0  # the hit kept it alive


def test_prune_bounds_validation_and_bytes(tmp_path):
    from repro import ConfigError, prune_cache

    cache = tmp_path / "cache"
    run_sweep(_backend(), CONFIG, "dawn", cache_dir=cache)
    with pytest.raises(ConfigError):
        prune_cache(cache, max_entries=-1)
    with pytest.raises(ConfigError):
        prune_cache(cache, max_bytes=-5)
    assert prune_cache(tmp_path / "missing") == []
    assert prune_cache(cache, max_bytes=0) != []
    assert not list(cache.glob("*.json"))


def test_no_cache_dir_disables_caching(tmp_path):
    result = run_sweep(_backend(), CONFIG, "dawn")
    assert result.stats.cached_samples == 0
    assert not list(tmp_path.glob("**/*.json"))


def test_faulty_or_checkpointed_runs_bypass_the_cache(tmp_path):
    cache = tmp_path / "cache"
    plan = FaultPlan.uniform(0.3, seed=13)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PartialSweepWarning)
        run_sweep(
            _backend(), CONFIG, "dawn", faults=plan,
            retry=RetryPolicy(max_retries=1), cache_dir=cache,
        )
    assert not list(cache.glob("*.json"))  # fault-touched: never stored
    run_sweep(
        _backend(), CONFIG, "dawn", checkpoint=tmp_path / "ck.jsonl",
        cache_dir=cache,
    )
    assert not list(cache.glob("*.json"))  # journaled runs stay uncached


def test_host_backend_has_no_cache_token():
    from repro.backends.base import Backend

    class Tokenless(Backend):
        gpu_transfers = ()

        def cpu_sample(self, *args, **kwargs):  # pragma: no cover
            raise NotImplementedError

    assert Tokenless().cache_token is None
    assert sweep_cache_key(CONFIG, "host", Tokenless()) is None


def test_parallel_run_stores_and_hits_like_serial(tmp_path):
    cache = tmp_path / "cache"
    config = RunConfig(max_dim=64, step=16, iterations=8)
    first = run_sweep(_backend(), config, "dawn", jobs=4, cache_dir=cache)
    assert len(list(cache.glob("*.json"))) == 1
    hit = run_sweep(_backend(), config, "dawn", cache_dir=cache)
    assert hit == first and hit.stats.cached_samples > 0
