"""CLI error surface: one-line stderr messages and the exit-code map.

The three error families map to distinct exit codes — configuration 2,
sweep fault 3, integrity 4 — and every failure prints a single
``gpu-blob: error: ...`` line to stderr, never a traceback.  The
``fsck`` and ``cache prune`` subcommands ride the same contract.
"""

from __future__ import annotations

import pytest

import repro.cli as cli
from repro import AnalyticBackend, RunConfig, make_model, run_sweep
from repro.errors import (
    CheckpointError,
    ConfigError,
    ModelInvariantError,
    TransientKernelError,
)
from repro.types import Kernel, Precision

CONFIG = RunConfig(
    max_dim=64, step=16, iterations=8,
    kernels=(Kernel.GEMM,), precisions=(Precision.SINGLE,),
)

SWEEP = ["-i", "8", "-d", "64", "--step", "16", "--system", "dawn",
         "--kernel", "gemm", "--precision", "single", "--no-cache",
         "--quiet"]


def _error_line(capsys):
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if line]
    assert len(lines) == 1, f"expected one stderr line, got: {captured.err!r}"
    assert lines[0].startswith("gpu-blob: error: ")
    return lines[0]


def test_config_error_exits_2(capsys):
    assert cli.main(SWEEP + ["--max-retries", "-1"]) == 2
    assert "max_retries" in _error_line(capsys)


def test_resume_without_checkpoint_exits_2(capsys):
    assert cli.main(SWEEP + ["--resume"]) == 2
    assert "--checkpoint" in _error_line(capsys)


def test_sweep_fault_error_exits_3(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise TransientKernelError("kernel launch failed and stayed failed")

    monkeypatch.setattr(cli, "run_sweep", explode)
    assert cli.main(SWEEP) == 3
    assert "kernel launch failed" in _error_line(capsys)


def test_corrupt_checkpoint_resume_exits_4(capsys, tmp_path):
    ckpt = tmp_path / "ck.jsonl"
    run_sweep(
        AnalyticBackend(make_model("dawn")), CONFIG, "dawn", checkpoint=ckpt
    )
    lines = ckpt.read_text().splitlines()
    lines[1] = lines[1].replace(":", ";", 1)
    ckpt.write_text("\n".join(lines) + "\n")
    code = cli.main(SWEEP + ["--checkpoint", str(ckpt), "--resume"])
    assert code == 4
    assert "corrupt" in _error_line(capsys)


def test_strict_invariant_violation_exits_4(capsys, monkeypatch):
    def reject(*args, **kwargs):
        raise ModelInvariantError("spec calibrated above its link peak")

    monkeypatch.setattr(cli, "run_sweep", reject)
    assert cli.main(SWEEP + ["--strict"]) == 4
    assert "link peak" in _error_line(capsys)


def test_exit_code_map_covers_the_hierarchy():
    assert cli._exit_code(ConfigError("x")) == 2
    assert cli._exit_code(TransientKernelError("x")) == 3
    assert cli._exit_code(CheckpointError("x")) == 4
    assert cli._exit_code(ModelInvariantError("x")) == 4


# -- fsck subcommand --------------------------------------------------


def test_fsck_clean_exits_0(capsys, tmp_path):
    ckpt = tmp_path / "ck.jsonl"
    run_sweep(
        AnalyticBackend(make_model("dawn")), CONFIG, "dawn", checkpoint=ckpt
    )
    assert cli.main(["fsck", str(ckpt)]) == 0
    assert "all artifacts verify" in capsys.readouterr().out


def test_fsck_detects_then_repairs(capsys, tmp_path):
    cache = tmp_path / "cache"
    run_sweep(AnalyticBackend(make_model("dawn")), CONFIG, "dawn",
              cache_dir=cache)
    (entry,) = cache.glob("*.json")
    blob = bytearray(entry.read_bytes())
    for i in range(len(blob) - 1, 0, -1):
        if chr(blob[i]).isdigit():  # stay valid JSON: only the digest trips
            blob[i] ^= 0x01
            break
    entry.write_bytes(bytes(blob))
    assert cli.main(["fsck", str(cache)]) == 4
    captured = capsys.readouterr()
    assert "sha256 mismatch" in captured.out
    assert "re-run with --repair" in captured.err
    assert cli.main(["fsck", str(cache), "--repair"]) == 0
    assert "repaired 1 problem" in capsys.readouterr().out
    assert cli.main(["fsck", str(cache)]) == 0


def test_fsck_missing_path_exits_4(capsys, tmp_path):
    assert cli.main(["fsck", str(tmp_path / "ghost")]) == 4
    capsys.readouterr()


# -- cache prune subcommand -------------------------------------------


def test_cache_prune_evicts_and_reports(capsys, tmp_path):
    cache = tmp_path / "cache"
    run_sweep(AnalyticBackend(make_model("dawn")), CONFIG, "dawn",
              cache_dir=cache)
    assert cli.main(["cache", "prune", "--cache-dir", str(cache),
                     "--max-entries", "0"]) == 0
    assert "pruned 1 cache entry" in capsys.readouterr().out
    assert not list(cache.glob("*.json"))


def test_cache_prune_negative_bound_exits_2(capsys, tmp_path):
    code = cli.main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--max-entries", "-2"])
    assert code == 2
    assert "max_entries" in _error_line(capsys)


@pytest.mark.parametrize("plan", ("node-kill", "meteor-strike"))
def test_serve_takes_only_serve_chaos_presets(capsys, tmp_path, plan):
    rc = cli.main([
        "serve", "--port", "0", "--cache-dir", str(tmp_path),
        "--chaos-plan", plan,
    ])
    assert rc == 2
    assert "valid: light, heavy, blackout" in _error_line(capsys)


def test_strict_and_shard_timeout_flags_reach_run_sweep(capsys, monkeypatch):
    seen = {}

    def spy(backend, config, **kwargs):
        seen["validate"] = config.validate
        seen["shard_timeout_s"] = kwargs.get("shard_timeout_s")
        raise ConfigError("stop here")

    monkeypatch.setattr(cli, "run_sweep", spy)
    assert cli.main(SWEEP + ["--strict", "--shard-timeout", "2.5"]) == 2
    capsys.readouterr()
    assert seen == {"validate": True, "shard_timeout_s": 2.5}
