"""``gpu-blob fsck``: artifact auditing and repair.

The acceptance bar: a *single flipped byte* in any journal record or
cache entry must be detected, and ``--repair`` must move the damage out
of the way (never silently drop it) so a re-audit comes back clean.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import repro.cli as cli
from repro import AnalyticBackend, RunConfig, make_model, run_sweep
from repro.core.csvio import write_run
from repro.core.fsck import fsck_envelope as fsck_cache_entry
from repro.core.fsck import (
    fsck_journal,
    fsck_paths,
    fsck_results_csv,
)
from repro.types import Kernel, Precision

FORMATS = Path(__file__).parent / "data" / "formats"

CONFIG = RunConfig(
    max_dim=64, step=16, iterations=8,
    kernels=(Kernel.GEMM,), precisions=(Precision.SINGLE,),
)


def _backend():
    return AnalyticBackend(make_model("dawn"))


def _artifacts(tmp_path, cache=False, checkpoint=False, output=False):
    kwargs = {}
    if cache:
        kwargs["cache_dir"] = tmp_path / "cache"
    if checkpoint:
        kwargs["checkpoint"] = tmp_path / "ck.jsonl"
    result = run_sweep(_backend(), CONFIG, "dawn", **kwargs)
    if output:
        write_run(result, tmp_path / "out")
    return result


def _flip_byte(path, offset_from_end=10):
    blob = bytearray(path.read_bytes())
    blob[len(blob) - offset_from_end] ^= 0x01
    path.write_bytes(bytes(blob))


# -- journals ---------------------------------------------------------


def test_clean_journal_verifies(tmp_path):
    _artifacts(tmp_path, checkpoint=True)
    assert fsck_journal(tmp_path / "ck.jsonl") == []


def test_flipped_byte_in_any_journal_record_is_detected(tmp_path):
    _artifacts(tmp_path, checkpoint=True)
    pristine = (tmp_path / "ck.jsonl").read_text()
    n_lines = len(pristine.splitlines())
    assert n_lines > 3
    for line_no in range(1, n_lines + 1):
        lines = pristine.splitlines()
        target = bytearray(lines[line_no - 1].encode())
        target[len(target) // 2] ^= 0x01  # flip one bit mid-record
        lines[line_no - 1] = target.decode("latin-1")
        journal = tmp_path / "ck.jsonl"
        journal.write_text("\n".join(lines) + "\n")
        findings = fsck_journal(journal)
        assert findings, f"flip in line {line_no} went undetected"
        assert f"line {line_no}" in findings[0].problem


def test_journal_repair_rewrites_and_sidelines(tmp_path):
    _artifacts(tmp_path, checkpoint=True)
    journal = tmp_path / "ck.jsonl"
    lines = journal.read_text().splitlines()
    lines[2] = lines[2].replace(":", ";", 1)  # unparseable mid-file
    journal.write_text("\n".join(lines) + "\n")
    findings = fsck_journal(journal, repair=True)
    assert [f.repaired for f in findings] == [True]
    assert fsck_journal(journal) == []  # clean after repair
    sidecar = tmp_path / "ck.jsonl.bad"
    assert len(sidecar.read_text().splitlines()) == 1  # nothing dropped
    # the repaired journal is resumable: one cell re-runs, rest replay
    resumed = run_sweep(
        _backend(), CONFIG, "dawn", checkpoint=journal, resume=True
    )
    assert resumed.complete and resumed.stats.resumed_samples > 0


def test_torn_tail_is_reported_as_such(tmp_path):
    _artifacts(tmp_path, checkpoint=True)
    journal = tmp_path / "ck.jsonl"
    journal.write_text(journal.read_text()[:-20])
    findings = fsck_journal(journal)
    assert len(findings) == 1 and "torn" in findings[0].problem


def test_shard_journals_are_audited(tmp_path):
    """A parallel sweep's per-worker ``*.jsonl.shard-<i>`` journals are
    journals too: a flipped byte in one fails the directory audit."""
    _artifacts(tmp_path, checkpoint=True)
    shard = tmp_path / "ck.jsonl.shard-0"
    lines = (tmp_path / "ck.jsonl").read_text().splitlines()
    lines[2] = lines[2].replace('"m":', '"n":', 1)
    shard.write_text("\n".join(lines) + "\n")
    (tmp_path / "ck.jsonl").unlink()
    findings = fsck_paths([tmp_path])
    assert [(f.path.name, f.problem) for f in findings] == [
        ("ck.jsonl.shard-0", "line 3: record checksum mismatch")
    ]
    assert cli.main(["fsck", str(tmp_path)]) == 4
    assert cli.main(["fsck", "--repair", str(tmp_path)]) == 0
    assert fsck_paths([tmp_path]) == []


def test_headerless_journal_is_not_repairable(tmp_path):
    journal = tmp_path / "ck.jsonl"
    journal.write_text("garbage\n")
    findings = fsck_journal(journal, repair=True)
    assert findings and not all(f.repaired for f in findings)


# -- cache entries ----------------------------------------------------


def test_flipped_byte_in_cache_entry_is_detected_and_quarantined(tmp_path):
    _artifacts(tmp_path, cache=True)
    (entry,) = (tmp_path / "cache").glob("*.json")
    _flip_byte(entry)
    findings = fsck_cache_entry(entry)
    assert findings and not findings[0].repaired
    findings = fsck_cache_entry(entry, repair=True)
    assert findings[0].repaired
    assert not entry.exists()
    assert (tmp_path / "cache" / "quarantine" / entry.name).exists()


def test_fsck_passes_every_cache_version_and_fails_a_base64_digit(tmp_path):
    """A v2 entry an older build wrote and a v3 entry of this build both
    audit clean; one flipped digit inside v3's base64 arrays, still
    valid base64 and valid JSON, fails the digest and exits 4."""
    _artifacts(tmp_path, cache=True)
    cache = tmp_path / "cache"
    (v3,) = cache.glob("*.json")
    (v2,) = (FORMATS / "cache").glob("*.json")
    shutil.copyfile(v2, cache / v2.name)
    assert json.loads(v3.read_text())["version"] == 3
    assert cli.main(["fsck", str(cache)]) == 0
    blob = v3.read_bytes()
    start = blob.index(b'"data":"') + len(b'"data":"')
    digit = next(i for i in range(start, len(blob)) if blob[i:i + 1].isdigit())
    v3.write_bytes(blob[:digit] + bytes([blob[digit] ^ 0x01])
                   + blob[digit + 1:])
    assert cli.main(["fsck", str(cache)]) == 4
    (finding,) = fsck_paths([cache])
    assert finding.path == v3 and "sha256" in finding.problem


# -- results CSVs -----------------------------------------------------


def test_results_csv_checks(tmp_path):
    _artifacts(tmp_path, output=True)
    (csv_path,) = (tmp_path / "out").glob("*.csv")
    assert fsck_results_csv(csv_path) == []
    text = csv_path.read_text()
    csv_path.write_text(text.replace("8,", "-8,", 1))  # negative field
    findings = fsck_results_csv(csv_path)
    assert findings
    # filename <-> content mismatch: rename to a different _iN suffix
    renamed = csv_path.with_name(csv_path.name.replace("_i8", "_i4"))
    csv_path.write_text(text)
    csv_path.replace(renamed)
    findings = fsck_results_csv(renamed)
    assert findings and "_i4" in findings[0].problem


# -- dispatcher + end-to-end ------------------------------------------


def test_fsck_paths_audits_a_whole_run_and_repairs(tmp_path):
    _artifacts(tmp_path, cache=True, checkpoint=False, output=True)
    _artifacts(tmp_path, checkpoint=True)
    targets = [tmp_path / "cache", tmp_path / "out", tmp_path / "ck.jsonl"]
    assert fsck_paths(targets) == []
    (entry,) = (tmp_path / "cache").glob("*.json")
    _flip_byte(entry)
    journal = tmp_path / "ck.jsonl"
    lines = journal.read_text().splitlines()
    lines[1] = json.dumps({"t": "sample", "cs": "forged"})
    journal.write_text("\n".join(lines) + "\n")
    findings = fsck_paths(targets)
    assert {f.kind for f in findings} == {"cache", "journal"}
    assert all(not f.repaired for f in findings)
    repaired = fsck_paths(targets, repair=True)
    assert repaired and all(f.repaired for f in repaired)
    assert fsck_paths(targets) == []


def test_missing_path_is_a_finding(tmp_path):
    findings = fsck_paths([tmp_path / "nope"])
    assert findings and "does not exist" in findings[0].problem
