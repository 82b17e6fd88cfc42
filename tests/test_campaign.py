"""Campaign orchestration: matrix expansion, resume, drift detection.

The campaign contract is byte-level determinism: the same campaign file
must produce an identical aggregated report whether it ran serially,
sharded across workers, straight through, or interrupted and resumed —
and a report that differs from its stored golden is an integrity
failure (exit 4), not a shrug.
"""

from __future__ import annotations

import textwrap

import pytest

import repro.cli as cli
from repro.core.campaign import (
    CampaignSpec,
    assert_no_drift,
    check_drift,
    expand_scenarios,
    load_campaign,
    loads_campaign,
    run_campaign,
    write_report,
)
from repro.errors import CampaignDriftError, ConfigError
from repro.systems.specio import write_spec
from repro.types import Kernel, Precision, TransferType

SMALL = textwrap.dedent(
    """\
    schema = 1
    name = "unit"

    [matrix]
    systems = ["dawn", "lumi"]
    kernels = ["gemm"]
    problems = ["square", "mn_k32"]
    precisions = ["single", "double"]
    transfers = ["once", "always"]
    iterations = [8]

    [sweep]
    min_dim = 1
    max_dim = 128
    step = 32

    [execution]
    jobs = 2
    """
)


@pytest.fixture
def small_campaign(tmp_path):
    path = tmp_path / "unit.toml"
    path.write_text(SMALL)
    return load_campaign(path)


# -- loading ----------------------------------------------------------


def test_load_parses_the_full_schema(small_campaign):
    c = small_campaign
    assert c.name == "unit"
    assert c.systems == ("dawn", "lumi")
    assert c.kernels == (Kernel.GEMM,)
    assert c.precisions == (Precision.SINGLE, Precision.DOUBLE)
    assert c.transfers == (TransferType.ONCE, TransferType.ALWAYS)
    assert c.iterations == (8,)
    assert (c.min_dim, c.max_dim, c.step) == (1, 128, 32)
    assert c.jobs == 2
    assert c.matrix_size == 2 * 2 * 2 * 2  # systems x problems x prec x para


def test_defaults_fill_unspecified_tables():
    c = loads_campaign('name = "d"\n[matrix]\nsystems = ["dawn"]\n')
    assert c.kernels == (Kernel.GEMM, Kernel.GEMV)
    assert c.precisions == (Precision.SINGLE, Precision.DOUBLE)
    assert c.transfers == tuple(TransferType)
    assert c.iterations == (1,)
    assert c.jobs == 1
    assert c.golden is None


@pytest.mark.parametrize(
    "mutation, match",
    [
        ('name = "x"\n', "matrix.systems"),
        ('name = "x"\n[matrix]\nsystems = []\n', "matrix.systems"),
        ('name = "x"\n[matrix]\nsystems = ["dawn"]\nkernels = ["spmv"]\n',
         "spmv"),
        ('name = "x"\n[matrix]\nsystems = ["dawn"]\niterations = [0]\n',
         "iterations"),
        ('name = "x"\n[matrix]\nsystems = ["dawn"]\n[bogus]\nx = 1\n',
         "bogus"),
        # an unknown key inside any table is named, never ignored
        ('name = "x"\n[matrix]\nsystems = ["dawn"]\nsystem = "lumi"\n',
         r"'matrix\.system'"),
        ('name = "x"\n[matrix]\nsystems = ["dawn"]\n[sweep]\nstpe = 1\n',
         r"'sweep\.stpe'"),
        ('name = "x"\n[matrix]\nsystems = ["dawn"]\n[execution]\n'
         'adaptive = true\n', r"'execution\.adaptive'"),
        ('name = "x"\n[matrix]\nsystems = ["dawn"]\n[drift]\n'
         'goldne = "g.csv"\n', r"'drift\.goldne'"),
        ('schema = 9\nname = "x"\n[matrix]\nsystems = ["dawn"]\n', "schema"),
        ('[matrix]\nsystems = ["dawn"]\n', "name"),
    ],
)
def test_bad_campaign_files_are_config_errors(mutation, match):
    with pytest.raises(ConfigError, match=match):
        loads_campaign(mutation)


def test_campaign_spec_validates_directly():
    with pytest.raises(ConfigError, match="jobs"):
        CampaignSpec(name="x", systems=("dawn",), jobs=0)


# -- matrix expansion -------------------------------------------------


def test_expansion_covers_the_matrix(small_campaign):
    scenarios = expand_scenarios(small_campaign)
    # One scenario per (system, iterations); problems x precisions x
    # paradigms live inside each scenario's RunConfig as executor shards.
    assert [s.slug for s in scenarios] == ["00-dawn-i8", "01-lumi-i8"]
    for s in scenarios:
        assert len(s.config.problem_types()) == 2
        assert s.config.precisions == small_campaign.precisions
        assert s.config.transfers == small_campaign.transfers
        assert s.config.iterations == 8
    shards = sum(
        len(s.config.problem_types()) * len(s.config.precisions)
        for s in scenarios
    )
    assert shards * len(small_campaign.transfers) == \
        small_campaign.matrix_size


def test_path_idents_resolve_relative_to_the_campaign_file(tmp_path):
    import dataclasses

    from repro.systems import DAWN

    write_spec(
        dataclasses.replace(DAWN, name="byfile"), tmp_path / "byfile.toml"
    )
    path = tmp_path / "deep" / "c.toml"
    path.parent.mkdir()
    path.write_text(
        'name = "p"\n[matrix]\nsystems = ["../byfile.toml"]\n'
    )
    campaign = load_campaign(path)
    (scenario,) = expand_scenarios(campaign)
    assert scenario.system == str(tmp_path / "deep" / ".." / "byfile.toml")
    assert scenario.slug == "00-byfile-i1"


# -- execution and determinism ----------------------------------------


def test_serial_and_parallel_reports_are_byte_identical(
    small_campaign, tmp_path
):
    serial = run_campaign(small_campaign, jobs=1)
    parallel = run_campaign(small_campaign, jobs=2)
    assert serial.complete and parallel.complete
    write_report(serial, tmp_path / "serial")
    write_report(parallel, tmp_path / "parallel")
    for name in ("campaign_report.csv", "campaign_report.json"):
        assert (tmp_path / "serial" / name).read_bytes() == \
            (tmp_path / "parallel" / name).read_bytes()


def test_stop_after_then_resume_is_byte_identical(small_campaign, tmp_path):
    full = run_campaign(small_campaign)
    write_report(full, tmp_path / "full")

    partial = run_campaign(
        small_campaign, checkpoint_dir=tmp_path / "ck", stop_after=1
    )
    assert not partial.complete
    assert partial.executed == 1
    assert list((tmp_path / "ck").glob("ck-*.jsonl"))

    resumed = run_campaign(
        small_campaign, checkpoint_dir=tmp_path / "ck", resume=True
    )
    assert resumed.complete
    write_report(resumed, tmp_path / "resumed")
    for name in ("campaign_report.csv", "campaign_report.json"):
        assert (tmp_path / "full" / name).read_bytes() == \
            (tmp_path / "resumed" / name).read_bytes()


def test_report_rows_cover_every_matrix_cell(small_campaign):
    result = run_campaign(small_campaign)
    rows = result.rows()
    assert len(rows) == small_campaign.matrix_size
    cells = {
        (r["system"], r["problem"], r["precision"], r["transfer"])
        for r in rows
    }
    assert len(cells) == small_campaign.matrix_size
    assert all(r["iterations"] == "8" for r in rows)


# -- drift detection --------------------------------------------------


def test_drift_clean_against_own_report(small_campaign, tmp_path):
    result = run_campaign(small_campaign)
    write_report(result, tmp_path / "out")
    golden = tmp_path / "out" / "campaign_report.csv"
    assert check_drift(result.rows(), golden) == []
    assert_no_drift(result.rows(), golden)  # must not raise


def test_drift_flags_moved_vanished_and_new_rows(small_campaign, tmp_path):
    result = run_campaign(small_campaign)
    write_report(result, tmp_path / "out")
    golden = tmp_path / "out" / "campaign_report.csv"

    rows = [dict(r) for r in result.rows()]
    rows[0]["found"] = "1" if rows[0]["found"] == "0" else "0"
    vanished = rows.pop()
    extra = dict(vanished)
    extra["problem"] = "invented"
    rows.append(extra)

    drifts = check_drift(rows, golden)
    assert len(drifts) == 3
    text = "\n".join(drifts)
    assert "moved" in text and "vanished" in text and "not in golden" in text
    with pytest.raises(CampaignDriftError) as excinfo:
        assert_no_drift(rows, golden)
    assert excinfo.value.drifts == tuple(drifts)


def test_golden_with_wrong_columns_is_a_config_error(
    small_campaign, tmp_path
):
    bogus = tmp_path / "g.csv"
    bogus.write_text("a,b\n1,2\n")
    with pytest.raises(ConfigError, match="columns"):
        check_drift(run_campaign(small_campaign).rows(), bogus)


# -- CLI --------------------------------------------------------------


def _write_cli_campaign(tmp_path) -> str:
    path = tmp_path / "cli.toml"
    path.write_text(SMALL.replace('"unit"', '"cli"'))
    return str(path)


def test_cli_campaign_end_to_end(tmp_path, capsys):
    campaign = _write_cli_campaign(tmp_path)
    out = tmp_path / "out"
    code = cli.main([
        "campaign", campaign, "-o", str(out), "--no-cache", "--quiet",
    ])
    assert code == 0
    capsys.readouterr()
    assert (out / "campaign_report.csv").is_file()
    assert (out / "campaign_report.json").is_file()
    # per-scenario series CSVs ride along for auditability
    assert list((out / "00-dawn-i8").glob("*.csv"))

    # Clean golden passes; a perturbed golden exits 4.
    assert cli.main([
        "campaign", campaign, "--no-cache", "--quiet",
        "--golden", str(out / "campaign_report.csv"),
    ]) == 0
    capsys.readouterr()
    golden = out / "campaign_report.csv"
    perturbed = tmp_path / "perturbed.csv"
    body = golden.read_text()
    assert ",8,0," in body
    perturbed.write_text(body.replace(",8,0,", ",8,1,", 1))
    assert cli.main([
        "campaign", campaign, "--no-cache", "--quiet",
        "--golden", str(perturbed),
    ]) == 4
    assert "drifted" in capsys.readouterr().err


def test_cli_campaign_stop_resume_cycle(tmp_path, capsys):
    campaign = _write_cli_campaign(tmp_path)
    full = tmp_path / "full"
    assert cli.main([
        "campaign", campaign, "-o", str(full), "--no-cache", "--quiet",
    ]) == 0
    assert cli.main([
        "campaign", campaign, "--checkpoint-dir", str(tmp_path / "ck"),
        "--stop-after", "1", "--no-cache", "--quiet",
    ]) == 0
    resumed = tmp_path / "resumed"
    assert cli.main([
        "campaign", campaign, "-o", str(resumed),
        "--checkpoint-dir", str(tmp_path / "ck"), "--resume",
        "--no-cache", "--quiet",
    ]) == 0
    capsys.readouterr()
    assert (full / "campaign_report.csv").read_bytes() == \
        (resumed / "campaign_report.csv").read_bytes()


def test_cli_campaign_resume_needs_checkpoint_dir(tmp_path, capsys):
    campaign = _write_cli_campaign(tmp_path)
    assert cli.main(["campaign", campaign, "--resume"]) == 2
    assert "--checkpoint-dir" in capsys.readouterr().err


def test_cli_campaign_missing_file_exits_2(tmp_path, capsys):
    assert cli.main(["campaign", str(tmp_path / "ghost.toml")]) == 2
    assert "cannot read campaign file" in capsys.readouterr().err
