"""``gpu-blob`` — the sweep CLI, mirroring the C++ benchmark's flags.

Examples::

    gpu-blob -i 8 -s 1 -d 4096 --system dawn --step 4 -o results/dawn-i8
    gpu-blob -i 1 -d 4096 --system lumi --cpu-only
    gpu-blob -i 4 -d 256 --backend host --kernel gemm
    gpu-blob -i 8 -d 512 --system lumi --backend des --step 4
    gpu-blob -i 8 -d 512 --system lumi --faults --fault-rate 0.3 \
        --max-retries 2 --checkpoint ck.jsonl -o results/chaos
    gpu-blob -i 8 -d 512 --system lumi --checkpoint ck.jsonl --resume
    gpu-blob -i 8 -d 512 --system dawn --strict -j 4
    gpu-blob -i 8 -d 512 --system specs/lumi.toml --step 8
    gpu-blob fsck results/dawn-i8 ck.jsonl --repair
    gpu-blob cache prune --max-entries 32
    gpu-blob cache stats --json
    gpu-blob serve --port 8377 --workers 2 --rate 50
    gpu-blob serve --wal /var/lib/gpu-blob/serve-wal.jsonl --lease 120 \
        --breaker-threshold 3 --breaker-reset 30
    gpu-blob serve --chaos-plan heavy:7 --sweep-jobs 2   # fire drill
    gpu-blob campaign campaigns/ci-smoke.toml -o results/campaign/ci-smoke
    gpu-blob campaign campaigns/ci-smoke.toml --checkpoint-dir ck --resume
    gpu-blob campaign campaigns/ci-smoke.toml --dry-run
    gpu-blob campaign campaigns/ci-smoke.toml --workers 3 --lease 10 \
        -o results/campaign/ci-smoke     # distributed, ledger-coordinated
    gpu-blob campaign campaigns/ci-smoke.toml --workers 3 \
        --chaos-plan node-kill:7         # fleet fire drill
    gpu-blob query --port 8377 --system dawn --kernel gemm -i 8
    gpu-blob spec lint specs
    gpu-blob spec list

``--system`` accepts a registry name (``dawn``, ``lumi``,
``isambard-ai``, or anything on ``$REPRO_SPEC_PATH``/``./specs``) or a
path to a ``.toml``/``.json`` spec file.

With ``-o`` the per-series CSVs land in the given directory (plus a
``quarantine.json`` report when samples were quarantined); without it
the threshold summary table prints to stdout either way.

Error exit codes map the three error families: configuration problems
exit 2, sweep faults that escape the resilience machinery exit 3, and
integrity failures (corrupt journals/cache entries, strict-mode model
invariant violations) exit 4 — ``fsck`` uses the same 4 for any
unrepaired finding.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .backends import backend_names, make_backend
from .chaos import PRESETS, ChaosPlan
from .core.config import RunConfig
from .core.csvio import write_run
from .core.runner import RetryPolicy, run_sweep
from .core.tables import run_summary
from .errors import IntegrityError, ReproError, SweepFaultError
from .systems.catalog import make_model
from .types import ALL_PRECISIONS, Kernel, Precision, TransferType

__all__ = [
    "build_campaign_parser",
    "build_parser",
    "build_query_parser",
    "build_spec_parser",
    "main",
]

#: Default location of the content-addressed sweep cache.
DEFAULT_CACHE_DIR = "results/.sweep-cache"


def _exit_code(exc: ReproError) -> int:
    """Config = 2, sweep fault = 3, integrity = 4 (see module doc)."""
    if isinstance(exc, IntegrityError):
        return 4
    if isinstance(exc, SweepFaultError):
        return 3
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpu-blob",
        description=(
            "Sweep GEMM/GEMV problem sizes across CPU and GPU and report "
            "GPU offload thresholds (analytic GPU-BLOB model)."
        ),
    )
    parser.add_argument(
        "-i", "--iterations", type=int, default=1, metavar="N",
        help="data re-use: BLAS calls per measured offload (default 1)",
    )
    parser.add_argument(
        "-s", "--start", type=int, default=1, metavar="DIM",
        help="smallest swept dimension parameter (default 1)",
    )
    parser.add_argument(
        "-d", "--dim", type=int, default=4096, metavar="DIM",
        help="largest swept dimension parameter (default 4096)",
    )
    parser.add_argument(
        "--step", type=int, default=8, metavar="N",
        help="sweep stride; the largest size is always included (default 8)",
    )
    parser.add_argument(
        "--system", default="isambard-ai", metavar="NAME|SPEC",
        help="modelled system: a registry/spec name or a path to a "
        ".toml/.json system-spec file (default isambard-ai)",
    )
    parser.add_argument(
        "--kernel", choices=("gemm", "gemv", "both"), default="both",
        help="which BLAS kernels to sweep (default both)",
    )
    parser.add_argument(
        "--problem", action="append", dest="problems", metavar="IDENT",
        help="problem type ident (repeatable; default: square)",
    )
    parser.add_argument(
        "--precision", choices=("single", "double", "both"), default="both",
        help="floating-point width(s) to sweep (default both)",
    )
    parser.add_argument(
        "--transfer",
        action="append",
        dest="transfers",
        choices=tuple(t.value for t in TransferType),
        metavar="PARADIGM",
        help="transfer paradigm (repeatable; default: all three)",
    )
    parser.add_argument(
        "--cpu-only", action="store_true",
        help="skip the GPU side entirely (split-run style)",
    )
    parser.add_argument(
        "--backend", choices=backend_names(), default="analytic",
        help="'analytic' evaluates the closed-form model; 'des' replays "
        "each measurement on the discrete-event engine; 'host' times "
        "real numpy kernels on this machine's CPU (default analytic)",
    )
    parser.add_argument(
        "--usm-pages", action="store_true",
        help="with --backend des: quantize unified-memory migration to "
        "whole pages and fault batches (driver-realistic accounting)",
    )
    resilience = parser.add_argument_group("resilience")
    resilience.add_argument(
        "--faults", action="store_true",
        help="inject deterministic, seeded faults (transient kernel/DMA "
        "failures, hangs, ECC slowdowns) into the sweep",
    )
    resilience.add_argument(
        "--fault-rate", type=float, default=0.05, metavar="R",
        help="per-sample-attempt probability of each transient fault "
        "kind under --faults (default 0.05)",
    )
    resilience.add_argument(
        "--fault-seed", type=int, default=0, metavar="N",
        help="seed of the fault plan; same seed, same faults (default 0)",
    )
    resilience.add_argument(
        "--max-retries", type=int, default=3, metavar="N",
        help="per-sample retries with exponential backoff before the "
        "cell is quarantined (default 3)",
    )
    resilience.add_argument(
        "--sample-timeout", type=float, default=None, metavar="SECONDS",
        help="per-sample simulated-clock deadline; overruns are retried "
        "like transient faults (default: none)",
    )
    resilience.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="journal every completed sample to a JSONL checkpoint",
    )
    resilience.add_argument(
        "--resume", action="store_true",
        help="replay completed samples from --checkpoint instead of "
        "re-running them",
    )
    resilience.add_argument(
        "--strict", action="store_true",
        help="model-invariant guard rejects (exit 4) any sample faster "
        "than the link-bandwidth floor or above the roofline of its "
        "own SystemSpec, and any inconsistently calibrated spec; the "
        "default only warns",
    )
    resilience.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock deadline per parallel shard under -j; an "
        "overrun kills and re-submits the shard (default: none)",
    )
    execution = parser.add_argument_group("execution")
    execution.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="shard (problem type, precision) series across N worker "
        "processes; results merge bit-identical to a serial run "
        "(default 1: in-process)",
    )
    execution.add_argument(
        "--cache-dir", metavar="DIR", default=DEFAULT_CACHE_DIR,
        help="content-addressed sweep cache; re-running an identical "
        "(config, system, backend) sweep replays the stored samples "
        f"(default {DEFAULT_CACHE_DIR})",
    )
    execution.add_argument(
        "--no-cache", action="store_true",
        help="bypass the sweep cache: neither read nor write it",
    )
    parser.add_argument(
        "-o", "--output", metavar="DIR", default=None,
        help="write per-series CSVs into DIR",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the summary table"
    )
    return parser


def _kernels(choice: str):
    if choice == "gemm":
        return (Kernel.GEMM,)
    if choice == "gemv":
        return (Kernel.GEMV,)
    return (Kernel.GEMM, Kernel.GEMV)


def _precisions(choice: str):
    if choice == "single":
        return (Precision.SINGLE,)
    if choice == "double":
        return (Precision.DOUBLE,)
    return ALL_PRECISIONS


def build_fsck_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpu-blob fsck",
        description=(
            "Audit sweep artifacts — journals (*.jsonl checkpoints, "
            "their *.jsonl.shard-<i> worker journals, serve WALs, "
            "dispatch ledgers), sweep-cache entries, result shards, "
            "results CSVs — against their embedded checksums and "
            "plausibility invariants.  Exits 0 when everything "
            "verifies, 4 when problems remain."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=None, metavar="PATH",
        help="journal files, cache/results directories, or individual "
        f"artifacts (default: the {DEFAULT_CACHE_DIR} cache)",
    )
    parser.add_argument(
        "--repair", action="store_true",
        help="move damage out of the way instead of just reporting it: "
        "bad journal lines go to a .bad sidecar (the journal is "
        "replaced by its verified records), bad cache entries, result "
        "shards and CSVs move into a quarantine/ subdirectory",
    )
    return parser


def build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpu-blob cache",
        description="Manage the content-addressed sweep cache.",
    )
    sub = parser.add_subparsers(dest="cache_command", required=True)
    prune = sub.add_parser(
        "prune", help="LRU-evict entries until the store fits the bounds"
    )
    prune.add_argument(
        "--cache-dir", metavar="DIR", default=DEFAULT_CACHE_DIR,
        help=f"cache directory (default {DEFAULT_CACHE_DIR})",
    )
    prune.add_argument(
        "--max-entries", type=int, default=None, metavar="N",
        help="keep at most N entries (default: unlimited)",
    )
    prune.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="keep at most N bytes of entries (default: unlimited)",
    )
    stats = sub.add_parser(
        "stats",
        help="report entry count, total bytes, and the hit/miss "
        "counters shared with the serve daemon's /metrics",
    )
    stats.add_argument(
        "--cache-dir", metavar="DIR", default=DEFAULT_CACHE_DIR,
        help=f"cache directory (default {DEFAULT_CACHE_DIR})",
    )
    stats.add_argument(
        "--json", action="store_true",
        help="emit the stats as one JSON object instead of text",
    )
    stats.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="also list the N hottest entries by hit count",
    )
    return parser


def build_campaign_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpu-blob campaign",
        description=(
            "Run a benchmarking campaign: expand the scenario matrix "
            "(systems x problem types x precisions x paradigms) of a "
            "campaign TOML/JSON file, fan it across the supervised "
            "parallel executor, and aggregate every offload threshold "
            "into one cross-system report (CSV + JSON).  With a stored "
            "golden, a drifted report exits 4 (the integrity family)."
        ),
    )
    parser.add_argument(
        "file", metavar="CAMPAIGN",
        help="campaign .toml/.json file (see campaigns/ci-smoke.toml)",
    )
    parser.add_argument(
        "-o", "--output", metavar="DIR", default=None,
        help="write campaign_report.{csv,json} plus per-scenario series "
        "CSVs into DIR",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=None, metavar="N",
        help="worker processes per scenario sweep (overrides the "
        "campaign's [execution] jobs)",
    )
    parser.add_argument(
        "--backend", choices=backend_names(), default=None,
        help="override the campaign's [execution] backend",
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="journal each scenario to its own JSONL checkpoint in DIR",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay completed samples from --checkpoint-dir journals",
    )
    parser.add_argument(
        "--stop-after", type=int, default=None, metavar="N",
        help="stop the campaign after N scenarios (deterministic "
        "interruption for resume testing); no report is written",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=DEFAULT_CACHE_DIR,
        help="content-addressed sweep cache shared by all scenarios "
        f"(default {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the sweep cache: neither read nor write it",
    )
    parser.add_argument(
        "--golden", metavar="CSV", default=None,
        help="drift-check the aggregated report against this golden CSV "
        "(overrides the campaign's [drift] golden)",
    )
    parser.add_argument(
        "--no-drift", action="store_true",
        help="skip drift detection even when the campaign names a golden",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="strict mode: the model-invariant guard rejects "
        "miscalibrated specs and implausible samples (exit 4)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-scenario progress and the report summary",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="print the expanded scenario matrix (count, per-system "
        "breakdown) and exit without executing anything",
    )
    dist = parser.add_argument_group(
        "distributed execution",
        "shard scenarios across worker processes, coordinated through "
        "a durable dispatch ledger with leases, heartbeats and work "
        "stealing; the aggregated report is byte-identical to a "
        "single-node run",
    )
    dist.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="dispatch scenarios across N gpu-blob dist-worker "
        "subprocesses instead of running them inline",
    )
    dist.add_argument(
        "--worker-cmd", metavar="CMD", default=None,
        help="command prefix launching one worker (appended with the "
        "dist-worker protocol flags); default: this interpreter's own "
        "'python -m repro.cli dist-worker'.  Implies --workers 2 "
        "unless --workers is given",
    )
    dist.add_argument(
        "--dist-dir", metavar="DIR", default=None,
        help="dispatch ledger + result shards (default "
        "results/.dist/<campaign-name>); with --resume the ledger is "
        "replayed instead of restarted",
    )
    dist.add_argument(
        "--lease", type=float, default=15.0, metavar="SECONDS",
        help="scenario lease: a worker silent past its lease loses the "
        "scenario to a healthy one (default 15)",
    )
    dist.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="worker heartbeat interval (default: lease/5)",
    )
    dist.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="attempts (dispatches) per scenario before it dead-letters "
        "into the report as quarantined rows (default 3)",
    )
    dist.add_argument(
        "--chaos-plan", metavar="PLAN", default=None,
        help="seeded fleet chaos (needs --workers or --worker-cmd): "
        + " | ".join(PRESETS["dist"])
        + ", optionally ':<seed>' (composes with REPRO_CHAOS_KILL_SHARD "
        "inside workers)",
    )
    return parser


def _main_campaign_dry_run(campaign, scenarios, log) -> int:
    """The ``--dry-run`` sizing report: what would run, where."""
    from collections import Counter

    per_system = Counter(s.system for s in scenarios)
    cells = sum(
        len(s.config.problem_types())
        * len(s.config.precisions)
        * len(s.config.transfers)
        for s in scenarios
    )
    log(
        f"campaign {campaign.name!r} (fingerprint "
        f"{campaign.fingerprint()}): {len(scenarios)} scenario(s), "
        f"{cells} report cell(s)"
    )
    for system, count in per_system.items():
        iters = sorted(
            s.iterations for s in scenarios if s.system == system
        )
        log(
            f"  {system}: {count} scenario(s), iterations "
            f"{', '.join(str(i) for i in iters)}"
        )
    log("dry run: nothing executed")
    return 0


def _main_campaign(argv: List[str]) -> int:
    from pathlib import Path

    from .core.campaign import (
        assert_no_drift,
        expand_scenarios,
        load_campaign,
        run_campaign,
        write_report,
    )

    args = build_campaign_parser().parse_args(argv)
    log = (lambda line: None) if args.quiet else print
    distributed = args.workers is not None or args.worker_cmd is not None
    try:
        chaos = (
            ChaosPlan.parse(args.chaos_plan, "dist")
            if args.chaos_plan is not None
            else None
        )
        if chaos is not None and not distributed:
            raise ReproError(
                "--chaos-plan attacks a worker fleet; add --workers N "
                "or --worker-cmd CMD"
            )
        if args.resume and not distributed and not args.checkpoint_dir:
            raise ReproError(
                "--resume needs --checkpoint-dir DIR (or --workers N, "
                "where it replays the dispatch ledger)"
            )
        campaign = load_campaign(args.file)
        if args.dry_run:
            scenarios = expand_scenarios(campaign, strict=args.strict)
            return _main_campaign_dry_run(campaign, scenarios, log)
        log(
            f"campaign {campaign.name!r}: {len(campaign.systems)} "
            f"system(s), matrix of {campaign.matrix_size} cell(s)"
        )
        if distributed:
            result = _run_campaign_distributed(campaign, args, chaos, log)
        else:
            result = run_campaign(
                campaign,
                jobs=args.jobs,
                backend=args.backend,
                checkpoint_dir=args.checkpoint_dir,
                resume=args.resume,
                cache_dir=None if args.no_cache else args.cache_dir,
                strict=args.strict,
                stop_after=args.stop_after,
                log=log,
            )
        if result.quarantined:
            log(
                f"campaign degraded: {len(result.quarantined)} "
                "scenario(s) dead-lettered (quarantined rows in the "
                "report)"
            )
        if not result.complete:
            log(
                f"campaign partial ({result.executed}/"
                f"{len(result.scenarios)} scenario(s)); no report written"
            )
            return 0
        rows = result.rows()
        if args.output:
            paths = write_report(result, args.output)
            log(f"wrote {', '.join(str(p) for p in paths)}")
        golden = (
            Path(args.golden) if args.golden else campaign.golden_path()
        )
        if golden is not None and not args.no_drift:
            assert_no_drift(rows, golden)
            log(f"no drift against {golden}")
    except ReproError as exc:
        print(f"gpu-blob: error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    found = sum(1 for r in rows if r["found"] == "1")
    log(
        f"campaign {campaign.name!r} complete: {len(rows)} threshold "
        f"row(s), {found} with a GPU offload threshold"
    )
    return 0


def _run_campaign_distributed(campaign, args, chaos, log):
    """Shared glue between the campaign parser's distributed flags and
    :func:`repro.dist.dispatcher.run_campaign_distributed`."""
    import shlex
    from pathlib import Path

    from .dist.dispatcher import run_campaign_distributed

    if args.checkpoint_dir:
        raise ReproError(
            "--checkpoint-dir journals per-scenario sweeps on one node; "
            "distributed runs journal the dispatch ledger instead — "
            "drop --checkpoint-dir"
        )
    worker_cmd = shlex.split(args.worker_cmd) if args.worker_cmd else None
    worker_count = args.workers if args.workers is not None else 2
    dist_dir = (
        Path(args.dist_dir)
        if args.dist_dir
        else Path("results") / ".dist" / campaign.name
    )
    result = run_campaign_distributed(
        campaign,
        dist_dir=dist_dir,
        worker_count=worker_count,
        worker_cmd=worker_cmd,
        jobs=args.jobs,
        backend=args.backend,
        cache_dir=None if args.no_cache else args.cache_dir,
        strict=args.strict,
        resume=args.resume,
        lease_s=args.lease,
        heartbeat_s=args.heartbeat,
        max_attempts=args.max_attempts,
        chaos=chaos,
        log=log,
    )
    stats = result.dist_stats or {}
    turnaround = stats.get("turnaround") or {}
    p50 = turnaround.get("p50_ms")
    log(
        f"dispatch: {stats.get('assignments', 0)} assignment(s) across "
        f"{stats.get('workers', 0)} worker(s), "
        f"{stats.get('steals', 0)} steal(s), "
        f"{stats.get('duplicate_finishes', 0)} duplicate finish(es) "
        f"deduped, {stats.get('replayed', 0)} replayed from the ledger"
        + (f", p50 scenario turnaround {p50:.0f}ms" if p50 else "")
    )
    return result


def build_query_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpu-blob query",
        description=(
            "Ask a running gpu-blob serve daemon for one offload "
            "threshold.  Degraded (stale-while-revalidate) answers are "
            "surfaced, not swallowed: the server's Warning: 110 header "
            "and stale_iterations annotation print to stderr."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--system", required=True, metavar="NAME")
    parser.add_argument("--kernel", choices=("gemm", "gemv"),
                        default="gemm")
    parser.add_argument("--problem", default="square", metavar="IDENT")
    parser.add_argument("--precision", choices=("single", "double"),
                        default="single")
    parser.add_argument(
        "--paradigm", choices=tuple(t.value for t in TransferType),
        default="once",
    )
    parser.add_argument("-i", "--iterations", type=int, default=1,
                        metavar="N")
    parser.add_argument("--dim", type=int, default=None, metavar="DIM",
                        help="also report the best device for this "
                        "problem size")
    parser.add_argument("--max-dim", type=int, default=4096, metavar="DIM")
    parser.add_argument("--step", type=int, default=8, metavar="N")
    parser.add_argument("--json", action="store_true",
                        help="print the raw response body")
    return parser


def _main_query(argv: List[str]) -> int:
    import asyncio
    import json as _json

    from .serve.client import ServeClient

    args = build_query_parser().parse_args(argv)
    payload = {
        "system": args.system,
        "kernel": args.kernel,
        "problem": args.problem,
        "precision": args.precision,
        "paradigm": args.paradigm,
        "iterations": args.iterations,
        "max_dim": args.max_dim,
        "step": args.step,
    }
    if args.dim is not None:
        payload["dim"] = args.dim

    async def _go():
        client = ServeClient(args.host, args.port,
                             retry=RetryPolicy(backoff_base_s=0.25))
        try:
            return await client.post("/v1/threshold", payload)
        finally:
            await client.close()

    try:
        response = asyncio.run(_go())
    except (ConnectionError, OSError) as exc:
        print(f"gpu-blob: error: cannot reach {args.host}:{args.port}: "
              f"{exc}", file=sys.stderr)
        return 3
    try:
        body = response.json()
    except ValueError:
        body = {}
    if response.status != 200:
        detail = body.get("error", response.body.decode("utf-8", "replace"))
        print(f"gpu-blob: error: server answered {response.status}: "
              f"{detail}", file=sys.stderr)
        return 3 if response.status in (429, 503) or \
            response.status >= 500 else 2
    if args.json:
        print(_json.dumps(body, sort_keys=True))
    else:
        threshold = body.get("threshold", {})
        if threshold.get("found"):
            print(f"threshold: {threshold.get('notation')}")
        else:
            print("threshold: none found in the swept range")
        if "best_device" in body:
            print(f"best device: {body['best_device']}")
        hit = body.get("cache", {}).get("hit")
        if hit is not None:
            print(f"cache: {'hit' if hit else 'miss'}")
    if response.degraded:
        stale = response.stale_iterations
        reason = body.get("cache", {}).get("reason", "backend unavailable")
        print(
            "gpu-blob: warning: DEGRADED answer (stale-while-revalidate"
            + (f", stale_iterations={stale}" if stale is not None else "")
            + f"): {reason}",
            file=sys.stderr,
        )
    return 0


def build_spec_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpu-blob spec",
        description=(
            "Inspect and lint system-spec files.  'lint' loads every "
            "given spec (or every spec in the given directories) under "
            "the strict invariant auditor and exits 4 if any fails; "
            "'list' shows the registry plus every discoverable spec file."
        ),
    )
    sub = parser.add_subparsers(dest="spec_command", required=True)
    lint = sub.add_parser(
        "lint", help="strict-load spec files; exit 4 on any failure"
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="spec files or directories (default: the spec search path)",
    )
    sub.add_parser(
        "list", help="show registry names and discovered spec files"
    )
    return parser


def _main_spec(argv: List[str]) -> int:
    from pathlib import Path

    from .systems.catalog import discover_specs, spec_search_dirs, system_names
    from .systems.specio import SPEC_SUFFIXES, load_spec

    args = build_spec_parser().parse_args(argv)
    if args.spec_command == "list":
        print(f"registry: {', '.join(system_names())}")
        for stem, path in sorted(discover_specs().items()):
            print(f"  {stem}: {path}")
        return 0
    paths: List[Path] = []
    for raw in args.paths or [str(d) for d in spec_search_dirs()]:
        p = Path(raw)
        if p.is_dir():
            for suffix in SPEC_SUFFIXES:
                paths.extend(sorted(p.glob(f"*{suffix}")))
        elif p.is_file():
            paths.append(p)
        else:
            print(f"gpu-blob: error: no spec file or directory at {p}",
                  file=sys.stderr)
            return 2
    if not paths:
        print("spec lint: no spec files found", file=sys.stderr)
        return 2
    failures = 0
    for path in paths:
        try:
            spec = load_spec(path, strict=True)
        except ReproError as exc:
            failures += 1
            print(f"FAIL {path}: {exc}")
        else:
            print(f"ok   {path} ({spec.name})")
    if failures:
        print(f"spec lint: {failures} of {len(paths)} spec(s) failed",
              file=sys.stderr)
        return 4
    print(f"spec lint: all {len(paths)} spec(s) verify")
    return 0


def _main_fsck(argv: List[str]) -> int:
    from .core.fsck import fsck_paths

    args = build_fsck_parser().parse_args(argv)
    paths = args.paths or [DEFAULT_CACHE_DIR]
    try:
        findings = fsck_paths(paths, repair=args.repair)
    except ReproError as exc:
        print(f"gpu-blob: error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    for finding in findings:
        print(finding)
    unrepaired = [f for f in findings if not f.repaired]
    if not findings:
        print("fsck: all artifacts verify")
    elif not unrepaired:
        print(f"fsck: repaired {len(findings)} problem(s)")
    else:
        print(
            f"fsck: {len(unrepaired)} problem(s) remain"
            + ("" if args.repair else " (re-run with --repair)"),
            file=sys.stderr,
        )
    return 4 if unrepaired else 0


def _main_cache(argv: List[str]) -> int:
    args = build_cache_parser().parse_args(argv)
    if args.cache_command == "stats":
        return _main_cache_stats(args)
    from .core.sweepcache import prune_cache

    try:
        evicted = prune_cache(
            args.cache_dir,
            max_entries=args.max_entries,
            max_bytes=args.max_bytes,
        )
    except ReproError as exc:
        print(f"gpu-blob: error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    print(f"pruned {len(evicted)} cache entr{'y' if len(evicted) == 1 else 'ies'}")
    return 0


def _main_cache_stats(args) -> int:
    import json as _json

    from .core.sweepcache import cache_stats, top_entries

    try:
        stats = cache_stats(args.cache_dir)
        top = (
            top_entries(args.cache_dir, args.top)
            if args.top is not None else None
        )
    except ReproError as exc:
        print(f"gpu-blob: error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    if args.json:
        if top is not None:
            stats = dict(stats, top_entries=top)
        print(_json.dumps(stats, sort_keys=True))
        return 0
    print(f"cache:      {args.cache_dir}")
    print(f"entries:    {stats['entries']}")
    print(f"bytes:      {stats['total_bytes']}")
    print(f"hits:       {stats['hits']}")
    print(f"misses:     {stats['misses']}")
    print(f"stores:     {stats['stores']}")
    print(f"hit rate:   {stats['hit_rate']:.3f}")
    if top is not None:
        print(f"top {len(top)} entr{'y' if len(top) == 1 else 'ies'} by hits:")
        for entry in top:
            gone = "" if entry["present"] else "  (evicted)"
            print(f"  {entry['hits']:>6}  {entry['key']}{gone}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "fsck":
        return _main_fsck(argv[1:])
    if argv and argv[0] == "cache":
        return _main_cache(argv[1:])
    if argv and argv[0] == "serve":
        from .serve.service import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "campaign":
        return _main_campaign(argv[1:])
    if argv and argv[0] == "dist-worker":
        from .dist.worker import worker_main

        return worker_main(argv[1:])
    if argv and argv[0] == "query":
        return _main_query(argv[1:])
    if argv and argv[0] == "spec":
        return _main_spec(argv[1:])
    return _main_sweep(argv)


def _main_sweep(argv: List[str]) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(
            min_dim=args.start,
            max_dim=args.dim,
            iterations=args.iterations,
            step=args.step,
            kernels=_kernels(args.kernel),
            problem_idents=tuple(args.problems or ("square",)),
            precisions=_precisions(args.precision),
            transfers=tuple(
                TransferType(t) for t in (args.transfers or ())
            ) or tuple(TransferType),
            gpu_enabled=not args.cpu_only,
            validate=args.strict,
        )
        if args.backend == "host":
            backend = make_backend("host")
            system_name = "host"
        else:
            kwargs = (
                {"usm_page_granular": True}
                if args.backend == "des" and args.usm_pages
                else {}
            )
            backend = make_backend(
                args.backend, make_model(args.system), **kwargs
            )
            system_name = None
        if args.resume and not args.checkpoint:
            raise ReproError("--resume needs --checkpoint PATH")
        faults = (
            ChaosPlan.uniform(args.fault_rate, seed=args.fault_seed)
            if args.faults
            else None
        )
        retry = RetryPolicy(
            max_retries=args.max_retries,
            sample_timeout_s=args.sample_timeout,
            seed=args.fault_seed,
        )
        result = run_sweep(
            backend, config, system_name=system_name,
            faults=faults, retry=retry,
            checkpoint=args.checkpoint, resume=args.resume,
            jobs=args.jobs, shard_timeout_s=args.shard_timeout,
            cache_dir=None if args.no_cache else args.cache_dir,
        )
    except ReproError as exc:
        print(f"gpu-blob: error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    if args.output:
        paths = write_run(result, args.output)
        print(f"wrote {len(paths)} file(s) to {args.output}")
    if not args.quiet:
        print(run_summary(result))
        _print_resilience_report(result)
    return 0


def _print_resilience_report(result) -> None:
    """One line per resilience event, after the summary table."""
    stats = result.stats
    if stats.cached_samples:
        print(
            f"replayed {stats.cached_samples} sample(s) from the sweep cache"
        )
    if stats.resumed_samples:
        print(f"resumed {stats.resumed_samples} sample(s) from checkpoint")
    if stats.retries:
        print(
            f"retried {stats.retries} time(s); "
            f"{stats.backoff_s:.2f}s simulated backoff"
        )
    if stats.worker_retries:
        print(
            f"recovered from {stats.worker_retries} parallel-shard "
            f"failure(s) (worker death or deadline overrun)"
        )
    if stats.inprocess_shards:
        print(
            f"degraded {stats.inprocess_shards} shard(s) to in-process "
            "execution after repeated pool failures"
        )
    if result.degraded:
        print("sweep degraded to the analytic fallback backend")
    if result.device_lost:
        print("GPU device lost mid-sweep; finished CPU-only")
    if result.quarantine:
        print(f"quarantined {len(result.quarantine)} sample(s):")
        for entry in result.quarantine:
            print(f"  - {entry}")


if __name__ == "__main__":
    sys.exit(main())
