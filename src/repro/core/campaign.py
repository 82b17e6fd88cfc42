"""Campaign orchestration: scenario matrices over many systems.

A *campaign* is a committed TOML/JSON file describing a benchmarking
matrix — systems x problem types x precisions x transfer paradigms (and
iteration counts) — plus the sweep bounds and execution policy to run
it under.  ``gpu-blob campaign`` expands the matrix into *scenarios*
(one resilient :func:`~repro.core.runner.run_sweep` per (system,
iterations) pair, whose (problem type, precision) series fan across the
supervised parallel executor), then aggregates every offload threshold
into one cross-system report (CSV + JSON).

Campaign file schema::

    schema = 1
    name = "ci-smoke"

    [matrix]
    systems = ["dawn", "../specs/lumi.toml"]   # names or spec paths
    kernels = ["gemm"]                # default: gemm + gemv
    problems = ["square", "mn_k32"]   # default: square
    precisions = ["single", "double"] # default: single + double
    transfers = ["once", "always"]    # default: all three paradigms
    iterations = [8]                  # default: [1]

    [sweep]
    min_dim = 1
    max_dim = 256
    step = 32

    [execution]
    backend = "analytic"              # default analytic
    jobs = 2                          # default 1 (in-process)

    [drift]
    golden = "../results/campaign/ci-smoke/campaign_report.csv"

Every key is optional except ``name`` and ``matrix.systems``.  An
unknown table or key is a :class:`~repro.errors.ConfigError`, so a typo
fails loudly instead of silently running the default.  Relative paths
(spec files in ``systems``, the drift golden) resolve against the
campaign file's own directory, so a campaign is a portable artifact.
Scenario runs compose with the rest of the resilience stack:
``cache_dir`` replays identical scenarios from the content-addressed
sweep cache, ``checkpoint_dir`` journals each scenario to its own JSONL
file and ``resume=True`` replays them — an interrupted campaign resumes
to a **byte-identical** aggregated report.

Drift detection compares the fresh report against the stored golden
row by row; any moved, vanished or new threshold raises
:class:`~repro.errors.CampaignDriftError` (CLI exit 4, the integrity
family), which is how a silent model change fails CI instead of
shipping.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import CampaignDriftError, ConfigError
from ..types import Kernel, Precision, TransferType
from .config import RunConfig
from .runner import RunResult, run_sweep
from .threshold import threshold_for_series

__all__ = [
    "CAMPAIGN_SCHEMA_VERSION",
    "REPORT_CSV",
    "REPORT_FIELDNAMES",
    "REPORT_JSON",
    "CampaignResult",
    "CampaignSpec",
    "Scenario",
    "check_drift",
    "expand_scenarios",
    "load_campaign",
    "loads_campaign",
    "report_rows",
    "run_campaign",
    "write_report",
]

CAMPAIGN_SCHEMA_VERSION = 1

REPORT_CSV = "campaign_report.csv"
REPORT_JSON = "campaign_report.json"

#: One aggregated report row per (scenario, series, paradigm) threshold.
REPORT_FIELDNAMES = (
    "system", "kernel", "problem", "precision", "transfer", "iterations",
    "found", "m", "n", "k",
)

#: The columns that identify a row for drift comparison; the rest are
#: the compared payload.
_KEY_FIELDS = ("system", "kernel", "problem", "precision", "transfer",
               "iterations")

#: The keys each campaign table accepts (see the module docstring).
_TABLE_KEYS = {
    "matrix": ("systems", "kernels", "problems", "precisions", "transfers",
               "iterations"),
    "sweep": ("min_dim", "max_dim", "step"),
    "execution": ("backend", "jobs"),
    "drift": ("golden",),
}


@dataclass(frozen=True)
class CampaignSpec:
    """One parsed campaign file (see the module docstring schema)."""

    name: str
    systems: Tuple[str, ...]
    kernels: Tuple[Kernel, ...] = (Kernel.GEMM, Kernel.GEMV)
    problems: Tuple[str, ...] = ("square",)
    precisions: Tuple[Precision, ...] = (Precision.SINGLE, Precision.DOUBLE)
    transfers: Tuple[TransferType, ...] = tuple(TransferType)
    iterations: Tuple[int, ...] = (1,)
    min_dim: int = 1
    max_dim: int = 4096
    step: int = 8
    backend: str = "analytic"
    jobs: int = 1
    golden: Optional[str] = None
    #: directory the campaign file lives in; relative paths resolve here
    base_dir: str = "."

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("campaign name must be non-empty")
        for label, seq in (
            ("systems", self.systems),
            ("kernels", self.kernels),
            ("problems", self.problems),
            ("precisions", self.precisions),
            ("transfers", self.transfers),
            ("iterations", self.iterations),
        ):
            if not seq:
                raise ConfigError(
                    f"campaign {self.name!r}: matrix.{label} must be "
                    "non-empty"
                )
        for count in self.iterations:
            if count < 1:
                raise ConfigError(
                    f"campaign {self.name!r}: iterations must be >= 1, "
                    f"got {count}"
                )
        if self.jobs < 1:
            raise ConfigError(
                f"campaign {self.name!r}: execution.jobs must be >= 1, "
                f"got {self.jobs}"
            )

    @property
    def matrix_size(self) -> int:
        """Scenario cells: systems x problems x precisions x paradigms
        (x iteration counts)."""
        return (
            len(self.systems) * len(self.problems) * len(self.precisions)
            * len(self.transfers) * len(self.iterations)
        )

    def golden_path(self) -> Optional[Path]:
        if self.golden is None:
            return None
        return Path(self.base_dir) / self.golden

    def fingerprint(self) -> str:
        """Stable identity of the campaign configuration (everything
        that changes what the matrix computes)."""
        payload = (
            self.name, self.systems,
            tuple(k.value for k in self.kernels), self.problems,
            tuple(p.value for p in self.precisions),
            tuple(t.value for t in self.transfers), self.iterations,
            self.min_dim, self.max_dim, self.step, self.backend,
        )
        return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Scenario:
    """One expanded matrix cell group: a (system, iterations) sweep
    whose (problem, precision) series shard across the executor."""

    index: int
    system: str  #: ident as written in the campaign (name or path)
    iterations: int
    config: RunConfig

    @property
    def slug(self) -> str:
        """Filesystem-safe scenario id (checkpoint shard filenames)."""
        stem = Path(self.system).stem if _looks_like_path(self.system) \
            else self.system
        safe = "".join(c if c.isalnum() or c in "-_" else "-" for c in stem)
        return f"{self.index:02d}-{safe}-i{self.iterations}"


@dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    campaign: CampaignSpec
    scenarios: List[Scenario] = field(default_factory=list)
    results: List[Optional[RunResult]] = field(default_factory=list)
    #: scenarios actually executed this call (resume replays count)
    executed: int = 0
    #: dead-lettered scenario index -> reason; a distributed campaign
    #: that exhausts a scenario's attempts completes *degraded*, and
    #: these report as ``found=quarantined`` rows instead of results
    quarantined: Dict[int, str] = field(default_factory=dict)
    #: dispatcher counters (plus a turnaround-latency histogram
    #: snapshot) when the run was distributed, None otherwise
    dist_stats: Optional[Dict[str, object]] = None

    @property
    def complete(self) -> bool:
        """Every scenario is accounted for — by a result or by a
        quarantine entry (degraded completion still completes)."""
        return len(self.results) == len(self.scenarios) and all(
            r is not None or i in self.quarantined
            for i, r in enumerate(self.results)
        )

    def rows(self) -> List[Dict[str, str]]:
        return report_rows(self)


def _looks_like_path(ident: str) -> bool:
    import os

    from ..systems.specio import SPEC_SUFFIXES

    return (
        os.sep in ident
        or (os.altsep is not None and os.altsep in ident)
        or ident.endswith(SPEC_SUFFIXES)
    )


# -- campaign file parsing --------------------------------------------


def _str_tuple(table: dict, key: str, default, source: str) -> tuple:
    value = table.get(key, default)
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, list) or not all(
        isinstance(v, str) for v in value
    ):
        raise ConfigError(
            f"{source}: matrix.{key} must be an array of strings"
        )
    return tuple(value)


def _enum_tuple(table: dict, key: str, enum, default, source: str) -> tuple:
    names = _str_tuple(table, key, [e.value for e in default], source)
    out = []
    for name in names:
        try:
            out.append(enum(name))
        except ValueError:
            valid = [e.value for e in enum]
            raise ConfigError(
                f"{source}: matrix.{key} entry {name!r} is not one of "
                f"{valid}"
            ) from None
    return tuple(out)


def _reject_unknown(table: dict, valid, prefix: str, source: str) -> None:
    """Refuse keys a campaign table does not define, naming each one."""
    unknown = sorted(set(table) - set(valid))
    if unknown:
        raise ConfigError(
            f"{source}: unknown key(s) {[prefix + k for k in unknown]}; "
            f"valid: {sorted(prefix + k for k in valid)}"
        )


def _int_value(table: dict, key: str, default: int, source: str) -> int:
    value = table.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{source}: {key} must be an integer, got {value!r}")
    return value


def loads_campaign(text: str, format: str = "toml",
                   source: str = "<string>",
                   base_dir: str = ".") -> CampaignSpec:
    """Parse campaign text (``"toml"`` or ``"json"``)."""
    from ..systems.specio import parse_toml

    if format == "toml":
        data = parse_toml(text, source)
    elif format == "json":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"{source}: invalid JSON: {exc}") from None
    else:
        raise ConfigError(f"unknown campaign format {format!r} (toml or json)")
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: campaign must be a table")
    schema = data.get("schema", CAMPAIGN_SCHEMA_VERSION)
    if schema != CAMPAIGN_SCHEMA_VERSION:
        raise ConfigError(
            f"{source}: unsupported campaign schema {schema!r} (this "
            f"build reads schema {CAMPAIGN_SCHEMA_VERSION})"
        )
    _reject_unknown(data, {"schema", "name", *_TABLE_KEYS}, "", source)
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{source}: campaign needs a non-empty name")
    matrix = data.get("matrix", {})
    sweep = data.get("sweep", {})
    execution = data.get("execution", {})
    drift = data.get("drift", {})
    for label, table in (("matrix", matrix), ("sweep", sweep),
                         ("execution", execution), ("drift", drift)):
        if not isinstance(table, dict):
            raise ConfigError(f"{source}: [{label}] must be a table")
        _reject_unknown(table, _TABLE_KEYS[label], f"{label}.", source)
    systems = _str_tuple(matrix, "systems", [], source)
    if not systems:
        raise ConfigError(f"{source}: matrix.systems must list at least one")
    iterations = matrix.get("iterations", [1])
    if isinstance(iterations, int):
        iterations = [iterations]
    if not isinstance(iterations, list) or not all(
        isinstance(i, int) and not isinstance(i, bool) for i in iterations
    ):
        raise ConfigError(
            f"{source}: matrix.iterations must be an array of integers"
        )
    golden = drift.get("golden")
    if golden is not None and not isinstance(golden, str):
        raise ConfigError(f"{source}: drift.golden must be a path string")
    backend = execution.get("backend", "analytic")
    if not isinstance(backend, str):
        raise ConfigError(f"{source}: execution.backend must be a string")
    return CampaignSpec(
        name=name,
        systems=systems,
        kernels=_enum_tuple(matrix, "kernels", Kernel,
                            (Kernel.GEMM, Kernel.GEMV), source),
        problems=_str_tuple(matrix, "problems", ["square"], source),
        precisions=_enum_tuple(matrix, "precisions", Precision,
                               (Precision.SINGLE, Precision.DOUBLE), source),
        transfers=_enum_tuple(matrix, "transfers", TransferType,
                              tuple(TransferType), source),
        iterations=tuple(iterations),
        min_dim=_int_value(sweep, "min_dim", 1, source),
        max_dim=_int_value(sweep, "max_dim", 4096, source),
        step=_int_value(sweep, "step", 8, source),
        backend=backend,
        jobs=_int_value(execution, "jobs", 1, source),
        golden=golden,
        base_dir=base_dir,
    )


def load_campaign(path) -> CampaignSpec:
    """Load one campaign file (``.toml`` or ``.json``)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read campaign file {path}: {exc}") from None
    format = "json" if path.suffix == ".json" else "toml"
    return loads_campaign(
        text, format=format, source=str(path), base_dir=str(path.parent)
    )


# -- matrix expansion -------------------------------------------------


def expand_scenarios(campaign: CampaignSpec,
                     strict: bool = False) -> List[Scenario]:
    """Expand the campaign matrix into scenarios, one resilient sweep
    per (system, iterations) pair.  Problem types, precisions and
    paradigms expand *inside* each scenario's :class:`RunConfig`, whose
    (problem type, precision) series are exactly the shards the
    supervised parallel executor fans out.
    """
    scenarios: List[Scenario] = []
    for system in campaign.systems:
        ident = system
        if _looks_like_path(system) and not Path(system).is_absolute():
            ident = str(Path(campaign.base_dir) / system)
        for iterations in campaign.iterations:
            config = RunConfig(
                min_dim=campaign.min_dim,
                max_dim=campaign.max_dim,
                iterations=iterations,
                step=campaign.step,
                kernels=campaign.kernels,
                problem_idents=campaign.problems,
                precisions=campaign.precisions,
                transfers=campaign.transfers,
                validate=strict,
            )
            scenarios.append(
                Scenario(
                    index=len(scenarios),
                    system=ident,
                    iterations=iterations,
                    config=config,
                )
            )
    return scenarios


# -- execution --------------------------------------------------------


def run_campaign(
    campaign: CampaignSpec,
    *,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    checkpoint_dir=None,
    resume: bool = False,
    cache_dir=None,
    strict: bool = False,
    stop_after: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
) -> CampaignResult:
    """Run every scenario of a campaign and collect the results.

    ``jobs``/``backend`` override the campaign's execution table.  With
    ``checkpoint_dir`` each scenario journals to its own JSONL file
    (``ck-<slug>.jsonl``); ``resume=True`` replays completed samples, so
    an interrupted campaign finishes byte-identical to an uninterrupted
    one.  ``cache_dir`` engages the content-addressed sweep cache for
    journal-less runs.  ``stop_after=N`` stops the campaign after N
    scenarios (the supported way to interrupt deterministically — CI
    chaos uses it plus ``REPRO_CHAOS_KILL_SHARD`` for worker kills);
    the partial result has ``complete=False`` and no report.
    """
    from ..backends import make_backend
    from ..systems.catalog import make_model, resolve_system

    if stop_after is not None and stop_after < 1:
        raise ConfigError(f"stop_after must be >= 1, got {stop_after}")
    jobs = campaign.jobs if jobs is None else jobs
    backend_name = campaign.backend if backend is None else backend
    scenarios = expand_scenarios(campaign, strict=strict)
    out = CampaignResult(campaign=campaign, scenarios=scenarios)
    out.results = [None] * len(scenarios)
    ck_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if ck_dir is not None:
        ck_dir.mkdir(parents=True, exist_ok=True)
    for scenario in scenarios:
        if stop_after is not None and scenario.index >= stop_after:
            if log is not None:
                remaining = len(scenarios) - scenario.index
                log(
                    f"campaign stopped after {stop_after} scenario(s); "
                    f"{remaining} remain (resume with --resume)"
                )
            break
        spec = resolve_system(scenario.system, strict=strict)
        if log is not None:
            log(
                f"[{scenario.index + 1}/{len(scenarios)}] {spec.name} "
                f"i={scenario.iterations}: "
                f"{len(scenario.config.problem_types())} problem type(s) "
                f"x {len(campaign.precisions)} precision(s) "
                f"x {len(campaign.transfers)} paradigm(s)"
            )
        scenario_backend = make_backend(backend_name, make_model(spec))
        checkpoint = (
            str(ck_dir / f"ck-{scenario.slug}.jsonl")
            if ck_dir is not None
            else None
        )
        out.results[scenario.index] = run_sweep(
            scenario_backend,
            scenario.config,
            system_name=spec.name,
            jobs=jobs,
            checkpoint=checkpoint,
            resume=resume and checkpoint is not None,
            cache_dir=cache_dir,
        )
        out.executed += 1
    return out


# -- aggregation, persistence, drift ----------------------------------


def report_rows(result: CampaignResult) -> List[Dict[str, str]]:
    """The aggregated cross-system threshold report, one row per
    (scenario, series, paradigm), in deterministic matrix order.  Every
    cell is a string — the byte-level contract of the report CSV."""
    rows: List[Dict[str, str]] = []
    for scenario, run in zip(result.scenarios, result.results):
        if run is None:
            if scenario.index in result.quarantined:
                rows.extend(_quarantined_rows(scenario))
            continue
        for series in run.series:
            for transfer in series.transfer_types():
                found = threshold_for_series(series, transfer)
                rows.append({
                    "system": run.system_name or scenario.system,
                    "kernel": series.kernel.value,
                    "problem": series.ident,
                    "precision": series.precision.value,
                    "transfer": transfer.value,
                    "iterations": str(series.iterations),
                    "found": str(int(found.found)),
                    "m": str(found.dims.m) if found.found else "",
                    "n": str(found.dims.n) if found.found else "",
                    "k": str(found.dims.k) if found.found else "",
                })
    return rows


def _quarantined_rows(scenario: Scenario) -> List[Dict[str, str]]:
    """Placeholder rows for a dead-lettered scenario: the cells it
    *would* have reported, with ``found=quarantined`` and no dims —
    same schema, so goldens and drift CSVs keep their columns."""
    from ..errors import ReproError
    from ..systems.catalog import resolve_system

    try:
        system = resolve_system(scenario.system).name
    except ReproError:
        system = scenario.system
    return [
        {
            "system": system,
            "kernel": pt.kernel.value,
            "problem": pt.ident,
            "precision": precision.value,
            "transfer": transfer.value,
            "iterations": str(scenario.iterations),
            "found": "quarantined",
            "m": "",
            "n": "",
            "k": "",
        }
        for pt in scenario.config.problem_types()
        for precision in scenario.config.precisions
        for transfer in scenario.config.transfers
    ]


def write_report(result: CampaignResult, directory) -> List[Path]:
    """Write ``campaign_report.csv`` + ``campaign_report.json`` (and the
    per-scenario series CSVs) under ``directory``; returns the report
    paths.  Output is deterministic byte-for-byte for identical runs."""
    from .csvio import write_run

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = report_rows(result)
    csv_path = directory / REPORT_CSV
    with csv_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_FIELDNAMES)
        writer.writeheader()
        writer.writerows(rows)
    campaign = result.campaign
    payload = {
        "campaign": campaign.name,
        "fingerprint": campaign.fingerprint(),
        "schema": CAMPAIGN_SCHEMA_VERSION,
        "matrix": {
            "systems": list(campaign.systems),
            "kernels": [k.value for k in campaign.kernels],
            "problems": list(campaign.problems),
            "precisions": [p.value for p in campaign.precisions],
            "transfers": [t.value for t in campaign.transfers],
            "iterations": list(campaign.iterations),
            "size": campaign.matrix_size,
        },
        "scenarios": len(result.scenarios),
        "quarantined": {
            str(i): reason for i, reason in sorted(result.quarantined.items())
        },
        "rows": rows,
    }
    json_path = directory / REPORT_JSON
    json_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    paths = [csv_path, json_path]
    for scenario, run in zip(result.scenarios, result.results):
        if run is not None:
            write_run(run, directory / scenario.slug)
    return paths


def _row_key(row: Dict[str, str]) -> tuple:
    return tuple(row[f] for f in _KEY_FIELDS)


def _row_value(row: Dict[str, str]) -> tuple:
    return tuple(row[f] for f in REPORT_FIELDNAMES if f not in _KEY_FIELDS)


def _read_report_csv(path: Path) -> List[Dict[str, str]]:
    try:
        with path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            if tuple(reader.fieldnames or ()) != REPORT_FIELDNAMES:
                raise ConfigError(
                    f"golden report {path} has columns "
                    f"{reader.fieldnames}; expected "
                    f"{list(REPORT_FIELDNAMES)}"
                )
            return list(reader)
    except OSError as exc:
        raise ConfigError(
            f"cannot read golden report {path}: {exc}"
        ) from None


def check_drift(rows: List[Dict[str, str]], golden_path) -> List[str]:
    """Compare fresh report rows against the stored golden CSV;
    returns one message per drifted key (empty = no drift)."""
    golden = {
        _row_key(r): _row_value(r)
        for r in _read_report_csv(Path(golden_path))
    }
    fresh = {_row_key(r): _row_value(r) for r in rows}
    drifts: List[str] = []
    for key in sorted(set(golden) | set(fresh)):
        label = "/".join(key)
        if key not in fresh:
            drifts.append(f"{label}: threshold vanished (golden {golden[key]})")
        elif key not in golden:
            drifts.append(f"{label}: new threshold {fresh[key]} not in golden")
        elif golden[key] != fresh[key]:
            drifts.append(
                f"{label}: threshold moved {golden[key]} -> {fresh[key]}"
            )
    return drifts


def assert_no_drift(rows: List[Dict[str, str]], golden_path) -> None:
    """Raise :class:`~repro.errors.CampaignDriftError` when the fresh
    report drifted from its golden."""
    drifts = check_drift(rows, golden_path)
    if drifts:
        preview = "; ".join(drifts[:3])
        if len(drifts) > 3:
            preview += f"; ... ({len(drifts) - 3} more)"
        raise CampaignDriftError(
            f"campaign report drifted from golden {golden_path} in "
            f"{len(drifts)} row(s): {preview}",
            drifts=drifts,
        )
