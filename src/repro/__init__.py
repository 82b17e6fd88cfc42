"""GPU-BLOB reproduction engine.

Analytic reproduction of "Assessing the GPU Offload Threshold of GEMM
and GEMV Kernels on Modern Heterogeneous HPC Systems" (Wilkinson et al.,
PMBS @ SC 2024).  The package models three heterogeneous nodes (DAWN,
LUMI-G, Isambard-AI) in closed form, sweeps BLAS problem shapes over
CPU and GPU under the paper's three transfer paradigms, and extracts the
GPU offload threshold from the resulting curves.

Typical use::

    from repro import AnalyticBackend, RunConfig, make_model, run_sweep

    backend = AnalyticBackend(make_model("isambard-ai"))
    result = run_sweep(backend, RunConfig(max_dim=1024, iterations=8))
    print(result.thresholds())
"""

from __future__ import annotations

from .backends import backend_names, make_backend
from .backends.des import DESBackend, DesBackend
from .backends.host import CombinedBackend, HostCpuBackend
from .backends.simulated import AnalyticBackend
from .core.config import RunConfig
from .core.fsck import Finding, fsck_paths
from .core.invariants import InvariantContext, check_samples, validate_spec
from .core.records import PerfSample, ProblemSeries, QuarantineEntry
from .core.runner import RetryPolicy, RunResult, SweepStats, run_sweep
from .core.sweepcache import prune_cache
from .core.campaign import (
    CampaignResult,
    CampaignSpec,
    Scenario,
    expand_scenarios,
    load_campaign,
    run_campaign,
)
from .errors import (
    CacheIntegrityWarning,
    CampaignDriftError,
    CheckpointError,
    ConfigError,
    IntegrityError,
    ModelInvariantError,
    ModelInvariantWarning,
    PartialSweepWarning,
    ReproError,
    SweepFaultError,
)
from .core.threshold import (
    ThresholdResult,
    find_offload_threshold,
    threshold_for_series,
)
from .chaos import ChaosKind, ChaosPlan
from .faults import FaultInjector
from .systems.catalog import (
    get_system,
    make_model,
    register_system,
    resolve_system,
    system_names,
)
from .systems.specio import dumps_spec, load_spec, loads_spec, write_spec
from .systems.specs import (
    CpuSocketSpec,
    GpuSpec,
    LinkSpec,
    MatrixEngineSpec,
    SystemSpec,
    UsmSpec,
)
from .types import (
    ALL_PRECISIONS,
    PAPER_ITERATION_COUNTS,
    DeviceKind,
    Dims,
    Kernel,
    Precision,
    TransferType,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_PRECISIONS",
    "AnalyticBackend",
    "CacheIntegrityWarning",
    "CampaignDriftError",
    "CampaignResult",
    "CampaignSpec",
    "ChaosKind",
    "ChaosPlan",
    "CheckpointError",
    "CombinedBackend",
    "ConfigError",
    "CpuSocketSpec",
    "DESBackend",
    "DesBackend",
    "DeviceKind",
    "Dims",
    "FaultInjector",
    "Finding",
    "GpuSpec",
    "HostCpuBackend",
    "IntegrityError",
    "InvariantContext",
    "Kernel",
    "LinkSpec",
    "MatrixEngineSpec",
    "ModelInvariantError",
    "ModelInvariantWarning",
    "PAPER_ITERATION_COUNTS",
    "PartialSweepWarning",
    "PerfSample",
    "Precision",
    "ProblemSeries",
    "QuarantineEntry",
    "ReproError",
    "RetryPolicy",
    "RunConfig",
    "RunResult",
    "Scenario",
    "SweepFaultError",
    "SweepStats",
    "SystemSpec",
    "ThresholdResult",
    "TransferType",
    "UsmSpec",
    "backend_names",
    "check_samples",
    "dumps_spec",
    "expand_scenarios",
    "find_offload_threshold",
    "fsck_paths",
    "get_system",
    "load_campaign",
    "load_spec",
    "loads_spec",
    "make_backend",
    "make_model",
    "prune_cache",
    "register_system",
    "resolve_system",
    "run_campaign",
    "run_sweep",
    "system_names",
    "threshold_for_series",
    "validate_spec",
    "write_spec",
]
