"""Exception hierarchy and warning categories for the repro engine.

Two families live here.  *Configuration* errors (``ConfigError`` and the
``Unknown*`` lookups) mean the caller asked for something that does not
exist and are never retried.  *Sweep-fault* errors
(:class:`SweepFaultError` and subclasses) model the transient and
permanent failures a real HPC sweep hits — kernel launch failures, DMA
transfer errors, watchdog timeouts, mid-run device loss — whether they
come from a real backend or from the deterministic
:mod:`repro.faults` injector.  The resilient runner
(:func:`repro.core.runner.run_sweep`) retries the transient ones with
exponential backoff, quarantines samples that exhaust their retries,
and degrades gracefully on the permanent ones.

A third family, *integrity* errors (:class:`IntegrityError` and
subclasses), means an artifact or a model output cannot be trusted: a
checkpoint journal with a flipped byte, a sweep-cache entry whose
payload digest no longer matches, or a model sample that violates a
physical invariant of its own :class:`~repro.systems.specs.SystemSpec`
(:class:`ModelInvariantError`).  The CLI maps the three families to
distinct exit codes (config = 2, fault = 3, integrity = 4).

``PartialSweepWarning`` is the warning category for every "the sweep
completed but is missing something" condition: unsupported transfer
paradigms, quarantined samples, thresholds computed over gaps, and
CPU-only continuation after device loss.  ``CacheIntegrityWarning``
flags sweep-cache entries that failed their digest or parse check (a
warned miss, never a silent one); ``ModelInvariantWarning`` is the
non-strict form of the model-invariant guard.
"""

from __future__ import annotations

__all__ = [
    "CacheIntegrityWarning",
    "CampaignDriftError",
    "CheckpointError",
    "ConfigError",
    "DeviceLostError",
    "IntegrityError",
    "ModelInvariantError",
    "ModelInvariantWarning",
    "PartialSweepWarning",
    "ReproError",
    "ReproWarning",
    "RETRYABLE_ERRORS",
    "SampleTimeoutError",
    "SweepFaultError",
    "TransferError",
    "TransientKernelError",
    "UnknownLibraryError",
    "UnknownProblemTypeError",
    "UnknownSystemError",
]


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class ConfigError(ReproError):
    """A RunConfig or CLI invocation is invalid."""


class UnknownSystemError(ReproError):
    """A system name is not present in the catalog."""


class UnknownLibraryError(ReproError):
    """A BLAS library name is not present in the registry."""


class UnknownProblemTypeError(ReproError):
    """A problem-type ident does not exist for the requested kernel."""


# -- sweep faults -----------------------------------------------------


class SweepFaultError(ReproError):
    """Base class for per-sample failures during a sweep."""


class TransientKernelError(SweepFaultError):
    """A kernel launch or execution failed transiently (retryable)."""


class TransferError(SweepFaultError):
    """A DMA transfer between host and device failed (retryable)."""


class SampleTimeoutError(SweepFaultError):
    """A sample exceeded its simulated-clock deadline (retryable)."""

    def __init__(self, message: str, elapsed_s: float = 0.0) -> None:
        super().__init__(message)
        self.elapsed_s = elapsed_s


class DeviceLostError(SweepFaultError):
    """The GPU disappeared mid-sweep (permanent: not retryable).

    The resilient runner reacts by finishing the sweep CPU-only and
    flagging every series with missing GPU cells as partial.
    """


# -- integrity --------------------------------------------------------


class IntegrityError(ReproError):
    """Base class for "this artifact or model output cannot be trusted"
    failures: corrupt journals, digest-mismatched cache entries, and
    model-invariant violations.  The CLI exits 4 on these."""


class CheckpointError(IntegrityError):
    """A sweep checkpoint file is unreadable, corrupt, or belongs to a
    different configuration than the resuming run."""


class ModelInvariantError(IntegrityError):
    """A backend produced a physically implausible sample, or a
    :class:`~repro.systems.specs.SystemSpec` is calibrated inconsistently
    (e.g. an effective link bandwidth above its own link peak).

    Raised by the model-invariant guard in strict mode
    (``RunConfig.validate=True`` / ``--strict``); the default mode emits
    :class:`ModelInvariantWarning` instead.
    """


class CampaignDriftError(IntegrityError):
    """A campaign's aggregated threshold report no longer matches its
    stored golden: thresholds moved, appeared, or vanished.  Drift means
    either the model changed behaviour or the golden is stale — both
    need a human decision, so ``gpu-blob campaign`` exits 4.

    ``drifts`` carries one human-readable line per drifted report key.
    """

    def __init__(self, message: str, drifts=()) -> None:
        super().__init__(message)
        self.drifts = tuple(drifts)


#: Fault errors the resilient runner retries with backoff; everything
#: else either degrades the sweep (DeviceLostError) or is a real bug.
RETRYABLE_ERRORS = (TransientKernelError, TransferError, SampleTimeoutError)


# -- warnings ---------------------------------------------------------


class ReproWarning(UserWarning):
    """Base category for warnings emitted by the repro package."""


class PartialSweepWarning(ReproWarning):
    """The sweep completed, but some requested cells are missing —
    unsupported paradigms, quarantined samples, or device loss."""


class CacheIntegrityWarning(ReproWarning):
    """A sweep-cache entry failed its integrity check (unparseable JSON
    or a payload-digest mismatch) and was treated as a miss."""


class ModelInvariantWarning(ReproWarning):
    """A model output or spec violated a physical invariant, and the
    sweep is not running in strict mode (``RunConfig.validate=False``).
    The sample is kept; re-run with ``--strict`` to reject it."""
