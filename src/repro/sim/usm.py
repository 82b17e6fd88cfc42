"""Page-granular unified-memory simulation.

Unified/managed memory migrates on demand: the GPU's first touch of a
non-resident page raises a fault, the driver services faults in batches
of ``pages_per_fault`` pages, and each serviced batch moves whole pages
over the link at the derated migration bandwidth.  Steady-state
iterations then pay a small residual fault cost plus the re-migration of
the fraction of pages the host touched between kernels
(``iter_refresh_fraction``), and the output pages migrate back on the
host's first post-kernel touch.

:class:`PageTable` tracks residency at page granularity and prices each
phase as a :class:`MigrationPlan`.  Two accounting modes exist:

* ``quantize=True`` (default): whole pages and whole fault batches, the
  behaviour a real driver exhibits.  Aggregate cost **converges to** the
  closed-form USM model of
  :meth:`repro.sim.perfmodel.NodePerfModel.gpu_time` as the working set
  grows (the quantization error is at most one page/batch per phase).
* ``quantize=False``: fractional pages and batches, reproducing the
  closed form **exactly** — the mode the DES backend uses so that the
  analytic-vs-DES ablation isolates scheduling, not rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..systems.specs import LinkSpec, UsmSpec

__all__ = ["MigrationPlan", "PageTable", "closed_form_unified_batch"]


def closed_form_unified_batch(
    usm: UsmSpec,
    link: LinkSpec,
    up_bytes,
    down_bytes,
    kernel_s,
    iterations: int,
):
    """Closed-form Unified-Memory total (fractional pages).

    ``up_bytes``/``down_bytes``/``kernel_s`` are equal-length NumPy
    arrays, one sweep cell each.  This is the UNIFIED branch of
    :meth:`repro.sim.perfmodel.NodePerfModel.gpu_time`: the same total
    the fractional (``quantize=False``) :class:`PageTable` accounting
    reproduces one phase at a time.
    """
    migrate_bw = link.bw_gbs * usm.migration_bw_scale * 1e9
    faults = up_bytes / (usm.pages_per_fault * usm.page_bytes)
    migrate_in = link.latency_s + faults * usm.fault_latency_s + up_bytes / migrate_bw
    refresh_s = usm.iter_refresh_fraction * (up_bytes / (link.bw_gbs * 1e9))
    per_iter = kernel_s + usm.iter_fault_s + refresh_s
    writeback = link.latency_s + down_bytes / migrate_bw
    return migrate_in + iterations * per_iter + writeback


@dataclass(frozen=True)
class MigrationPlan:
    """The priced outcome of one migration phase."""

    pages: float
    batches: float
    bytes_moved: float
    latency_s: float
    fault_s: float
    copy_s: float

    @property
    def seconds(self) -> float:
        return self.latency_s + self.fault_s + self.copy_s


class PageTable:
    """Residency tracking and migration pricing for one USM allocation
    set on one host<->device link."""

    def __init__(
        self,
        usm: UsmSpec,
        link: LinkSpec,
        *,
        quantize: bool = True,
    ) -> None:
        self.usm = usm
        self.link = link
        self.quantize = quantize
        self.resident_pages: float = 0.0
        self.faults_serviced: float = 0.0
        self.pages_migrated_in: float = 0.0
        self.pages_refreshed: float = 0.0
        self.pages_written_back: float = 0.0

    # -- unit helpers -------------------------------------------------
    def pages_for(self, nbytes: float) -> float:
        """Pages spanned by ``nbytes`` (whole pages when quantized)."""
        pages = nbytes / self.usm.page_bytes
        return float(math.ceil(pages)) if self.quantize else pages

    def _batches_for(self, pages: float) -> float:
        batches = pages / self.usm.pages_per_fault
        return float(math.ceil(batches)) if self.quantize else batches

    def _bytes_for(self, pages: float, nbytes: float) -> float:
        return pages * self.usm.page_bytes if self.quantize else nbytes

    @property
    def resident_bytes(self) -> float:
        return self.resident_pages * self.usm.page_bytes

    @property
    def migration_bw(self) -> float:
        """Fault-driven migration bandwidth in bytes/s (derated link)."""
        return self.link.bw_gbs * self.usm.migration_bw_scale * 1e9

    # -- phases -------------------------------------------------------
    def fault_in(self, nbytes: float) -> MigrationPlan:
        """First GPU touch of ``nbytes``: batched faults + page copies."""
        pages = self.pages_for(nbytes)
        batches = self._batches_for(pages)
        moved = self._bytes_for(pages, nbytes)
        self.resident_pages += pages
        self.faults_serviced += batches
        self.pages_migrated_in += pages
        return MigrationPlan(
            pages=pages,
            batches=batches,
            bytes_moved=moved,
            latency_s=self.link.latency_s,
            fault_s=batches * self.usm.fault_latency_s,
            copy_s=moved / self.migration_bw,
        )

    def refresh(self, nbytes: float) -> MigrationPlan:
        """One iteration's residency churn over a ``nbytes`` working set.

        The host invalidates ``iter_refresh_fraction`` of the pages
        between kernels; those re-migrate at the *full* link bandwidth
        (they are hot and prefetched, not fault-batched), on top of the
        fixed per-iteration fault residual ``iter_fault_s``.
        """
        pages = self.usm.iter_refresh_fraction * (nbytes / self.usm.page_bytes)
        if self.quantize:
            pages = float(math.ceil(pages))
        moved = self._bytes_for(pages, self.usm.iter_refresh_fraction * nbytes)
        self.pages_refreshed += pages
        return MigrationPlan(
            pages=pages,
            batches=0.0,
            bytes_moved=moved,
            latency_s=0.0,
            fault_s=self.usm.iter_fault_s,
            copy_s=moved / (self.link.bw_gbs * 1e9),
        )

    def writeback(self, nbytes: float) -> MigrationPlan:
        """Host re-touch of the output after the last kernel."""
        pages = self.pages_for(nbytes)
        moved = self._bytes_for(pages, nbytes)
        self.pages_written_back += pages
        return MigrationPlan(
            pages=pages,
            batches=0.0,
            bytes_moved=moved,
            latency_s=self.link.latency_s,
            fault_s=0.0,
            copy_s=moved / self.migration_bw,
        )

    def release(self, nbytes: float) -> float:
        """Drop residency for ``nbytes`` (free/evict); returns pages freed."""
        pages = min(self.pages_for(nbytes), self.resident_pages)
        self.resident_pages -= pages
        return pages
