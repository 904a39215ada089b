"""Allocator statistics — the quantities the paper's figures plot.

Terminology follows §5.1 of the paper:

* **active memory** — bytes currently allocated to live tensors.
* **reserved memory** — bytes of physical GPU memory the allocator holds
  (segments for the caching allocator, physical chunks for GMLake).
* **utilization / fragmentation ratio** — see :class:`MemoryHeadline`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import GB


class MemoryHeadline:
    """The paper's §5.1 memory headline, defined once for every result.

    * **utilization ratio** = peak active / peak reserved (1.0 when
      nothing was reserved);
    * **fragmentation ratio** = 1 − utilization ratio.

    A subclass supplies ``peak_active_bytes`` and
    ``peak_reserved_bytes``, as fields or as properties.
    """

    @property
    def utilization_ratio(self) -> float:
        """The §5.1 utilization ratio."""
        if self.peak_reserved_bytes == 0:
            return 1.0
        return self.peak_active_bytes / self.peak_reserved_bytes

    @property
    def fragmentation_ratio(self) -> float:
        """The §5.1 fragmentation ratio."""
        return 1.0 - self.utilization_ratio

    @property
    def peak_reserved_gb(self) -> float:
        """Peak reserved memory in GB (the figures' RM axis)."""
        return self.peak_reserved_bytes / GB

    @property
    def peak_active_gb(self) -> float:
        """Peak active memory in GB."""
        return self.peak_active_bytes / GB


@dataclass
class AllocatorStats(MemoryHeadline):
    """Point-in-time statistics snapshot of one allocator."""

    active_bytes: int
    reserved_bytes: int
    peak_active_bytes: int
    peak_reserved_bytes: int
    malloc_count: int
    free_count: int
    #: Driver-API (cudaMalloc / cuMem*) time spent by this allocator, us.
    driver_time_us: float = 0.0
    #: Host-side bookkeeping time (cached-path ops), us.
    host_time_us: float = 0.0
