"""Allocator statistics — the quantities the paper's figures plot.

Terminology follows §5.1 of the paper:

* **active memory** — bytes currently allocated to live tensors.
* **reserved memory** — bytes of physical GPU memory the allocator holds
  (segments for the caching allocator, physical chunks for GMLake).
* **utilization ratio** — peak active / peak reserved.
* **fragmentation ratio** — 1 − utilization ratio.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class AllocatorStats:
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

    @property
    def utilization_ratio(self) -> float:
        """Peak active / peak reserved (1.0 when nothing was reserved)."""
        if self.peak_reserved_bytes == 0:
            return 1.0
        return self.peak_active_bytes / self.peak_reserved_bytes

    @property
    def fragmentation_ratio(self) -> float:
        """1 − utilization ratio, the paper's fragmentation metric."""
        return 1.0 - self.utilization_ratio
