"""Allocator memory reports: where did the reserved bytes go?

Produces the kind of breakdown ``torch.cuda.memory_summary()`` gives —
free-block histograms, the largest servable block, and (for GMLake) the
stitchable mass — so a user can see *why* an allocator fragments, not
just that it does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.allocators.base import AllocatorObserver, BaseAllocator
from repro.allocators.caching import CachingAllocator
from repro.core.allocator import GMLakeAllocator
from repro.units import MB, fmt_bytes


@dataclass
class MemoryReport:
    """Point-in-time breakdown of one allocator's memory."""

    allocator: str
    reserved_bytes: int
    active_bytes: int
    free_bytes: int
    free_block_count: int
    largest_free_block: int
    #: log2 histogram: bucket upper bound (bytes) -> count of free blocks
    free_histogram: Dict[int, int] = field(default_factory=dict)
    #: bytes reusable for a single maximal request (GMLake: stitched sum;
    #: others: the largest free block)
    max_servable: int = 0

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"memory report — {self.allocator}",
            f"  reserved        : {fmt_bytes(self.reserved_bytes)}",
            f"  active          : {fmt_bytes(self.active_bytes)}",
            f"  free (cached)   : {fmt_bytes(self.free_bytes)} "
            f"in {self.free_block_count} blocks",
            f"  largest free    : {fmt_bytes(self.largest_free_block)}",
            f"  max servable    : {fmt_bytes(self.max_servable)}",
        ]
        if self.free_histogram:
            lines.append("  free-block histogram:")
            for bound in sorted(self.free_histogram):
                count = self.free_histogram[bound]
                bar = "#" * min(count, 40)
                lines.append(f"    <= {fmt_bytes(bound):>10} : {count:4d} {bar}")
        return "\n".join(lines)


def _histogram(sizes: List[int]) -> Dict[int, int]:
    hist: Dict[int, int] = {}
    for size in sizes:
        bound = 1 << max(0, math.ceil(math.log2(size))) if size > 0 else 1
        hist[bound] = hist.get(bound, 0) + 1
    return hist


def report_for(allocator: BaseAllocator) -> MemoryReport:
    """Build a :class:`MemoryReport` for any supported allocator."""
    if isinstance(allocator, GMLakeAllocator):
        return _report_gmlake(allocator)
    if isinstance(allocator, CachingAllocator):
        return _report_caching(allocator)
    return _report_generic(allocator)


def _report_generic(allocator: BaseAllocator) -> MemoryReport:
    free = allocator.reserved_bytes - allocator.active_bytes
    return MemoryReport(
        allocator=allocator.name,
        reserved_bytes=allocator.reserved_bytes,
        active_bytes=allocator.active_bytes,
        free_bytes=free,
        free_block_count=0,
        largest_free_block=free,
        max_servable=free,
    )


def _report_caching(allocator: CachingAllocator) -> MemoryReport:
    sizes = [block.size for pool in allocator._free_pools.values()
             for block in pool]
    largest = max(sizes) if sizes else 0
    return MemoryReport(
        allocator=allocator.name,
        reserved_bytes=allocator.reserved_bytes,
        active_bytes=allocator.active_bytes,
        free_bytes=sum(sizes),
        free_block_count=len(sizes),
        largest_free_block=largest,
        free_histogram=_histogram(sizes),
        # BFC serves at most its largest free block without new physical
        # memory (cudaMalloc, or arena growth): holes cannot be combined.
        max_servable=largest,
    )


def _report_gmlake(allocator: GMLakeAllocator) -> MemoryReport:
    sizes = [block.size for block in allocator.ppool if not block.active]
    largest = max(sizes) if sizes else 0
    stitchable = 0
    if allocator.config.enable_stitch:
        stitchable = sum(
            size for size in sizes
            if size >= allocator.config.fragmentation_limit
        )
    return MemoryReport(
        allocator=allocator.name,
        reserved_bytes=allocator.reserved_bytes,
        active_bytes=allocator.active_bytes,
        free_bytes=sum(sizes),
        free_block_count=len(sizes),
        largest_free_block=largest,
        free_histogram=_histogram(sizes),
        # Stitching fuses every inactive block above the limit into one
        # servable region — the defragmentation headroom.
        max_servable=max(stitchable, largest),
    )


def fragmentation_headroom(allocator: BaseAllocator) -> int:
    """Bytes a single request could use beyond the largest hole —
    GMLake's stitching advantage (zero for non-stitching allocators)."""
    report = report_for(allocator)
    return max(0, report.max_servable - report.largest_free_block)


class PeakMemoryObserver(AllocatorObserver):
    """Event-hook subscriber that keeps the report at the *worst* moment.

    Attach with ``allocator.add_observer(PeakMemoryObserver())``: after
    the run, :attr:`at_peak` holds the :class:`MemoryReport` snapshotted
    near the moment reserved memory peaked, and :attr:`at_oom` the
    report at the first OOM (None if the run never OOMed) — the two
    states a post-mortem actually wants, captured without any replay-
    loop involvement.

    A report is rebuilt only when the reserved peak grows by at least
    ``min_growth`` bytes (and always on the very first event), so a
    monotone ramp-up of N allocations costs O(peak / min_growth)
    report builds rather than O(N); plateaus cost nothing.  Set
    ``min_growth=0`` for an exact at-the-peak snapshot.
    """

    def __init__(self, min_growth: int = 16 * MB):
        if min_growth < 0:
            raise ValueError("min_growth must be non-negative")
        self.min_growth = min_growth
        self.at_peak: Optional[MemoryReport] = None
        self.at_oom: Optional[MemoryReport] = None
        self.oom_requested: int = 0
        self._peak_reserved = -1
        self._snapshot_reserved = -1

    def _maybe_snapshot(self, allocator: BaseAllocator) -> None:
        reserved = allocator.reserved_bytes
        if reserved <= self._peak_reserved:
            return
        self._peak_reserved = reserved
        if (self.at_peak is None
                or reserved - self._snapshot_reserved > self.min_growth):
            self._snapshot_reserved = reserved
            self.at_peak = report_for(allocator)

    def on_alloc(self, allocator, allocation) -> None:
        self._maybe_snapshot(allocator)

    def on_free(self, allocator, allocation) -> None:
        self._maybe_snapshot(allocator)

    def on_oom(self, allocator, size, error) -> None:
        if self.at_oom is None:
            self.at_oom = report_for(allocator)
            self.oom_requested = size
