"""Expandable-segments allocator — PyTorch's follow-up to GMLake.

After GMLake (and its sibling projects), PyTorch gained
``expandable_segments:True``: instead of many fixed ``cudaMalloc``
segments, the caching allocator reserves one huge virtual address range
per pool and *grows it in place* by mapping 2 MB physical chunks at the
tail through the same VMM API GMLake uses.  Freed blocks coalesce
across the whole arena (there are no segment boundaries), and the tail
can be trimmed by unmapping.

Compared to GMLake it cannot *stitch*: a request larger than every hole
still forces the arena to grow even when the holes sum to enough space.
Expected ordering, which the extension bench verifies:

    caching (BFC)  <=  expandable segments  <=  GMLake   (utilization)

This is an extension beyond the paper's evaluation (the paper predates
the PyTorch feature); it doubles as an ablation of stitching with an
independently-designed mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.allocators.caching import (
    MIN_BLOCK_SIZE,
    Block,
    CachingAllocator,
    Segment,
)
from repro.errors import CudaOutOfMemoryError
from repro.gpu.device import GpuDevice
from repro.units import CHUNK_SIZE, align_up


@dataclass
class _Arena(Segment):
    """One expandable segment: ``size`` bytes of reserved address space
    of which the first ``mapped`` are backed, chunk by chunk."""

    mapped: int = 0
    handles: List[int] = field(default_factory=list)  # one per chunk, in order


class ExpandableSegmentsAllocator(CachingAllocator):
    """The caching allocator's block list over two in-place-growable
    VMM arenas (small / large pools) instead of ``cudaMalloc`` segments."""

    name = "expandable"
    # No segment boundary strands a remainder, so any usable one is kept.
    _split_floor = {"small": MIN_BLOCK_SIZE, "large": MIN_BLOCK_SIZE}

    def __init__(self, device: GpuDevice):
        super().__init__(device)
        va_size = align_up(device.capacity, CHUNK_SIZE)
        self._arenas = {
            pool: _Arena(ptr=device.vmm.mem_address_reserve(va_size),
                         size=va_size, pool=pool)
            for pool in self._free_pools
        }
        self._segments = {a.ptr: a for a in self._arenas.values()}

    def mapped_bytes(self, pool: str) -> int:
        """Mapped frontier of one arena (introspection)."""
        return self._arenas[pool].mapped

    def _backed_bytes(self, segment: _Arena) -> int:
        return segment.mapped

    # ------------------------------------------------------------------
    def _obtain(self, rounded: int, pool: str) -> Block:
        """Map enough new chunks at the arena's frontier for its tail
        block to hold ``rounded`` bytes; returns that block, not pooled.

        What the tail already has free is read on every call, so the
        retry after a release sees the tail the release left behind.
        """
        arena = self._arenas[pool]
        tail = arena.last
        if tail is not None and tail.allocated:
            tail = None
        grow = align_up(rounded - (tail.size if tail is not None else 0), CHUNK_SIZE)
        if arena.mapped + grow > arena.size:
            raise CudaOutOfMemoryError(
                grow, arena.size - arena.mapped, arena.size)
        arena.handles += self.device.vmm.back(
            arena.ptr, arena.mapped, grow, CHUNK_SIZE)
        if tail is not None:
            self._pool_remove(pool, tail)
            tail.size += grow
        else:
            tail = Block(ptr=arena.ptr + arena.mapped, size=grow,
                         segment=arena, prev=arena.last)
            if arena.last is not None:
                arena.last.next = tail
            arena.last = tail
            self._blocks_by_ptr[tail.ptr] = tail
        arena.mapped += grow
        self._reserved += grow
        return tail

    def _release_cached_segments(self) -> int:
        """Unmap the whole free chunks at each arena's frontier (only
        those above the last allocated byte can go); returns the bytes
        released."""
        vmm = self.device.vmm
        released = 0
        for pool, arena in self._arenas.items():
            tail = arena.last
            if tail is None or tail.allocated:
                continue
            keep = align_up(tail.ptr - arena.ptr, CHUNK_SIZE)
            trim = arena.mapped - keep
            if trim <= 0:
                continue
            vmm.mem_unmap(arena.ptr, keep, trim)
            n_chunks = trim // CHUNK_SIZE
            for handle in arena.handles[-n_chunks:]:
                vmm.mem_release(handle)
            del arena.handles[-n_chunks:]
            arena.mapped = keep
            self._reserved -= trim
            released += trim
            # Shrink the tail block, or drop it if nothing is left.
            self._pool_remove(pool, tail)
            tail.size -= trim
            if tail.size:
                self._pool_add(pool, tail)
            else:
                del self._blocks_by_ptr[tail.ptr]
                arena.last = tail.prev
                if tail.prev is not None:
                    tail.prev.next = None
        return released
