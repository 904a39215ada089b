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
from typing import Dict, List, Optional

from repro.allocators.base import Allocation, BaseAllocator
from repro.allocators.caching import MIN_BLOCK_SIZE, SMALL_SIZE, round_size
from repro.errors import CudaOutOfMemoryError, OutOfMemoryError
from repro.gpu.device import GpuDevice
from repro.sortedlist import ChunkedSortedKeyList
from repro.units import CHUNK_SIZE, align_up


@dataclass
class _ArenaBlock:
    """A contiguous range inside an arena's mapped frontier."""

    offset: int
    size: int
    allocated: bool = False
    prev: Optional["_ArenaBlock"] = field(default=None, repr=False)
    next: Optional["_ArenaBlock"] = field(default=None, repr=False)


class _Arena:
    """One expandable segment: a huge VA reservation mapped up to a
    moving frontier, tiled by split/coalesce blocks."""

    def __init__(self, device: GpuDevice, va_size: int):
        self.device = device
        self.va = device.vmm.mem_address_reserve(va_size)
        self.va_size = va_size
        self.mapped = 0
        self.handles: List[int] = []  # one per mapped chunk, in order
        self.free_blocks: ChunkedSortedKeyList[_ArenaBlock] = ChunkedSortedKeyList(
            key=lambda b: (b.size, b.offset)
        )
        self.tail: Optional[_ArenaBlock] = None  # last block (by offset)
        self.blocks_by_offset: Dict[int, _ArenaBlock] = {}

    # ------------------------------------------------------------------
    def grow(self, need: int) -> None:
        """Map enough new chunks at the frontier to add ``need`` bytes.

        Raises CudaOutOfMemoryError when the device cannot commit them;
        partially created chunks are rolled back.
        """
        grow_bytes = align_up(need, CHUNK_SIZE)
        if self.mapped + grow_bytes > self.va_size:
            raise CudaOutOfMemoryError(
                grow_bytes, self.va_size - self.mapped, self.va_size
            )
        vmm = self.device.vmm
        new_handles: List[int] = []
        offset = self.mapped
        try:
            for _ in range(grow_bytes // CHUNK_SIZE):
                handle = vmm.mem_create(CHUNK_SIZE)
                new_handles.append(handle)
                vmm.mem_map(self.va, offset, handle)
                offset += CHUNK_SIZE
        except CudaOutOfMemoryError:
            if new_handles:
                vmm.mem_unmap(self.va, self.mapped,
                              len(new_handles) * CHUNK_SIZE)
                for handle in new_handles:
                    vmm.mem_release(handle)
            raise
        vmm.mem_set_access(self.va, self.mapped, grow_bytes)
        self.handles.extend(new_handles)

        # Extend (or create) the tail block with the new bytes.
        if self.tail is not None and not self.tail.allocated:
            self.free_blocks.remove(self.tail)
            self.tail.size += grow_bytes
            self.free_blocks.add(self.tail)
        else:
            block = _ArenaBlock(offset=self.mapped, size=grow_bytes,
                                prev=self.tail)
            if self.tail is not None:
                self.tail.next = block
            self.tail = block
            self.blocks_by_offset[block.offset] = block
            self.free_blocks.add(block)
        self.mapped += grow_bytes

    def trim_tail(self) -> int:
        """Unmap whole free chunks at the frontier; returns bytes freed."""
        if self.tail is None or self.tail.allocated:
            return 0
        tail = self.tail
        # Only whole chunks above the last allocated byte can go.
        keep_until = align_up(tail.offset, CHUNK_SIZE)
        trim_bytes = self.mapped - keep_until
        if trim_bytes <= 0:
            return 0
        vmm = self.device.vmm
        n_chunks = trim_bytes // CHUNK_SIZE
        vmm.mem_unmap(self.va, keep_until, trim_bytes)
        for handle in self.handles[-n_chunks:]:
            vmm.mem_release(handle)
        del self.handles[-n_chunks:]
        self.mapped = keep_until
        # Shrink or drop the tail block.
        self.free_blocks.remove(tail)
        remaining = keep_until - tail.offset
        if remaining > 0:
            tail.size = remaining
            self.free_blocks.add(tail)
        else:
            del self.blocks_by_offset[tail.offset]
            self.tail = tail.prev
            if self.tail is not None:
                self.tail.next = None
        return trim_bytes


class ExpandableSegmentsAllocator(BaseAllocator):
    """BFC over two in-place-growable VMM arenas (small / large pools)."""

    def __init__(self, device: GpuDevice):
        super().__init__(device, name="expandable")
        va_size = align_up(device.capacity, CHUNK_SIZE)
        self._arenas = {
            "small": _Arena(device, va_size),
            "large": _Arena(device, va_size),
        }
        self._alloc_arena: Dict[int, str] = {}  # ptr -> arena key

    # ------------------------------------------------------------------
    @property
    def reserved_bytes(self) -> int:
        return sum(a.mapped for a in self._arenas.values())

    def mapped_bytes(self, pool: str) -> int:
        """Mapped frontier of one arena (introspection)."""
        return self._arenas[pool].mapped

    # ------------------------------------------------------------------
    def _malloc_impl(self, size: int) -> "tuple[int, int]":
        rounded = round_size(size)
        pool = "small" if rounded <= SMALL_SIZE else "large"
        arena = self._arenas[pool]
        self._spend_host_time(self.device.latency.cached_op_us)

        block = arena.free_blocks.first_at_least((rounded, 0))
        if block is None:
            block = self._grow(arena, rounded)
        else:
            arena.free_blocks.remove(block)
        block = self._maybe_split(arena, block, rounded)
        block.allocated = True
        ptr = arena.va + block.offset
        self._alloc_arena[ptr] = pool
        return ptr, rounded

    def _grow(self, arena: _Arena, rounded: int) -> _ArenaBlock:
        """Extend the arena so its tail can serve ``rounded`` bytes."""
        tail_free = (
            arena.tail.size
            if arena.tail is not None and not arena.tail.allocated
            else 0
        )
        need = rounded - tail_free
        try:
            arena.grow(need)
        except CudaOutOfMemoryError:
            if self._trim_all() == 0:
                self._raise_oom(rounded)
            try:
                arena.grow(need)
            except CudaOutOfMemoryError:
                self._raise_oom(rounded)
        block = arena.tail
        assert block is not None and not block.allocated
        arena.free_blocks.remove(block)
        return block

    def _raise_oom(self, rounded: int) -> None:
        raise OutOfMemoryError(
            requested=rounded,
            reserved=self.reserved_bytes,
            active=self.active_bytes,
            capacity=self.device.capacity,
        )

    def _maybe_split(self, arena: _Arena, block: _ArenaBlock,
                     rounded: int) -> _ArenaBlock:
        remaining = block.size - rounded
        if remaining < MIN_BLOCK_SIZE:
            return block
        rest = _ArenaBlock(offset=block.offset + rounded, size=remaining,
                           prev=block, next=block.next)
        if block.next is not None:
            block.next.prev = rest
        else:
            arena.tail = rest
        block.next = rest
        block.size = rounded
        arena.blocks_by_offset[rest.offset] = rest
        arena.free_blocks.add(rest)
        return block

    # ------------------------------------------------------------------
    def _free_impl(self, allocation: Allocation) -> None:
        self._spend_host_time(self.device.latency.cached_op_us)
        pool = self._alloc_arena.pop(allocation.ptr)
        arena = self._arenas[pool]
        block = arena.blocks_by_offset[allocation.ptr - arena.va]
        block.allocated = False
        block = self._coalesce(arena, block)
        arena.free_blocks.add(block)

    def _coalesce(self, arena: _Arena, block: _ArenaBlock) -> _ArenaBlock:
        nxt = block.next
        if nxt is not None and not nxt.allocated:
            arena.free_blocks.remove(nxt)
            del arena.blocks_by_offset[nxt.offset]
            block.size += nxt.size
            block.next = nxt.next
            if nxt.next is not None:
                nxt.next.prev = block
            if arena.tail is nxt:
                arena.tail = block
        prv = block.prev
        if prv is not None and not prv.allocated:
            arena.free_blocks.remove(prv)
            del arena.blocks_by_offset[block.offset]
            prv.size += block.size
            prv.next = block.next
            if block.next is not None:
                block.next.prev = prv
            if arena.tail is block:
                arena.tail = prv
            block = prv
        return block

    # ------------------------------------------------------------------
    def _trim_all(self) -> int:
        return sum(a.trim_tail() for a in self._arenas.values())

    def _empty_cache_impl(self) -> None:
        """Trim the free tail of both arenas back to the device."""
        self._trim_all()

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Arena bookkeeping consistency (used by property tests)."""
        for pool, arena in self._arenas.items():
            covered = 0
            block = arena.blocks_by_offset.get(0)
            if arena.mapped == 0:
                assert not arena.blocks_by_offset
                continue
            assert block is not None, f"{pool}: no block at offset 0"
            last = None
            while block is not None:
                assert block.offset == covered, f"{pool}: gap at {covered}"
                covered += block.size
                assert block.prev is last
                last = block
                block = block.next
            assert covered == arena.mapped, (
                f"{pool}: blocks cover {covered} of {arena.mapped}"
            )
            assert arena.tail is last
            free_offsets = {b.offset for b in arena.free_blocks}
            expected = {b.offset for b in arena.blocks_by_offset.values()
                        if not b.allocated}
            assert free_offsets == expected, f"{pool}: free list out of sync"
