"""The best-fit-with-coalescing (BFC) caching allocator.

A faithful reimplementation of the PyTorch CUDA caching allocator
described in the paper's §2.2 and Figure 2(b), with PyTorch's constants:

* sizes are rounded to 512 B;
* requests ≤ 1 MB come from *small* segments of 2 MB;
* requests in (1 MB, 10 MB) come from *large* segments of 20 MB;
* larger requests allocate a dedicated segment rounded to 2 MB;
* a best-fit free block is **split** when the remainder is large enough
  (≥ 512 B in the small pool, > 1 MB in the large pool);
* ``free`` marks the block inactive and **coalesces** it with free
  neighbours inside the same segment;
* segments are obtained with ``cudaMalloc`` and returned with
  ``cudaFree`` only when wholly free — on allocation failure the
  allocator first releases all wholly-free cached segments and retries
  (PyTorch's ``release_cached_blocks`` fallback), then reports OOM.

External fragmentation arises exactly as the paper describes: splitting
under an irregular request stream strands free sub-blocks inside
segments that can never be returned to the device nor merged across
segment boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.allocators.base import Allocation, BaseAllocator
from repro.errors import CudaOutOfMemoryError, OutOfMemoryError
from repro.gpu.device import GpuDevice
from repro.sortedlist import ChunkedSortedKeyList
from repro.units import MB, align_up

# PyTorch CUDACachingAllocator constants.
MIN_BLOCK_SIZE = 512
SMALL_SIZE = 1 * MB
SMALL_BUFFER = 2 * MB
LARGE_BUFFER = 20 * MB
MIN_LARGE_ALLOC = 10 * MB
ROUND_LARGE = 2 * MB


@dataclass
class Segment:
    """One ``cudaMalloc``-ed region that blocks are carved from."""

    ptr: int
    size: int
    pool: str  # "small" | "large"
    #: The highest-address block (None while the segment has none).
    last: Optional["Block"] = field(default=None, repr=False)


@dataclass
class Block:
    """A contiguous range inside a segment.

    Doubly linked to its address-adjacent neighbours within the same
    segment (the paper's "bidirectional link") so coalescing is O(1).
    """

    ptr: int
    size: int
    segment: Segment
    allocated: bool = False
    prev: Optional["Block"] = field(default=None, repr=False)
    next: Optional["Block"] = field(default=None, repr=False)

    def is_whole_segment(self) -> bool:
        """True when this free block spans its entire segment."""
        return self.prev is None and self.next is None and self.size == self.segment.size


def round_size(size: int) -> int:
    """Round a request to the allocator's 512 B granularity."""
    if size < MIN_BLOCK_SIZE:
        return MIN_BLOCK_SIZE
    return align_up(size, MIN_BLOCK_SIZE)


def segment_size_for(rounded: int) -> int:
    """Size of the segment ``cudaMalloc``-ed to serve a rounded request."""
    if rounded <= SMALL_SIZE:
        return SMALL_BUFFER
    if rounded < MIN_LARGE_ALLOC:
        return LARGE_BUFFER
    return align_up(rounded, ROUND_LARGE)


def pool_for(rounded: int) -> str:
    """Which free pool a rounded request is served from."""
    return "small" if rounded <= SMALL_SIZE else "large"


def should_split(block_size: int, rounded: int, pool: str) -> bool:
    """PyTorch's split policy: keep the remainder only if it is usable."""
    return block_size - rounded >= CachingAllocator._split_floor[pool]


class CachingAllocator(BaseAllocator):
    """PyTorch-style BFC caching allocator (the paper's baseline).

    A subclass changes where segment memory comes from and goes
    (:meth:`_obtain`, :meth:`_release_cached_segments`,
    :meth:`_backed_bytes`) and the split floor; the block list, best
    fit, the batched runs and the invariants are this class's.
    """

    name = "caching"
    #: Smallest remainder a split keeps as its own free block, by pool
    #: (PyTorch: >= 512 B in the small pool, > 1 MB in the large pool).
    _split_floor = {"small": MIN_BLOCK_SIZE, "large": SMALL_SIZE + 1}

    def __init__(self, device: GpuDevice):
        super().__init__(device, name=self.name)
        self._free_pools: Dict[str, ChunkedSortedKeyList[Block]] = {
            "small": ChunkedSortedKeyList(key=lambda b: (b.size, b.ptr)),
            "large": ChunkedSortedKeyList(key=lambda b: (b.size, b.ptr)),
        }
        # Pooled blocks that span their whole segment, by pool and
        # ptr: what ``_release_cached_segments`` gives back, found
        # without walking the pools.
        self._whole_free: Dict[str, Dict[int, Block]] = {
            "small": {}, "large": {}}
        self._blocks_by_ptr: Dict[int, Block] = {}
        self._segments: Dict[int, Segment] = {}
        self._reserved = 0
        self._cached_bytes = 0

    # ------------------------------------------------------------------
    @property
    def reserved_bytes(self) -> int:
        return self._reserved

    @property
    def segment_count(self) -> int:
        """Number of live ``cudaMalloc``-ed segments."""
        return len(self._segments)

    def free_block_count(self, pool: Optional[str] = None) -> int:
        """Number of free blocks cached (optionally in one pool)."""
        if pool is not None:
            return len(self._free_pools[pool])
        return sum(len(p) for p in self._free_pools.values())

    def cached_bytes(self) -> int:
        """Total bytes of free (inactive) blocks held in the pools.

        Maintained incrementally by :meth:`_pool_add` /
        :meth:`_pool_remove` instead of re-summing the pools per query.
        """
        return self._cached_bytes

    # -- every pool entry/exit goes through these two, so the byte
    # -- counter and the whole-free index can never drift from the
    # -- pool contents.  (A block as large as its segment has no
    # -- neighbours: size alone says it is whole.)
    def _pool_add(self, pool: str, block: Block) -> None:
        self._free_pools[pool].add(block)
        self._cached_bytes += block.size
        if block.size == block.segment.size:
            self._whole_free[pool][block.ptr] = block

    def _pool_remove(self, pool: str, block: Block) -> None:
        self._free_pools[pool].remove(block)
        self._cached_bytes -= block.size
        if block.size == block.segment.size:
            del self._whole_free[pool][block.ptr]

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def _malloc_impl(self, size: int) -> "tuple[int, int]":
        rounded = round_size(size)
        (block,) = self._carve(pool_for(rounded), rounded, 1)
        return block.ptr, rounded

    def malloc_run(self, size: int, n: int) -> List[Allocation]:
        """The base class's loop, minus its pool round trips: each
        free block serves as many of the run's mallocs as it can in one
        :meth:`_carve`.  Clock, ids, counters, ``cudaMalloc`` and
        release-and-retry happen per block, in the loop's order."""
        if self._observers or size <= 0:
            return super().malloc_run(size, n)
        rounded = round_size(size)
        pool = pool_for(rounded)
        run: List[Allocation] = []
        try:
            while len(run) < n:
                for block in self._carve(pool, rounded, n - len(run)):
                    run.append(self._issue(block.ptr, size, rounded))
        except OutOfMemoryError:
            pass
        return run

    def malloc_free(self, size: int) -> int:
        """The base class's pair, minus its four pool updates, when the
        pool's best fit serves it.

        That block's neighbours are allocated (or it would have been
        coalesced with them), so the malloc hands it out whole or
        splits off a free remainder beside it, and the free merges
        that remainder straight back: the same ``Block`` with the same
        size and links, the pools and every index as they were.  What
        the pair leaves is its two host-time spends and the counters.
        With no cached fit (a new segment, OOM, release-and-retry) the
        base class's two calls run.
        """
        if not self._observers and size > 0:
            rounded = round_size(size)
            pool = self._free_pools[pool_for(rounded)]
            if pool.first_at_least((rounded, 0)) is not None:
                us = self.device.latency.cached_op_us
                self._spend_host_time(us)  # the malloc
                self._spend_host_time(us)  # the free
                self._issue_and_claim(rounded)
                return rounded
        return super().malloc_free(size)

    def _carve(self, pool: str, rounded: int, want: int) -> List[Block]:
        """Up to ``want`` back-to-back mallocs of ``rounded`` bytes, as
        many as one free block serves.

        The first takes the pool's best fit, or else a new segment
        (which may raise OOM, before anything is carved).  After a
        split the remainder ``r`` has ``r.size < chosen.size`` while
        every other free block that fits is ``>= chosen.size`` (best
        fit took the minimum ``(size, ptr)``), so while ``r.size >=
        rounded`` it is exactly what the next malloc's best-fit search
        would return: it is carved again without entering the pool.
        """
        us = self.device.latency.cached_op_us
        floor = self._split_floor[pool]
        self._spend_host_time(us)
        block = self._find_best_fit(pool, rounded)
        if block is None:
            block = self._alloc_new_segment(rounded, pool)
        carved: List[Block] = []
        while True:
            block.allocated = True
            carved.append(block)
            if block.size - rounded < floor:
                return carved
            remainder = self._split(block, rounded)
            if remainder.size < rounded or len(carved) == want:
                self._pool_add(pool, remainder)
                return carved
            self._spend_host_time(us)  # the next malloc takes remainder
            block = remainder

    def _find_best_fit(self, pool: str, rounded: int) -> Optional[Block]:
        """Step 1 of the BFC algorithm: smallest free block >= request."""
        best = self._free_pools[pool].first_at_least((rounded, 0))
        if best is None:
            return None
        self._pool_remove(pool, best)
        return best

    def _alloc_new_segment(self, rounded: int, pool: str) -> Block:
        """No cached candidate: obtain device memory, releasing the
        cache and trying once more if the device is full."""
        try:
            return self._obtain(rounded, pool)
        except CudaOutOfMemoryError:
            if self._release_cached_segments() == 0:
                raise self._oom(rounded)
            try:
                return self._obtain(rounded, pool)
            except CudaOutOfMemoryError:
                raise self._oom(rounded)

    def _obtain(self, rounded: int, pool: str) -> Block:
        """``cudaMalloc`` a fresh segment; returns its one free block,
        not pooled."""
        seg_size = segment_size_for(rounded)
        ptr = self.device.runtime.cuda_malloc(seg_size)
        segment = Segment(ptr=ptr, size=seg_size, pool=pool)
        self._segments[ptr] = segment
        self._reserved += seg_size
        block = Block(ptr=ptr, size=seg_size, segment=segment)
        segment.last = block
        self._blocks_by_ptr[ptr] = block
        return block

    def _backed_bytes(self, segment: Segment) -> int:
        """How many bytes of ``segment``, from its start, are physical
        memory — what its blocks tile and ``reserved_bytes`` counts."""
        return segment.size

    def _split(self, block: Block, rounded: int) -> Block:
        """Step 2: cut ``block`` down to ``rounded``; returns the free
        remainder, linked in but not yet pooled."""
        remainder = Block(
            ptr=block.ptr + rounded,
            size=block.size - rounded,
            segment=block.segment,
            prev=block,
            next=block.next,
        )
        if block.next is not None:
            block.next.prev = remainder
        else:
            block.segment.last = remainder
        block.next = remainder
        block.size = rounded
        self._blocks_by_ptr[remainder.ptr] = remainder
        return remainder

    # ------------------------------------------------------------------
    # Deallocation
    # ------------------------------------------------------------------
    def _free_impl(self, allocation: Allocation) -> None:
        """Steps 3-4: mark inactive, coalesce with free neighbours."""
        block = self._free_block(allocation, None)
        self._pool_add(block.segment.pool, block)

    def free_run(self, allocations: Iterable[Allocation]) -> None:
        """The base class's loop, without its pool round trips.

        The block a free produces stays out of the pool while the next
        free may still merge with it (a request's blocks are mostly
        address-adjacent); it is pooled when a free does not touch it,
        when the run ends, or when a free raises.
        """
        if self._observers:
            return super().free_run(allocations)
        held: Optional[Block] = None
        freed = freed_bytes = 0
        try:
            for allocation in allocations:
                self._claim(allocation)
                held = self._free_block(allocation, held)
                freed += 1
                freed_bytes += allocation.rounded_size
        finally:
            if held is not None:
                self._pool_add(held.segment.pool, held)
            self._counters.free_count += freed
            self.active_bytes -= freed_bytes

    def _free_block(self, allocation: Allocation,
                    held: Optional[Block]) -> Block:
        """One free of the BFC algorithm.

        ``held`` is a free block the caller keeps out of the pool (or
        ``None``).  Returns the coalesced free block, not pooled; if
        ``held`` was not merged into it, ``held`` is pooled here.
        """
        self._spend_host_time(self.device.latency.cached_op_us)
        block = self._blocks_by_ptr.get(allocation.ptr)
        if block is None or not block.allocated:
            raise AssertionError(
                f"internal error: freeing unknown block at {allocation.ptr:#x}"
            )
        block.allocated = False
        pool = block.segment.pool
        merged_held = False
        nxt = block.next
        if nxt is not None and not nxt.allocated:
            if nxt is held:
                merged_held = True
            else:
                self._pool_remove(pool, nxt)
            del self._blocks_by_ptr[nxt.ptr]
            block.size += nxt.size
            block.next = nxt.next
            if nxt.next is not None:
                nxt.next.prev = block
            else:
                block.segment.last = block
        prv = block.prev
        if prv is not None and not prv.allocated:
            if prv is held:
                merged_held = True
            else:
                self._pool_remove(pool, prv)
            del self._blocks_by_ptr[block.ptr]
            prv.size += block.size
            prv.next = block.next
            if block.next is not None:
                block.next.prev = prv
            else:
                prv.segment.last = prv
            block = prv
        if held is not None and not merged_held:
            self._pool_add(held.segment.pool, held)
        return block

    # ------------------------------------------------------------------
    # Cache release
    # ------------------------------------------------------------------
    def _empty_cache_impl(self) -> None:
        """Release every wholly-free segment back to the device."""
        self._release_cached_segments()

    def _release_cached_segments(self) -> int:
        """``cudaFree`` each segment whose single block is free.

        Returns the number of bytes released.
        """
        released = 0
        for pool_name, whole in self._whole_free.items():
            if not whole:
                continue
            # Pool by pool in (size, ptr) order — the order a walk of
            # the pools meets them; ``cuda_free`` order is behaviour.
            for block in sorted(whole.values(),
                                key=lambda b: (b.size, b.ptr)):
                self._pool_remove(pool_name, block)
                del self._blocks_by_ptr[block.ptr]
                del self._segments[block.segment.ptr]
                self.device.runtime.cuda_free(block.segment.ptr)
                self._reserved -= block.segment.size
                released += block.segment.size
        return released

    # ------------------------------------------------------------------
    # Invariant checks (for property tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if internal bookkeeping is inconsistent."""
        super().check_invariants()
        # Every live allocation sits in an allocated block that holds it.
        for alloc in self._live.values():
            block = self._blocks_by_ptr.get(alloc.ptr)
            assert (block is not None and block.allocated
                    and block.size >= alloc.rounded_size), (
                f"allocation #{alloc.alloc_id} of {alloc.rounded_size} bytes "
                f"is not held by an allocated block: {block}"
            )
        # Every segment's blocks, linked in address order from its
        # start to ``last``, tile its physical bytes exactly, and no
        # two free ones are adjacent (coalescing happened).
        linked = 0
        for ptr, seg in self._segments.items():
            cursor, prev = ptr, None
            block = self._blocks_by_ptr.get(ptr)
            while block is not None:
                assert block.ptr == cursor and block.segment is seg, (
                    f"segment {ptr:#x}: gap or foreign block at {cursor:#x}"
                )
                assert block.prev is prev, f"broken prev link at {cursor:#x}"
                assert block.allocated or prev is None or prev.allocated, (
                    "adjacent free blocks not coalesced"
                )
                cursor += block.size
                linked += 1
                prev, block = block, block.next
            assert cursor - ptr == self._backed_bytes(seg), (
                f"segment {ptr:#x}: blocks cover {cursor - ptr} of "
                f"{self._backed_bytes(seg)} bytes"
            )
            assert seg.last is prev, f"segment {ptr:#x}: stale last block"
        assert linked == len(self._blocks_by_ptr), "blocks outside any segment"
        # Free pools contain exactly the non-allocated blocks.
        free_ptrs = {b.ptr for p in self._free_pools.values() for b in p}
        expected = {b.ptr for b in self._blocks_by_ptr.values() if not b.allocated}
        assert free_ptrs == expected, "free pools out of sync with block table"
        # Reserved equals the segments' physical bytes.
        assert self._reserved == sum(
            self._backed_bytes(s) for s in self._segments.values())
        # The incremental cached-bytes counter matches a full re-sum.
        assert self._cached_bytes == sum(
            b.size for p in self._free_pools.values() for b in p
        ), "cached_bytes counter out of sync with the free pools"
        for name, pool in self._free_pools.items():
            assert pool.check_sorted()
            # The whole-free index is exactly the pooled blocks that
            # span their segment.
            whole = {b.ptr: b for b in pool if b.is_whole_segment()}
            indexed = self._whole_free[name]
            assert indexed.keys() == whole.keys() and all(
                indexed[ptr] is block for ptr, block in whole.items()
            ), f"whole-free index out of sync with the {name} pool"
