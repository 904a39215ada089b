"""Simulated CUDA low-level virtual memory management (VMM) driver API.

This is the interface the paper's Section 2.5 describes and GMLake is
built on: ``cuMemAddressReserve`` / ``cuMemCreate`` / ``cuMemMap`` /
``cuMemSetAccess`` plus the deallocation family ``cuMemUnmap`` /
``cuMemRelease`` / ``cuMemAddressFree``.

Contracts enforced (matching the real driver):

* Physical chunks are created at 2 MB granularity (sizes must be positive
  multiples of the granularity).
* A mapping binds one whole physical chunk at an offset inside a live VA
  reservation; mappings within one reservation must not overlap.
* The same physical chunk **may** be mapped at several virtual addresses
  simultaneously — the property GMLake's stitching exploits ("the PA in
  VMM can be pointed by multiple VAs").
* A chunk's physical bytes are returned only when every mapping is
  unmapped and the creation handle is released.
* Mapped ranges must be made accessible with ``cuMemSetAccess`` before a
  tensor may use them.
* An unmap takes whole mappings: a range whose ends cut one is refused.

Every call advances the shared :class:`~repro.gpu.clock.SimClock` by the
:class:`~repro.gpu.latency.LatencyModel` cost and bumps a counter, which
is how end-to-end allocator overhead (Figures 11/13 throughput) and the
Table 1 breakdown are measured.  A run of calls over many chunks checks
and prices them once, but still adds each call's latency on its own.
A ``back`` doomed to run out of memory charges its calls but makes no chunk.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.errors import (
    CudaInvalidAddressError,
    CudaInvalidValueError,
    CudaOutOfMemoryError,
)
from repro.gpu.clock import SimClock, repeated_add
from repro.gpu.latency import LatencyModel
from repro.gpu.phys import PhysicalMemory
from repro.gpu.vaspace import VirtualAddressSpace
from repro.units import MB, is_aligned


@dataclass
class VmmCounters:
    """Cumulative driver API call counts and time, per device."""

    reserve_calls: int = 0
    create_calls: int = 0
    map_calls: int = 0
    set_access_calls: int = 0
    unmap_calls: int = 0
    release_calls: int = 0
    address_free_calls: int = 0
    total_time_us: float = 0.0

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict view for reporting."""
        return asdict(self)


@dataclass(slots=True)
class _Mapping:
    """One chunk mapped at ``offset`` within a reservation."""

    offset: int
    size: int
    handle: int
    accessible: bool = False


class CudaVmm:
    """The simulated ``cuMem*`` driver API for one device."""

    #: Minimum physical allocation granularity on the simulated device.
    GRANULARITY = 2 * MB

    def __init__(self, phys: PhysicalMemory, vaspace: VirtualAddressSpace,
                 clock: SimClock, latency: LatencyModel):
        self._phys = phys
        self._va = vaspace
        self._clock = clock
        self._latency = latency
        self.counters = VmmCounters()
        # va -> sorted-by-offset list of mappings inside that reservation
        self._mappings: Dict[int, List[_Mapping]] = {}

    # ------------------------------------------------------------------
    def _spend(self, us: float, calls: int = 1) -> None:
        # One float add per call on both accumulators, in call order.
        self._clock.advance_many(us, calls)
        self.counters.total_time_us = repeated_add(
            self.counters.total_time_us, us, calls)

    def _charge(self, cost: Callable[[int], float],
                mappings: Sequence[_Mapping]) -> None:
        """Spend ``cost(size)`` once per mapping, in table order."""
        for size, run in itertools.groupby([m.size for m in mappings]):
            self._spend(cost(size), len(list(run)))

    def _table(self, va: int) -> List[_Mapping]:
        maps = self._mappings.get(va)
        if maps is None:
            raise CudaInvalidAddressError(f"{va:#x} is not a reserved address")
        return maps

    def _span(self, va: int, offset: int,
              size: int) -> Tuple[List[_Mapping], int]:
        """Check that ``[va+offset, va+offset+size)`` may be mapped;
        returns the table and the index new mappings there go in."""
        maps = self._table(va)
        if size <= 0 or not self._va.contains(va, offset, size):
            raise CudaInvalidAddressError(
                f"map of {size} bytes at offset {offset} exceeds "
                f"reservation at {va:#x}"
            )
        # The table is sorted by offset and overlap-free, so only the two
        # neighbours of the insertion point can overlap; appending is the
        # common case.
        idx = len(maps)
        if maps and maps[-1].offset + maps[-1].size > offset:
            idx = bisect.bisect_left(maps, offset, key=lambda m: m.offset)
        if (idx and maps[idx - 1].offset + maps[idx - 1].size > offset) or (
                idx < len(maps) and maps[idx].offset < offset + size):
            raise CudaInvalidValueError(
                f"overlapping map of {size} bytes at {va:#x}+{offset}")
        return maps, idx

    # ------------------------------------------------------------------
    # Allocation family
    # ------------------------------------------------------------------
    def mem_address_reserve(self, size: int) -> int:
        """Reserve ``size`` bytes of virtual address space."""
        self._spend(self._latency.mem_address_reserve(size))
        self.counters.reserve_calls += 1
        va = self._va.reserve(size)
        self._mappings[va] = []
        return va

    def mem_create(self, size: int) -> int:
        """Create a physical chunk of ``size`` bytes; returns its handle.

        ``size`` must be a positive multiple of :attr:`GRANULARITY`.
        """
        if size <= 0 or not is_aligned(size, self.GRANULARITY):
            raise CudaInvalidValueError(
                f"cuMemCreate size must be a positive multiple of "
                f"{self.GRANULARITY}, got {size}"
            )
        self._spend(self._latency.mem_create(size))
        self.counters.create_calls += 1
        return self._phys.create(size)

    def mem_map(self, va: int, offset: int, handle: int) -> None:
        """Map physical ``handle`` at ``va + offset``.

        The full chunk is mapped; the target range must lie inside the
        reservation that starts at ``va`` and must not overlap an
        existing mapping in that reservation.
        """
        self._map(va, offset, (handle,), self._phys.get(handle).size)

    def _map(self, va: int, offset: int, handles: Sequence[int],
             chunk_size: int) -> List[_Mapping]:
        """``cuMemMap`` each of ``handles`` (all ``chunk_size`` bytes) in
        turn, back to back from ``va + offset``; returns the mappings."""
        maps, idx = self._span(va, offset, len(handles) * chunk_size)
        self._phys.retain(*handles, size=chunk_size)
        self._spend(self._latency.mem_map(chunk_size), len(handles))
        self.counters.map_calls += len(handles)
        added = [_Mapping(offset + i * chunk_size, chunk_size, handle)
                 for i, handle in enumerate(handles)]
        maps[idx:idx] = added
        return added

    def mem_set_access(self, va: int, offset: int, size: int) -> None:
        """Grant read/write access to ``[va+offset, va+offset+size)``.

        Every byte of the range must already be mapped.
        """
        maps = self._table(va)
        end = offset + size
        # Binary-search the first mapping that can cover ``offset``; the
        # table is sorted by offset and overlap-free, so the covering
        # run (if any) is contiguous from there.
        idx = bisect.bisect_right(maps, offset, key=lambda m: m.offset)
        if idx and maps[idx - 1].offset + maps[idx - 1].size > offset:
            idx -= 1
        first, cursor = idx, offset
        while idx < len(maps) and cursor >= maps[idx].offset < end:
            cursor = maps[idx].offset + maps[idx].size
            idx += 1
        if cursor < end:
            raise CudaInvalidAddressError(
                f"setAccess range [{offset}, {end}) at {va:#x} is not fully mapped"
            )
        self._grant(maps[first:idx])

    def _grant(self, mappings: Sequence[_Mapping]) -> None:
        """``cuMemSetAccess`` over each of ``mappings`` in turn."""
        self._charge(self._latency.mem_set_access, mappings)
        self.counters.set_access_calls += len(mappings)
        for m in mappings:
            m.accessible = True

    # ------------------------------------------------------------------
    # The two §2.5 sequences every VMM allocator is built from.  The
    # order of the driver calls is the simulated clock: keep it.
    # ------------------------------------------------------------------
    def back(self, va: int, offset: int, size: int,
             chunk_size: int) -> List[int]:
        """Back ``[va+offset, va+offset+size)`` with new physical memory:
        create and map one ``chunk_size`` chunk after another in address
        order, then make the range accessible.  Returns the handles in
        address order; the caller holds their creation references.

        A range the reservation refuses, outside it or over a mapping,
        is refused before any chunk is created.  If the device cannot
        commit a chunk, those made so far are unmapped and released
        before :class:`CudaOutOfMemoryError` propagates: the reservation
        is left as it was found; a doomed range is counted, not carved.
        """
        offsets = range(offset, offset + size, chunk_size)
        if not offsets:  # no chunk to make: only the closing set-access
            self.mem_set_access(va, offset, size)
            return []
        need = len(offsets) * chunk_size
        maps, idx = self._span(va, offset, need)
        if need > self._phys.free and is_aligned(chunk_size, self.GRANULARITY):
            made = self._phys.refuse_creates(chunk_size, len(offsets))
            if made is not None:
                raise self._refuse_back(made, chunk_size)
        map_us = self._latency.mem_map(chunk_size)
        handles: List[int] = []
        try:
            for i, at in enumerate(offsets):
                handles.append(self.mem_create(chunk_size))
                self._phys.retain(handles[-1])
                self._spend(map_us)
                self.counters.map_calls += 1
                maps.insert(idx + i, _Mapping(at, chunk_size, handles[-1]))
        except CudaOutOfMemoryError:
            # Only creating a chunk raises it, so every listed handle is mapped.
            if handles:
                self.mem_unmap(va, offset, len(handles) * chunk_size)
                for handle in handles:
                    self.mem_release(handle)
            raise
        self._grant(maps[idx:idx + len(handles)])
        return handles

    def _refuse_back(self, made: int, chunk_size: int) -> CudaOutOfMemoryError:
        """Charge and count a ``back`` whose create after ``made``
        chunks fails, without making or mapping any; returns its error."""
        latency, counters = self._latency, self.counters
        create_us, map_us = latency.mem_create(chunk_size), latency.mem_map(chunk_size)
        now, total = self._clock.now_us, counters.total_time_us
        for _ in range(made):  # one add per call, in call order
            now, total = now + create_us + map_us, total + create_us + map_us
        self._clock.advance_to(now + create_us)
        counters.total_time_us = total + create_us
        self._spend(latency.mem_unmap(chunk_size), made)
        self._spend(latency.mem_release(chunk_size), made)
        counters.create_calls += made + 1
        counters.map_calls += made
        counters.unmap_calls += made
        counters.release_calls += made
        free = self._phys.free - made * chunk_size  # at the failing create
        return CudaOutOfMemoryError(chunk_size, free, self._phys.capacity)

    def alias(self, handles: Sequence[int], chunk_size: int) -> int:
        """Reserve a fresh range and map the existing ``chunk_size``
        chunks ``handles`` into it back to back, accessible; returns
        its address.  No physical memory is created: each map adds a
        reference, so a chunk outlives any single range over it.  A
        handle that is not a live ``chunk_size`` chunk is refused before
        any map."""
        va = self.mem_address_reserve(len(handles) * chunk_size)
        self._grant(self._map(va, 0, handles, chunk_size))
        return va

    # ------------------------------------------------------------------
    # Deallocation family
    # ------------------------------------------------------------------
    def mem_unmap(self, va: int, offset: int, size: int) -> None:
        """Unmap every mapping in the range, which must cut none."""
        maps = self._table(va)
        end = offset + size
        # The mappings starting in the range are one run of the sorted
        # table; only the one before it or its last can cross an end.
        lo = bisect.bisect_left(maps, offset, key=lambda m: m.offset)
        hi = bisect.bisect_left(maps, end, lo=lo, key=lambda m: m.offset)
        if (lo and maps[lo - 1].offset + maps[lo - 1].size > offset) or (
                hi > lo and maps[hi - 1].offset + maps[hi - 1].size > end):
            raise CudaInvalidValueError(
                f"unmap range [{offset}, {end}) at {va:#x} cuts a mapping")
        removed = maps[lo:hi]
        if not removed:
            raise CudaInvalidValueError(
                f"unmap range [{offset}, {end}) at {va:#x} contains no mapping"
            )
        del maps[lo:hi]
        self._charge(self._latency.mem_unmap, removed)
        self.counters.unmap_calls += len(removed)
        self._phys.release_refs([m.handle for m in removed])

    def mem_release(self, handle: int) -> None:
        """Release the creation reference of a physical chunk."""
        chunk = self._phys.get(handle)
        self._spend(self._latency.mem_release(chunk.size))
        self.counters.release_calls += 1
        self._phys.release(handle)

    def mem_address_free(self, va: int) -> None:
        """Free a VA reservation.  All mappings must be unmapped first."""
        maps = self._table(va)
        if maps:
            raise CudaInvalidValueError(
                f"cannot free reservation {va:#x}: {len(maps)} mappings remain"
            )
        self._spend(self._latency.mem_address_free(0))
        self.counters.address_free_calls += 1
        del self._mappings[va]
        self._va.free(va)

    # ------------------------------------------------------------------
    # Introspection (used by tests and metrics)
    # ------------------------------------------------------------------
    def mappings_at(self, va: int) -> List[Tuple[int, int, int]]:
        """Return ``(offset, size, handle)`` triples mapped at ``va``."""
        return [(m.offset, m.size, m.handle) for m in self._table(va)]

    def is_fully_mapped(self, va: int, size: int) -> bool:
        """True if ``[va, va+size)`` is covered by contiguous mappings."""
        maps = self._mappings.get(va)
        if maps is None:
            return False
        cursor = 0
        for m in maps:
            if m.offset > cursor:
                return False
            cursor = max(cursor, m.offset + m.size)
            if cursor >= size:
                return True
        return cursor >= size
