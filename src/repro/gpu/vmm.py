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

Every call advances the shared :class:`~repro.gpu.clock.SimClock` by the
:class:`~repro.gpu.latency.LatencyModel` cost and bumps a counter, which
is how end-to-end allocator overhead (Figures 11/13 throughput) and the
Table 1 breakdown are measured.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import (
    CudaInvalidAddressError,
    CudaInvalidValueError,
    CudaOutOfMemoryError,
)
from repro.gpu.clock import SimClock
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
        return {
            "reserve_calls": self.reserve_calls,
            "create_calls": self.create_calls,
            "map_calls": self.map_calls,
            "set_access_calls": self.set_access_calls,
            "unmap_calls": self.unmap_calls,
            "release_calls": self.release_calls,
            "address_free_calls": self.address_free_calls,
            "total_time_us": self.total_time_us,
        }


@dataclass
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
    def _spend(self, us: float) -> None:
        self._clock.advance(us)
        self.counters.total_time_us += us

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
        chunk = self._phys.get(handle)
        if va not in self._mappings:
            raise CudaInvalidAddressError(f"{va:#x} is not a reserved address")
        if not self._va.contains(va, offset, chunk.size):
            raise CudaInvalidAddressError(
                f"map of {chunk.size} bytes at offset {offset} exceeds "
                f"reservation at {va:#x}"
            )
        # The per-VA table is kept sorted by offset, so only the two
        # neighbours of the insertion point can overlap — stitching a
        # k-chunk sBlock is O(k) instead of O(k^2 log k): every caller
        # maps chunks in ascending offset order, making the append
        # fast path the common case.
        maps = self._mappings[va]
        last = maps[-1] if maps else None
        if last is None or offset >= last.offset + last.size:
            idx = len(maps)
        else:
            idx = bisect.bisect_left(maps, offset, key=lambda m: m.offset)
            for m in (maps[idx - 1] if idx else None,
                      maps[idx] if idx < len(maps) else None):
                if m is not None and (offset < m.offset + m.size
                                      and m.offset < offset + chunk.size):
                    raise CudaInvalidValueError(
                        f"overlapping map at {va:#x}+{offset} "
                        f"(existing mapping at +{m.offset})"
                    )
        self._spend(self._latency.mem_map(chunk.size))
        self.counters.map_calls += 1
        self._phys.retain(handle)
        maps.insert(idx, _Mapping(offset=offset, size=chunk.size, handle=handle))

    def mem_set_access(self, va: int, offset: int, size: int) -> None:
        """Grant read/write access to ``[va+offset, va+offset+size)``.

        Every byte of the range must already be mapped.
        """
        maps = self._mappings.get(va)
        if maps is None:
            raise CudaInvalidAddressError(f"{va:#x} is not a reserved address")
        end = offset + size
        cursor = offset
        touched: List[_Mapping] = []
        # Binary-search the first mapping that can cover ``offset``; the
        # table is sorted by offset and overlap-free, so the covering
        # run (if any) is contiguous from there.
        idx = bisect.bisect_right(maps, offset, key=lambda m: m.offset)
        if idx and maps[idx - 1].offset + maps[idx - 1].size > offset:
            idx -= 1
        while idx < len(maps) and maps[idx].offset < end:
            m = maps[idx]
            if m.offset > cursor:
                break
            touched.append(m)
            cursor = m.offset + m.size
            idx += 1
            if cursor >= end:
                break
        if cursor < end:
            raise CudaInvalidAddressError(
                f"setAccess range [{offset}, {end}) at {va:#x} is not fully mapped"
            )
        for m in touched:
            self._spend(self._latency.mem_set_access(m.size))
            self.counters.set_access_calls += 1
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

        If the device cannot commit a chunk, those made so far are
        unmapped and released before :class:`CudaOutOfMemoryError`
        propagates: the reservation is left as it was found.
        """
        handles: List[int] = []
        try:
            for at in range(offset, offset + size, chunk_size):
                handle = self.mem_create(chunk_size)
                handles.append(handle)
                self.mem_map(va, at, handle)
        except CudaOutOfMemoryError:
            # Only mem_create raises it, so every listed handle is mapped.
            if handles:
                self.mem_unmap(va, offset, len(handles) * chunk_size)
                for handle in handles:
                    self.mem_release(handle)
            raise
        self.mem_set_access(va, offset, size)
        return handles

    def alias(self, handles: Sequence[int], chunk_size: int) -> int:
        """Reserve a fresh range and map the existing ``chunk_size``
        chunks ``handles`` into it back to back, accessible; returns
        its address.  No physical memory is created: each map adds a
        reference, so a chunk outlives any single range over it."""
        size = len(handles) * chunk_size
        va = self.mem_address_reserve(size)
        for i, handle in enumerate(handles):
            self.mem_map(va, i * chunk_size, handle)
        self.mem_set_access(va, 0, size)
        return va

    # ------------------------------------------------------------------
    # Deallocation family
    # ------------------------------------------------------------------
    def mem_unmap(self, va: int, offset: int, size: int) -> None:
        """Unmap every mapping fully contained in the given range."""
        maps = self._mappings.get(va)
        if maps is None:
            raise CudaInvalidAddressError(f"{va:#x} is not a reserved address")
        end = offset + size
        # Fully-contained mappings form one contiguous run in the
        # sorted table: everything from the first mapping at or past
        # ``offset`` while it still ends by ``end``.
        lo = bisect.bisect_left(maps, offset, key=lambda m: m.offset)
        hi = lo
        while hi < len(maps) and maps[hi].offset + maps[hi].size <= end:
            hi += 1
        removed = maps[lo:hi]
        if not removed:
            raise CudaInvalidValueError(
                f"unmap range [{offset}, {end}) at {va:#x} contains no mapping"
            )
        del maps[lo:hi]
        for m in removed:
            self._spend(self._latency.mem_unmap(m.size))
            self.counters.unmap_calls += 1
            self._phys.release_ref(m.handle)

    def mem_release(self, handle: int) -> None:
        """Release the creation reference of a physical chunk."""
        chunk = self._phys.get(handle)
        self._spend(self._latency.mem_release(chunk.size))
        self.counters.release_calls += 1
        self._phys.release(handle)

    def mem_address_free(self, va: int) -> None:
        """Free a VA reservation.  All mappings must be unmapped first."""
        maps = self._mappings.get(va)
        if maps is None:
            raise CudaInvalidAddressError(f"{va:#x} is not a reserved address")
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
        maps = self._mappings.get(va)
        if maps is None:
            raise CudaInvalidAddressError(f"{va:#x} is not a reserved address")
        return [(m.offset, m.size, m.handle) for m in maps]

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
