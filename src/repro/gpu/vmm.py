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
and prices them once, but still adds each call's latency on its own,
and keeps one record (:class:`_Extent`) of the whole run: a range that
ends inside a record splits it there.  :class:`PhysicalMemory` keeps
the same kind of record one layer down, so ``back`` creates its chunks
as one run, and a map or unmap retains or releases them per run.  A
``back`` doomed to run out of memory charges its calls but makes no
chunk.
"""

from __future__ import annotations

import bisect
from dataclasses import asdict, dataclass
from operator import attrgetter
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import (CudaInvalidAddressError, CudaInvalidValueError,
                          CudaOutOfMemoryError)
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
class _Extent:
    """The ``chunk``-byte chunks ``handles`` mapped back to back from
    ``offset`` within a reservation: one mapping per handle."""

    offset: int
    chunk: int
    handles: List[int]
    accessible: bool = False

    @property
    def end(self) -> int:
        return self.offset + len(self.handles) * self.chunk


_offset = attrgetter("offset")


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
        # va -> sorted-by-offset, overlap-free extents in that reservation
        self._mappings: Dict[int, List[_Extent]] = {}

    def _spend(self, us: float, calls: int = 1) -> None:
        # One float add per call on both accumulators, in call order.
        self._clock.advance_many(us, calls)
        self.counters.total_time_us = repeated_add(
            self.counters.total_time_us, us, calls)

    def _spend_pairs(self, first: float, then: float, n: int) -> None:
        """``_spend(first)`` and then ``_spend(then)``, ``n`` times over."""
        now, total = self._clock.now_us, self.counters.total_time_us
        for _ in range(n):  # one add per call, in call order
            now, total = now + first + then, total + first + then
        self._clock.advance_to(now)
        self.counters.total_time_us = total

    def _table(self, va: int) -> List[_Extent]:
        maps = self._mappings.get(va)
        if maps is None:
            raise CudaInvalidAddressError(f"{va:#x} is not a reserved address")
        return maps

    def _span(self, va: int, offset: int, size: int) -> Tuple[List[_Extent], int]:
        """Check that ``[va+offset, va+offset+size)`` may be mapped;
        returns the table and the index a new extent there goes in."""
        maps = self._table(va)
        if size <= 0 or not self._va.contains(va, offset, size):
            raise CudaInvalidAddressError(
                f"map of {size} bytes at offset {offset} exceeds reservation at {va:#x}")
        # The table is sorted by offset and overlap-free, so only the two
        # neighbours of the insertion point can overlap; appending is common.
        idx = len(maps)
        if maps and maps[-1].end > offset:
            idx = bisect.bisect_left(maps, offset, key=_offset)
        if (idx and maps[idx - 1].end > offset) or (
                idx < len(maps) and maps[idx].offset < offset + size):
            raise CudaInvalidValueError(
                f"overlapping map of {size} bytes at {va:#x}+{offset}")
        return maps, idx

    @staticmethod
    def _boundary(maps: List[_Extent], at: int) -> int:
        """Index of the first extent at or past ``at``, after splitting
        the extent ``at`` falls inside, which it must not cut a chunk of."""
        idx = bisect.bisect_left(maps, at, key=_offset)
        if idx and maps[idx - 1].end > at:
            whole = maps[idx - 1]
            k, cut = divmod(at - whole.offset, whole.chunk)
            if cut:
                raise CudaInvalidValueError(f"range end {at} cuts a mapping")
            maps[idx - 1:idx] = [
                _Extent(whole.offset, whole.chunk, whole.handles[:k],
                        whole.accessible),
                _Extent(at, whole.chunk, whole.handles[k:], whole.accessible)]
        return idx

    def _check_chunk(self, size: int) -> None:
        if size <= 0 or not is_aligned(size, self.GRANULARITY):
            raise CudaInvalidValueError(f"cuMemCreate size must be a positive "
                                        f"multiple of {self.GRANULARITY}, got {size}")

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
        """Create a physical chunk of ``size`` bytes, a positive multiple
        of :attr:`GRANULARITY`; returns its handle."""
        self._check_chunk(size)
        self._spend(self._latency.mem_create(size))
        self.counters.create_calls += 1
        return self._phys.create(size)

    def mem_map(self, va: int, offset: int, handle: int) -> None:
        """Map the whole physical chunk ``handle`` at ``va + offset``,
        inside the reservation at ``va`` and over none of its mappings."""
        self._map(va, offset, (handle,), self._phys.get(handle).size)

    def _map(self, va: int, offset: int, handles: Sequence[int], chunk_size: int) -> _Extent:
        """``cuMemMap`` each of ``handles`` (all ``chunk_size`` bytes) in
        turn, back to back from ``va + offset``; returns their extent."""
        maps, idx = self._span(va, offset, len(handles) * chunk_size)
        self._phys.retain(*handles, size=chunk_size)
        self._spend(self._latency.mem_map(chunk_size), len(handles))
        self.counters.map_calls += len(handles)
        extent = _Extent(offset, chunk_size, list(handles))
        maps.insert(idx, extent)
        return extent

    def mem_set_access(self, va: int, offset: int, size: int) -> None:
        """Grant read/write access to ``[va+offset, va+offset+size)``,
        every byte of which must already be mapped."""
        maps = self._table(va)
        end = offset + size
        # Binary-search the first extent that can cover ``offset``; the
        # covering run (if any) is contiguous from there.
        idx = bisect.bisect_right(maps, offset, key=_offset)
        if idx and maps[idx - 1].end > offset:
            idx -= 1
        first, cursor = idx, offset
        while idx < len(maps) and cursor >= maps[idx].offset < end:
            cursor = maps[idx].end
            idx += 1
        if cursor < end:
            raise CudaInvalidAddressError(
                f"setAccess range [{offset}, {end}) at {va:#x} is not fully mapped")
        if idx > first:  # the chunks the range touches, and no other
            lo, hi = maps[first], maps[idx - 1]
            stop = hi.offset + hi.chunk * min(
                -(-(end - hi.offset) // hi.chunk), len(hi.handles))
            first = self._boundary(maps, offset - (offset - lo.offset) % lo.chunk)
            idx = self._boundary(maps, stop)
        self._grant(maps[first:idx])

    def _grant(self, extents: Iterable[_Extent]) -> None:
        """``cuMemSetAccess`` over each chunk of ``extents`` in turn."""
        cost, counters = self._latency.mem_set_access, self.counters
        for extent in extents:
            self._spend(cost(extent.chunk), len(extent.handles))
            counters.set_access_calls += len(extent.handles)
            extent.accessible = True

    # ------------------------------------------------------------------
    # The two §2.5 sequences every VMM allocator is built from.  The
    # order of the driver calls is the simulated clock: keep it.
    # ------------------------------------------------------------------
    def back(self, va: int, offset: int, size: int, chunk_size: int) -> List[int]:
        """Back ``[va+offset, va+offset+size)`` with new physical memory:
        create and map one ``chunk_size`` chunk after another in address
        order, then make the range accessible.  Returns the handles in
        address order; the caller holds their creation references.

        A range outside the reservation or over a mapping is refused
        before any chunk is made.  If the device cannot commit a chunk,
        those made so far are unmapped and released before
        :class:`CudaOutOfMemoryError` propagates, leaving the reservation
        as it was; a doomed range is counted, not carved."""
        n = len(range(offset, offset + size, chunk_size))
        if not n:  # no chunk to make: only the closing set-access
            self.mem_set_access(va, offset, size)
            return []
        maps, idx = self._span(va, offset, n * chunk_size)
        self._check_chunk(chunk_size)
        phys = self._phys
        if n * chunk_size > phys.free:
            made = phys.refuse_creates(chunk_size, n)
            if made is not None:
                self._fail_back(made, chunk_size)
                free = phys.free - made * chunk_size  # at the failing create
                raise CudaOutOfMemoryError(chunk_size, free, phys.capacity)
        handles = phys.create_run(chunk_size, n)
        if handles is None:  # a fault injector's creates, one at a time
            handles = []
            try:
                for _ in range(n):
                    handles.append(phys.create(chunk_size))
            except CudaOutOfMemoryError:
                phys.release_refs(handles)  # their creation references
                self._fail_back(len(handles), chunk_size)
                raise
        latency, counters = self._latency, self.counters
        self._spend_pairs(latency.mem_create(chunk_size),
                          latency.mem_map(chunk_size), n)
        counters.create_calls += n
        counters.map_calls += n
        phys.retain(*handles)
        maps.insert(idx, _Extent(offset, chunk_size, handles))
        self._grant(maps[idx:idx + 1])
        return list(handles)

    def _fail_back(self, made: int, chunk_size: int) -> None:
        """Charge and count a ``back`` whose create after ``made`` chunks
        fails: ``[create, map] × made``, create, ``unmap``s, ``release``s."""
        latency, counters = self._latency, self.counters
        create_us = latency.mem_create(chunk_size)
        self._spend_pairs(create_us, latency.mem_map(chunk_size), made)
        self._spend(create_us)
        self._spend(latency.mem_unmap(chunk_size), made)
        self._spend(latency.mem_release(chunk_size), made)
        counters.create_calls += made + 1
        counters.map_calls += made
        counters.unmap_calls += made
        counters.release_calls += made

    def alias(self, handles: Sequence[int], chunk_size: int) -> int:
        """Reserve a fresh range and map the existing ``chunk_size``
        chunks ``handles`` into it back to back, accessible; returns its
        address.  Each map adds a reference, so a chunk outlives any one
        range over it; a handle that is not a live ``chunk_size`` chunk
        is refused before any map."""
        va = self.mem_address_reserve(len(handles) * chunk_size)
        self._grant((self._map(va, 0, handles, chunk_size),))
        return va

    # ------------------------------------------------------------------
    # Deallocation family
    # ------------------------------------------------------------------
    def mem_unmap(self, va: int, offset: int, size: int) -> None:
        """Unmap every mapping in the range, which must cut none."""
        maps = self._table(va)
        lo = self._boundary(maps, offset)  # a split alone changes no mapping
        hi = self._boundary(maps, offset + size)
        removed = maps[lo:hi]
        if not removed:
            raise CudaInvalidValueError(
                f"unmap range at {va:#x}+{offset} contains no mapping")
        del maps[lo:hi]
        cost, counters = self._latency.mem_unmap, self.counters
        for extent in removed:
            self._spend(cost(extent.chunk), len(extent.handles))
            counters.unmap_calls += len(extent.handles)
        for extent in removed:
            self._phys.release_refs(extent.handles)

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
            raise CudaInvalidValueError(f"cannot free reservation {va:#x}: mappings remain")
        self._spend(self._latency.mem_address_free(0))
        self.counters.address_free_calls += 1
        del self._mappings[va]
        self._va.free(va)

    # ------------------------------------------------------------------
    # Introspection (used by tests and metrics)
    # ------------------------------------------------------------------
    def mappings_at(self, va: int) -> List[Tuple[int, int, int]]:
        """Return ``(offset, size, handle)`` triples mapped at ``va``."""
        return [(m.offset + i * m.chunk, m.chunk, handle)
                for m in self._table(va) for i, handle in enumerate(m.handles)]

    def is_fully_mapped(self, va: int, size: int) -> bool:
        """True if ``[va, va+size)`` is covered by contiguous mappings."""
        cursor = 0
        for m in self._mappings.get(va, ()):
            if m.offset > cursor:
                break
            cursor = m.end
        return va in self._mappings and cursor >= size
