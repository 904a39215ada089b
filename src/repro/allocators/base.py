"""Common allocator interface and bookkeeping.

Subclasses implement ``_malloc_impl`` / ``_free_impl`` and a
``reserved_bytes`` property; the base class owns the live-allocation
table, active-byte accounting, peak tracking, and the double-free /
foreign-pointer contract checks, so every allocator reports statistics
identically.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.allocators.stats import AllocatorStats
from repro.errors import (
    AllocatorError,
    DoubleFreeError,
    OutOfMemoryError,
    UnknownAllocationError,
)
from repro.gpu.device import GpuDevice


@dataclass(frozen=True, slots=True)
class Allocation:
    """A live allocation handed to a client (one tensor's storage).

    Attributes
    ----------
    ptr:
        Virtual device address of the storage.
    size:
        Size the client requested, in bytes.
    rounded_size:
        Size the allocator accounts for this allocation (after rounding
        to its internal granularity); ``active_bytes`` sums these, like
        PyTorch's ``allocated_bytes`` statistic.
    alloc_id:
        Monotonically increasing identifier, unique per allocator.
    """

    ptr: int
    size: int
    rounded_size: int
    alloc_id: int


@dataclass
class _OpCounters:
    malloc_count: int = 0
    free_count: int = 0
    host_time_us: float = 0.0


class AllocatorObserver:
    """Event-hook interface over one allocator's lifecycle.

    Subscribers (timeline recorders, memory reports, custom telemetry)
    attach with :meth:`BaseAllocator.add_observer` and override the
    hooks they care about; every hook is a no-op by default.  Hooks
    fire *after* the allocator's bookkeeping, so ``allocator.stats()``
    seen from a hook is consistent with the event.

    In-tree subscribers: :class:`repro.sim.timeline.TimelineRecorder`
    (per-event memory timelines),
    :class:`repro.analysis.PeakMemoryObserver` (peak breakdowns) and
    :class:`repro.obs.AllocatorTraceObserver` (allocator events inside
    a serving lifecycle trace).
    """

    def on_alloc(self, allocator: "BaseAllocator", allocation: Allocation) -> None:
        """A malloc succeeded."""

    def on_free(self, allocator: "BaseAllocator", allocation: Allocation) -> None:
        """An allocation was returned."""

    def on_empty_cache(self, allocator: "BaseAllocator") -> None:
        """``empty_cache`` released the allocator's cached memory."""

    def on_oom(self, allocator: "BaseAllocator", size: int,
               error: OutOfMemoryError) -> None:
        """A malloc of ``size`` bytes failed even after reclaim."""


class BaseAllocator(ABC):
    """Abstract allocator over one :class:`~repro.gpu.device.GpuDevice`."""

    def __init__(self, device: GpuDevice, name: Optional[str] = None):
        self.device = device
        self.name = name if name is not None else type(self).__name__
        self._live: Dict[int, Allocation] = {}
        self._next_id = 1
        self._counters = _OpCounters()
        self.active_bytes = 0
        self.peak_active_bytes = 0
        self.peak_reserved_bytes = 0
        self._driver_time_at_start = device.driver_time_us()
        self._observers: List[AllocatorObserver] = []

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def malloc(self, size: int) -> Allocation:
        """Allocate ``size`` bytes of device memory for a tensor.

        Raises :class:`~repro.errors.OutOfMemoryError` when the request
        cannot be satisfied even after the allocator's reclaim fallback.
        """
        if size <= 0:
            raise AllocatorError(f"malloc size must be positive, got {size}")
        try:
            ptr, rounded = self._malloc_impl(size)
        except OutOfMemoryError as exc:
            for observer in self._observers:
                observer.on_oom(self, size, exc)
            raise
        alloc = self._issue(ptr, size, rounded)
        for observer in self._observers:
            observer.on_alloc(self, alloc)
        return alloc

    def free(self, allocation: Allocation) -> None:
        """Return an allocation to the allocator."""
        self._claim(allocation)
        self._free_impl(allocation)
        self._counters.free_count += 1
        self.active_bytes -= allocation.rounded_size
        # No reserved-peak update here: freeing never commits new
        # physical memory, so the peak (a ratchet over reserved_bytes,
        # which only grows inside _malloc_impl) cannot move.
        for observer in self._observers:
            observer.on_free(self, allocation)

    def malloc_run(self, size: int, n: int) -> List[Allocation]:
        """``n`` back-to-back ``malloc(size)`` calls, stopping at the
        first OOM.

        Returns the allocations made, in order; fewer than ``n`` means
        the next ``malloc`` raised :class:`~repro.errors.OutOfMemoryError`
        (its reclaim fallback, clock time and ``on_oom`` hooks all
        happened).  This loop *is* the definition: an allocator that
        overrides it must leave exactly the state the loop leaves.
        """
        run: List[Allocation] = []
        try:
            for _ in range(n):
                run.append(self.malloc(size))
        except OutOfMemoryError:
            pass
        return run

    def free_run(self, allocations: Iterable[Allocation]) -> None:
        """Back-to-back ``free`` calls, in the order given (the
        definition an overriding allocator must match, as for
        :meth:`malloc_run`)."""
        for allocation in allocations:
            self.free(allocation)

    def malloc_free(self, size: int) -> int:
        """A ``malloc(size)`` whose ``free`` is the next call (a
        transient workspace); returns the rounded size it held.

        An OOM propagates from the malloc.  These two calls are the
        definition, as the loops are for the run operations: an
        overriding allocator must leave exactly the state they leave.
        """
        allocation = self.malloc(size)
        self.free(allocation)
        return allocation.rounded_size

    # -- the live table's transitions, shared by the single calls
    # -- above and by subclasses that override the run operations.
    def _issue(self, ptr: int, size: int, rounded: int) -> Allocation:
        """Enter a successful malloc into the live table and counters."""
        alloc = Allocation(ptr, size, rounded, self._next_id)
        self._live[self._next_id] = alloc
        self._next_id += 1
        self._counters.malloc_count += 1
        self.active_bytes = active = self.active_bytes + rounded
        if active > self.peak_active_bytes:
            self.peak_active_bytes = active
        reserved = self.reserved_bytes
        if reserved > self.peak_reserved_bytes:
            self.peak_reserved_bytes = reserved
        return alloc

    def _claim(self, allocation: Allocation) -> None:
        """Take ``allocation`` out of the live table, or raise the
        double-free / foreign-pointer error."""
        live = self._live.get(allocation.alloc_id)
        if live is None:
            if allocation.alloc_id < self._next_id:
                raise DoubleFreeError(
                    f"allocation #{allocation.alloc_id} already freed"
                )
            raise UnknownAllocationError(
                f"allocation #{allocation.alloc_id} was not issued by {self.name}"
            )
        del self._live[allocation.alloc_id]

    def _issue_and_claim(self, rounded: int) -> None:
        """What :meth:`_issue` and then ``free`` leave behind for an
        allocation of ``rounded`` bytes nobody else saw: an id used,
        both counters, both peaks — no :class:`Allocation` built, the
        live table and ``active_bytes`` as they were."""
        self._next_id += 1
        counters = self._counters
        counters.malloc_count += 1
        counters.free_count += 1
        active = self.active_bytes + rounded
        if active > self.peak_active_bytes:
            self.peak_active_bytes = active
        reserved = self.reserved_bytes
        if reserved > self.peak_reserved_bytes:
            self.peak_reserved_bytes = reserved

    def empty_cache(self) -> None:
        """Release every cached (unused) physical byte back to the device."""
        self._empty_cache_impl()
        for observer in self._observers:
            observer.on_empty_cache(self)

    def _empty_cache_impl(self) -> None:
        """Subclass hook behind :meth:`empty_cache`.

        The default implementation is a no-op for allocators that cache
        nothing (the native allocator).
        """

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    def add_observer(self, observer: AllocatorObserver) -> AllocatorObserver:
        """Subscribe ``observer`` to this allocator's events."""
        self._observers.append(observer)
        return observer

    def remove_observer(self, observer: AllocatorObserver) -> None:
        """Unsubscribe ``observer`` (no-op if not subscribed)."""
        if observer in self._observers:
            self._observers.remove(observer)

    def stats(self) -> AllocatorStats:
        """Snapshot of this allocator's statistics."""
        return AllocatorStats(
            active_bytes=self.active_bytes,
            reserved_bytes=self.reserved_bytes,
            peak_active_bytes=self.peak_active_bytes,
            peak_reserved_bytes=self.peak_reserved_bytes,
            malloc_count=self._counters.malloc_count,
            free_count=self._counters.free_count,
            driver_time_us=self.device.driver_time_us() - self._driver_time_at_start,
            host_time_us=self._counters.host_time_us,
        )

    @property
    def live_allocation_count(self) -> int:
        """Number of outstanding (not yet freed) allocations."""
        return len(self._live)

    @property
    @abstractmethod
    def reserved_bytes(self) -> int:
        """Physical bytes this allocator currently holds on the device."""

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def _malloc_impl(self, size: int) -> "tuple[int, int]":
        """Allocate and return ``(ptr, rounded_size)``."""

    @abstractmethod
    def _free_impl(self, allocation: Allocation) -> None:
        """Release the storage behind ``allocation``."""

    # ------------------------------------------------------------------
    def _oom(self, requested: int) -> OutOfMemoryError:
        """The allocator-level OOM for a request of ``requested`` bytes,
        carrying the allocator's state at the failure (to be raised)."""
        return OutOfMemoryError(
            requested=requested, reserved=self.reserved_bytes,
            active=self.active_bytes, capacity=self.device.capacity)

    def check_invariants(self) -> None:
        """Raise AssertionError unless the laws every allocator owes
        hold; subclasses add their own after calling this one."""
        live = self._live.values()
        held = sum(a.rounded_size for a in live)
        assert self.active_bytes == held, (
            f"active_bytes {self.active_bytes}, live allocations hold {held}"
        )
        # Nothing is handed out that is not reserved, nothing reserved
        # that the device has not committed.
        committed = self.device.used_memory
        assert self.active_bytes <= self.reserved_bytes <= committed, (
            f"active {self.active_bytes} <= reserved {self.reserved_bytes} "
            f"<= committed {committed} does not hold"
        )
        assert len({a.ptr for a in live}) == len(live), "live pointers collide"

    def _spend_host_time(self, us: float) -> None:
        """Account host-side bookkeeping time (advances the sim clock)."""
        self.device.clock.advance(us)
        self._counters.host_time_us += us

    def __repr__(self) -> str:
        return (
            f"{self.name}(active={self.active_bytes}, "
            f"reserved={self.reserved_bytes}, live={len(self._live)})"
        )
