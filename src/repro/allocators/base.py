"""Common allocator interface and bookkeeping.

Subclasses implement ``_malloc_impl`` / ``_free_impl`` and a
``reserved_bytes`` property; the base class owns the live-allocation
table, active-byte accounting, peak tracking, and the double-free /
foreign-pointer contract checks, so every allocator reports statistics
identically.
"""

from __future__ import annotations

import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.allocators.stats import AllocatorStats
from repro.errors import (
    AllocatorError,
    DoubleFreeError,
    OutOfMemoryError,
    UnknownAllocationError,
)
from repro.gpu.clock import repeated_add
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


@dataclass(frozen=True)
class SteadyState:
    """An allocator between two training iterations, as
    :meth:`BaseAllocator.steady_state` answers it.

    Attributes
    ----------
    shape:
        Everything a ``malloc`` / ``free`` decision reads, compared with
        ``==``: two answers with equal shapes make the same decisions on
        the same calls.  It leaves out what every repeat moves on
        (allocation ids, ticks, LRU stamps), which decisions read only
        by order, and holds the driver's call counts, so a driver call
        in between makes the shapes differ.
    counts:
        The integers :meth:`BaseAllocator.repeat_steady` advances.
    spends:
        Clock adds of ``cached_op_us`` so far: one per ``malloc`` and
        per ``free`` that makes no driver call.
    """

    shape: object
    counts: Tuple[int, ...]
    spends: int


class AllocatorObserver:
    """Event-hook interface over one allocator's lifecycle.

    Subscribers (timeline recorders, memory reports, custom telemetry)
    attach with :meth:`BaseAllocator.add_observer` and override the
    hooks they care about; every hook is a no-op by default.  Hooks
    fire *after* the allocator's bookkeeping, so ``allocator.stats()``
    seen from a hook is consistent with the event.

    Inside a run operation (``malloc_run``, ``free_run``,
    ``malloc_free``) the hooks fire at the points the defining single
    calls fire them, and see ``stats()``, ``live_allocation_count`` and
    the clock exactly as those calls leave them.  The free pools may be
    mid-shortcut: a ``malloc_free`` that the cache serves fires
    ``on_alloc`` with its block still pooled and unsplit, so a report of
    the free blocks (:func:`repro.analysis.report_for`) built inside one
    is not the loop's.  :class:`repro.analysis.PeakMemoryObserver`
    is still exact once it has seen an event: it builds a report only
    when ``reserved_bytes`` passes its peak, and a cached hit never
    grows ``reserved_bytes`` (attach it before the first malloc).

    An observer that acts on only some ``on_alloc`` / ``on_free`` hooks
    says so through :meth:`idle_events`: the hooks it vouches for may
    be skipped, together with the calls that would fire them, and
    :meth:`skip_events` then stands for them.  Only the hooks of
    repeated transient pairs are skipped
    (:meth:`BaseAllocator.transient_repeat`), and ``note_transients``
    settles what those pairs leave before the next hook fires, so a
    hook an observer acts on sees the clock and state its call leaves.

    In-tree subscribers: :class:`repro.sim.timeline.TimelineRecorder`
    (per-event memory timelines),
    :class:`repro.sim.engine.AllocationRecorder` (the call stream as a
    replayable trace, which needs every hook),
    :class:`repro.analysis.PeakMemoryObserver` (peak breakdowns) and
    :class:`repro.obs.AllocatorTraceObserver` (allocator events inside
    a serving lifecycle trace, which samples one hook in ``every``).
    """

    #: The most :meth:`idle_events` ever answers.  Below 2 no pair of
    #: hooks is ever skipped, so no repeat is asked for.
    idle_span = 0

    def idle_events(self) -> int:
        """How many of the coming ``on_alloc`` / ``on_free`` hooks would
        do nothing but count; 0 (the default): it acts on every hook."""
        return 0

    def skip_events(self, n: int) -> None:
        """``n`` of the hooks :meth:`idle_events` vouched for happened
        unseen (never more than it vouched for)."""

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

    def refuse_run(self, size: int, n: int, retries: int) -> Optional[int]:
        """A doomed block run, done in closed form when it can be.

        The sequence is ``malloc_run(size, n)`` stopping short, then
        ``retries`` rounds of ``empty_cache()`` and a ``malloc(size)``
        that raises, then ``free_run`` of the run, newest first.  An
        allocator that can tell the sequence ends so leaves exactly the
        state it leaves and returns the run's length; otherwise it
        returns ``None`` having done nothing, and the caller runs the
        sequence.  This class always returns ``None``.
        """
        return None

    def malloc_free(self, size: int) -> int:
        """A ``malloc(size)`` whose ``free`` is the next call (a
        transient workspace); returns the rounded size it held.

        An OOM propagates from the malloc.  These two calls are the
        definition, as the loops are for the run operations; a hit
        :meth:`_transient_fit` names is :meth:`_transient_hit` instead.
        """
        if size > 0:
            fit = self._transient_fit(size)
            if fit is not None:
                cache, ptr, rounded = fit
                self._transient_hit(cache, ptr, size, rounded)
                return rounded
        allocation = self.malloc(size)
        self.free(allocation)
        return allocation.rounded_size

    def _transient_fit(self, size: int) -> Optional[Tuple["BaseAllocator", int, int]]:
        """``(cache, ptr, rounded)`` when ``cache``'s pooled best fit at
        ``ptr`` serves ``malloc(size)`` (``size > 0``) and the ``free``
        merges any split-off remainder straight back (the block's
        neighbours are allocated, or it would have been coalesced), so
        every pool and index is left as it was; ``cache`` is as for
        :meth:`_note_pairs`.  ``None`` here: this class caches nothing."""
        return None

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

    def _count_pairs(self, n: int, held: int) -> None:
        """What ``n`` :meth:`_issue` calls and their frees leave behind
        when nobody saw them and ``reserved_bytes`` did not move: ``n``
        ids, both counters, the peaks of holding ``held`` more bytes —
        no :class:`Allocation` built, the live table and
        ``active_bytes`` as they were."""
        self._next_id += n
        counters = self._counters
        counters.malloc_count += n
        counters.free_count += n
        active = self.active_bytes + held
        if active > self.peak_active_bytes:
            self.peak_active_bytes = active
        reserved = self.reserved_bytes
        if reserved > self.peak_reserved_bytes:
            self.peak_reserved_bytes = reserved

    def transient_repeat(
            self, size: int) -> Optional[Tuple[int, Tuple[float, ...]]]:
        """``(pairs, adds)`` when ``malloc_free(size)`` is a cached hit
        that leaves every pool and index, ``reserved_bytes`` and
        ``active_bytes`` as they were: ``adds`` are its clock adds, in
        order, and until the allocator is next called ``n <= pairs``
        such calls may be made as their clock adds and one
        ``note_transients(size, n)``.

        ``pairs`` is half the least :meth:`AllocatorObserver.idle_events`
        of the attached observers (unbounded with none), so no skipped
        hook is one an observer acts on.  It may be 0: the next call is
        made, and the caller asks again after it.  Every hit
        :meth:`_transient_fit` names repeats, its adds the two host-time
        spends; ``None`` (nothing done): no such hit, or one no pair of
        which an observer ever ignores
        (:attr:`AllocatorObserver.idle_span`)."""
        if size <= 0 or self._transient_fit(size) is None:
            return None
        us = self.device.latency.cached_op_us
        return self._repeats((us, us))

    def _repeats(self, adds: Tuple[float, ...]
                 ) -> Optional[Tuple[int, Tuple[float, ...]]]:
        """:meth:`transient_repeat`'s answer for a repeating hit whose
        clock adds are ``adds``: as many pairs as every observer
        ignores, 0 when some observer acts within one, ``None`` when
        some observer acts within every one."""
        pairs = sys.maxsize
        for observer in self._observers:
            if observer.idle_span < 2:
                return None
            pairs = min(pairs, observer.idle_events() // 2)
        return pairs, adds

    def note_transients(self, size: int, n: int) -> None:
        """What ``n`` pairs :meth:`transient_repeat` answered leave
        apart from the clock."""
        raise NotImplementedError(f"{self.name} has no repeated transient")

    def _note_pairs(self, cache: "BaseAllocator", rounded: int,
                    n: int) -> None:
        """:meth:`note_transients` for ``n`` hits of ``rounded`` bytes
        served by ``cache``: this allocator, or the caching allocator it
        delegates to, which spends the host time and counts its own
        pairs, as it does inside the calls.  Each observer is told of
        the ``2n`` hooks it did not see."""
        counters = cache._counters
        counters.host_time_us = repeated_add(  # each malloc, each free
            counters.host_time_us, self.device.latency.cached_op_us, 2 * n)
        self._count_pairs(n, rounded)
        if cache is not self:
            cache._count_pairs(n, rounded)
        for observer in self._observers:
            observer.skip_events(2 * n)

    def _transient_hit(self, cache: "BaseAllocator", ptr: int, size: int,
                       rounded: int) -> None:
        """What ``malloc(size)`` and then ``free`` leave when ``cache``'s
        best-fit block at ``ptr`` serves the malloc and the free gives
        it straight back, minus the free-pool updates that cancel.

        ``cache`` is as for :meth:`_note_pairs`.  Observers see the two
        calls' hooks at their points: clock, live table and stats as
        the calls leave them; only the free pools are not.
        """
        us = self.device.latency.cached_op_us
        if not self._observers:
            clock = self.device.clock
            clock.advance(us)  # the malloc
            clock.advance(us)  # the free
            self._note_pairs(cache, rounded, 1)
            return
        cache._spend_host_time(us)
        alloc = self._issue(ptr, size, rounded)
        for observer in self._observers:
            observer.on_alloc(self, alloc)
        self._claim(alloc)
        cache._spend_host_time(us)
        self._counters.free_count += 1
        self.active_bytes -= rounded
        for observer in self._observers:
            observer.on_free(self, alloc)
        if cache is not self:
            cache._count_pairs(1, rounded)

    # ------------------------------------------------------------------
    # Converged iterations
    # ------------------------------------------------------------------
    def steady_state(self) -> Optional[SteadyState]:
        """This allocator between two iterations, for the closed form of
        :func:`repro.sim.engine.run_trace`; ``None``: no closed form.

        Say an iteration of single ``malloc`` / ``free`` calls, which
        frees every tensor it allocates, leads from an answer ``before``
        to an ``after`` with an equal :attr:`~SteadyState.shape`.  The
        same calls made again read equal shapes, so they make the same
        decisions, spend the same host time and leave an equal shape
        again.  :meth:`repeat_steady` then stands for ``k`` repeats.
        Ids and ticks grow by the same delta in each repeat.  That is
        exact because no decision reads their values, only their order.
        An observed allocator answers ``None``, since its observers must
        see every call.  This class always answers ``None``, so
        ``native`` and ``vmm-naive`` make every call."""
        return None

    def repeat_steady(self, before: SteadyState, after: SteadyState,
                      k: int) -> None:
        """What ``k`` more repeats of the iteration from ``before`` to
        ``after`` (equal shapes) leave, apart from the clock: each count
        advanced by ``k`` times its delta, and each host-time spend
        added in turn.  The live table and the peaks stay as they are.
        Only an allocator that answers :meth:`steady_state` defines
        this."""
        raise NotImplementedError(f"{self.name} has no steady state")

    def _steady_counts(self) -> Tuple[int, int, int]:
        """The counts :meth:`_repeat_calls` advances."""
        counters = self._counters
        return counters.malloc_count, counters.free_count, self._next_id

    def _repeat_calls(self, before: Tuple[int, ...], after: Tuple[int, ...],
                      k: int, spends: int) -> None:
        """``k`` more repeats of the calls between two
        :meth:`_steady_counts` answers, which made ``spends``
        host-time spends here."""
        counters = self._counters
        counters.malloc_count += k * (after[0] - before[0])
        counters.free_count += k * (after[1] - before[1])
        self._next_id += k * (after[2] - before[2])
        counters.host_time_us = repeated_add(
            counters.host_time_us, self.device.latency.cached_op_us,
            k * spends)

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

    def _spend_host_time_many(self, us: float, count: int) -> None:
        """``count`` calls of :meth:`_spend_host_time`, float-exactly."""
        self.device.clock.advance_many(us, count)
        self._counters.host_time_us = repeated_add(
            self._counters.host_time_us, us, count)

    def __repr__(self) -> str:
        return (
            f"{self.name}(active={self.active_bytes}, "
            f"reserved={self.reserved_bytes}, live={len(self._live)})"
        )
