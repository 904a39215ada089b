"""The slow definition of every fast path, and the one serving twin.

:data:`REFERENCE` holds, one group per fast path in ``src/``, the
``(owner, attribute, slow replacement)`` entries that put back the
definition it replaced: a loop of single calls, one driver call at a
time, a scan, one decode step per tick, a doomed run or back carved
and rolled back, a workspace op made every step, each iteration of a
trace replayed call by call or emitted on its own, BestFit over a
copied pool, one record per physical chunk.  :func:`reference` swaps
them in, :func:`definition` hands a twin one attribute's slow side,
and :func:`observe` runs a serving scenario and records everything a
serving twin compares, over the :data:`GROUPS` a serving run can
fire.  A new fast path registers its definition here; it adds no
harness.
"""

import bisect
import contextlib
import dataclasses
import inspect
import itertools
from collections import Counter
from typing import Any, List, NamedTuple, Sequence

import pytest

from repro.allocators import CachingAllocator
from repro.allocators.base import AllocatorObserver, BaseAllocator
from repro.analysis import PeakMemoryObserver
from repro.core import GMLakeAllocator
from repro.core.bestfit import FitState
from repro.errors import (
    CudaInvalidAddressError,
    CudaInvalidValueError,
    CudaOutOfMemoryError,
)
from repro.gpu.device import GpuDevice
from repro.gpu.phys import PhysicalChunk, PhysicalMemory
from repro.gpu.vmm import CudaVmm, _Extent
from repro.obs import AllocatorTraceObserver, GaugeSampler, TraceRecorder
from repro.serve import (
    MemoryAwareScheduler,
    ServingSimulator,
    SharedPagedKVCache,
    cluster,
)
from repro.serve.kvcache import PagedKVCache
from repro.serve.memtier import TierHierarchy
from repro.serve.request import ServeRequest
from repro.sim.engine import ReplaySession
from repro.sim.timeline import TimelineRecorder
from repro.workloads import TrainingWorkload


# -- Allocator run ops: BaseAllocator's loops of single calls ----------
def two_calls(self, size):
    """Slow replacement of ``BaseAllocator.malloc_free``: the ``malloc``
    and the ``free`` that define it, whatever the cache holds."""
    allocation = self.malloc(size)
    self.free(allocation)
    return allocation.rounded_size


def never_repeats(self, size):
    """Slow replacement of ``BaseAllocator.transient_repeat``: no hit
    repeats, so a quiet run calls ``malloc_free`` every step."""
    return None


class LoopCaching(CachingAllocator):
    """The oracle: a caching allocator whose run operations are
    ``BaseAllocator``'s loops of single calls."""

    malloc_run = BaseAllocator.malloc_run
    free_run = BaseAllocator.free_run
    malloc_free = two_calls


class Watched:
    """The three in-tree observers on one allocator, each at its finest
    grain: every event sampled, every reserved-peak step reported."""

    def __init__(self, allocator):
        self.timeline = allocator.add_observer(
            TimelineRecorder(allocator, every=1))
        self.peak = allocator.add_observer(PeakMemoryObserver(min_growth=0))
        self.trace = TraceRecorder()
        allocator.add_observer(AllocatorTraceObserver(
            self.trace, ReplaySession(allocator), every=1))

    def seen(self):
        """Everything the observers recorded, compared by ``==``."""
        return (self.timeline.points, self.peak.at_peak, self.peak.at_oom,
                self.trace.events)


# -- VMM sequences: one driver call at a time --------------------------
class PerCallVmm(CudaVmm):
    """The reference: every sequence issued one driver call at a time,
    each call checked, looked up and charged on its own, each map one
    one-chunk record in the table.  A batched sequence must leave the
    clock, the counters, every mapping (:func:`chunk_view`) and every
    chunk exactly as these do (the clock is a float: no tolerance)."""

    def _spend(self, us: float) -> None:
        self._clock.advance(us)
        self.counters.total_time_us += us

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
        if last is None or offset >= last.end:
            idx = len(maps)
        else:
            idx = bisect.bisect_left(maps, offset, key=lambda m: m.offset)
            for m in (maps[idx - 1] if idx else None,
                      maps[idx] if idx < len(maps) else None):
                if m is not None and (offset < m.end
                                      and m.offset < offset + chunk.size):
                    raise CudaInvalidValueError(
                        f"overlapping map at {va:#x}+{offset} "
                        f"(existing mapping at +{m.offset})"
                    )
        self._spend(self._latency.mem_map(chunk.size))
        self.counters.map_calls += 1
        self._phys.retain(handle)
        maps.insert(idx, _Extent(offset, chunk.size, [handle]))

    def mem_set_access(self, va: int, offset: int, size: int) -> None:
        """Grant read/write access to ``[va+offset, va+offset+size)``.

        Every byte of the range must already be mapped.
        """
        maps = self._mappings.get(va)
        if maps is None:
            raise CudaInvalidAddressError(f"{va:#x} is not a reserved address")
        end = offset + size
        cursor = offset
        touched: List[_Extent] = []
        # Binary-search the first mapping that can cover ``offset``; the
        # table is sorted by offset and overlap-free, so the covering
        # run (if any) is contiguous from there.
        idx = bisect.bisect_right(maps, offset, key=lambda m: m.offset)
        if idx and maps[idx - 1].end > offset:
            idx -= 1
        while idx < len(maps) and maps[idx].offset < end:
            m = maps[idx]
            if m.offset > cursor:
                break
            touched.append(m)
            cursor = m.end
            idx += 1
            if cursor >= end:
                break
        if cursor < end:
            raise CudaInvalidAddressError(
                f"setAccess range [{offset}, {end}) at {va:#x} is not fully mapped"
            )
        for m in touched:
            self._spend(self._latency.mem_set_access(m.chunk))
            self.counters.set_access_calls += 1
            m.accessible = True

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
        while hi < len(maps) and maps[hi].end <= end:
            hi += 1
        removed = maps[lo:hi]
        if not removed:
            raise CudaInvalidValueError(
                f"unmap range [{offset}, {end}) at {va:#x} contains no mapping"
            )
        del maps[lo:hi]
        for m in removed:
            self._spend(self._latency.mem_unmap(m.chunk))
            self.counters.unmap_calls += 1
            self._phys.release_refs((m.handles[0],))


def chunk_view(vmm):
    """Every reservation's mappings as ``(offset, size, handle,
    accessible)``, one per chunk: what a VMM twin compares, whatever
    records the table keeps them in."""
    return {va: [(m.offset + i * m.chunk, m.chunk, handle, m.accessible)
                 for m in maps for i, handle in enumerate(m.handles)]
            for va, maps in vmm._mappings.items()}


# -- Paged block runs: every block its own allocation and free ---------
class PerBlockOracle:
    """Mixin carrying the per-block bodies paged KV had before a
    request's blocks became one allocator run: every block is its own
    ``malloc`` (with its own retry) and its own ``free``."""

    def _try_alloc(self, size):
        block = self._malloc(size)
        if block is None:
            self._allocator.empty_cache()
            block = self._malloc(size)
        if block is not None:
            self.metrics.kv_allocs += 1
            self._live_kv_bytes += size
            self.metrics.peak_kv_bytes = max(
                self.metrics.peak_kv_bytes, self._live_kv_bytes)
        return block

    def _drop_block_ref(self, block):
        refs = self._ref[block.alloc_id] - 1
        if refs > 0:
            self._ref[block.alloc_id] = refs
            return
        del self._ref[block.alloc_id]
        self._free(block)

    def _drop_block_refs(self, blocks):
        for block in blocks:
            self._drop_block_ref(block)

    def _ensure(self, request, tokens):
        table = self._tables.setdefault(request.req_id, [])
        need = self._blocks_for(tokens)
        added = []
        while len(table) < need:
            block = self._try_alloc(self.block_bytes)
            if block is None:
                for block in reversed(added):
                    table.remove(block)
                    self._drop_block_ref(block)
                if not table:
                    del self._tables[request.req_id]
                request.kv_capacity_tokens = len(table) * self.block_tokens
                return False
            table.append(block)
            added.append(block)
            self._add_block_ref(block)
        self.metrics.peak_blocks = max(self.metrics.peak_blocks,
                                       len(self._ref))
        request.kv_capacity_tokens = len(table) * self.block_tokens
        return True

    def release(self, request, preempted=False):
        table = self._tables.pop(request.req_id, None)
        if table is None:
            return
        if preempted:
            self._note_preempt(request)
        self._forget(request)
        for block in table:
            self._drop_block_ref(block)
        request.kv_capacity_tokens = 0


class PerBlockPagedKVCache(PerBlockOracle, PagedKVCache):
    pass


class PerBlockSharedPagedKVCache(PerBlockOracle, SharedPagedKVCache):
    """``paged-shared`` on the per-block oracle: each block makes up to
    four attempts of its own (``empty_cache`` and idle-prefix eviction
    in between), as before the first attempts became one run."""

    def _try_alloc(self, size):
        block = PerBlockOracle._try_alloc(self, size)
        if block is not None:
            return block
        if self._evict_idle(size) == 0:
            return None
        block = PerBlockOracle._try_alloc(self, size)
        self._note_shared_blocks()
        return block


class TwinKV:
    """The same admit / grow / release / preempt traffic against a
    batched KV model and its per-block oracle, each on its own device;
    after every step everything either can observe must be equal."""

    def __init__(self, batched, oracle, capacity, weights=0, tiers=None):
        self.sides = []
        for kv in (batched, oracle):
            device = GpuDevice(capacity=capacity)
            allocator = CachingAllocator(device)
            session = ReplaySession(allocator)
            if weights:
                allocator.malloc(weights)
            kv.bind(session, allocator)
            hierarchy = None
            if tiers is not None:
                hierarchy = TierHierarchy(list(tiers))
                hierarchy.bind(session, device)
                kv.attach_hierarchy(hierarchy)
            self.sides.append((kv, session, hierarchy, {}))
        self.live = []    # req_ids holding KV
        self.parked = []  # preempted, may be re-admitted
        self.next_id = 0

    @staticmethod
    def state(kv, session, hierarchy, requests):
        state = {
            "row": kv.metrics.as_row(),
            "metrics": dataclasses.asdict(kv.metrics),
            "tables": kv._tables,
            "ref": kv._ref,
            "live": (kv.live_requests, kv.live_blocks, kv.live_kv_bytes),
            "clock_us": session.clock.now_us,
            "allocator": session.allocator.stats(),
            "live_ids": list(session.allocator._live),
            "capacity": {i: r.kv_capacity_tokens
                         for i, r in requests.items()},
        }
        trie = getattr(kv, "trie", None)
        if trie is not None:
            state["trie"] = (trie._paths, trie._slots, trie._last_use,
                             kv._shared_len)
        if hierarchy is not None:
            state["tiers"] = (hierarchy._resident, hierarchy.used_bytes)
        return state

    def step(self, op):
        """Apply ``op(kv, requests) -> outcome`` to both sides."""
        outcomes = [op(kv, requests) for kv, _, _, requests in self.sides]
        assert outcomes[0] == outcomes[1]
        states = [self.state(*side) for side in self.sides]
        assert states[0] == states[1]
        self.sides[0][1].allocator.check_invariants()
        return outcomes[0]

    def admit_new(self, **request_fields):
        req_id = self.next_id
        self.next_id += 1

        def op(kv, requests):
            requests[req_id] = ServeRequest(
                req_id=req_id, arrival_s=0.0, **request_fields)
            return kv.admit(requests[req_id])

        if self.step(op):
            self.live.append(req_id)

    def grow(self, pick, tokens):
        if not self.live:
            return
        req_id = self.live[pick % len(self.live)]

        def op(kv, requests):
            request = requests[req_id]
            request.tokens_done += tokens  # decode past capacity
            if kv.grow(request):
                return True
            kv.release(request, preempted=True)  # what the simulator does
            return False

        if not self.step(op):
            self.live.remove(req_id)
            self.parked.append(req_id)

    def release(self, pick, preempted):
        if not self.live:
            return
        req_id = self.live.pop(pick % len(self.live))
        self.step(lambda kv, requests: kv.release(
            requests[req_id], preempted=preempted))
        if preempted:
            self.parked.append(req_id)

    def readmit(self):
        if not self.parked:
            return
        req_id = self.parked.pop(0)
        if self.step(lambda kv, requests: kv.admit(requests[req_id])):
            self.live.append(req_id)
        else:
            self.parked.append(req_id)

    def drain(self):
        while self.live:
            self.release(0, preempted=False)


# -- Queue floor: every select scans the queue -------------------------
class ScanOnlyMemoryAware(MemoryAwareScheduler):
    """``MemoryAwareScheduler.select`` before the queue floor, verbatim:
    the reference the fast path must agree with."""

    def select(self, queue, view):
        headroom = view.headroom_bytes()
        for request in queue:
            if view.projected_kv_bytes(request) * self.margin <= headroom:
                return request
        return None


def no_queue_floor(sim):
    """Slow replacement of ``ServingSimulator._queue_floor``: a floor
    of 0 bounds nothing, so every select scans."""
    return 0


# -- Quiet run and fleet loop ------------------------------------------
def one_step_per_tick(self, running, until_s):
    """Slow replacement of ``ServingSimulator._quiet_run``: no quiet
    run, so every busy tick decodes exactly one step."""


def one_tick_per_pick(sim, until_s, own_s):
    """Slow replacement of ``cluster._run_ahead``: no run-ahead, so the
    fleet loop picks the furthest-behind replica again after every
    tick."""
    sim.tick(until_s=until_s)


# -- Split re-keying: each half re-keyed once per referencing sBlock --
def rekey_per_sblock(self, block, left_size):
    """Slow replacement of ``GMLakeAllocator._split``: both halves are
    pooled unreferenced, then gain their references one ``adjust_refs``
    per referencing sBlock."""
    referencing = self.spool.referencing(block)
    self.ppool.remove(block)
    left, right = block.split(self.device, left_size)
    left.last_used = right.last_used = self._tick
    self.ppool.add(left)
    self.ppool.add(right)
    for sblock in referencing:
        self.spool.replace_member(sblock, block, [left, right])
        self.ppool.adjust_refs(left, +1)
        self.ppool.adjust_refs(right, +1)
    self.counters.splits += 1
    return left, right


# -- Converged iterations: every iteration replayed call by call -----
def never_steady(self):
    """Slow replacement of ``steady_state``: no state is ever steady,
    so ``run_trace`` replays every call of every iteration."""
    return None


# -- Doomed backs: every chunk that fits created and rolled back ------
def cannot_say(phys, size, n):
    """Slow replacement of ``PhysicalMemory.refuse_creates``: it never
    answers, so ``CudaVmm.back`` creates each chunk of a back that
    cannot fit, up to the one that fails, and rolls them back (with
    ``vmm-sequences`` also swapped in, mapping each on the way)."""
    return None


# -- Seedless traces: every iteration emitted on its own ---------------
def emit_each_iteration(self, trace, rng):
    """Slow replacement of ``TrainingWorkload._emit_iterations``: each
    iteration is emitted, whether or not the trace reads its seed."""
    for it in range(self.iterations):
        self._emit_iteration(trace, it, rng)


# -- BestFit: Algorithm 1 over a copy of the inactive pPool ------------
class BestFitResult(NamedTuple):
    """State and candidate blocks returned by :func:`best_fit`, the
    ``(state, candidates)`` pair ``_run_best_fit`` returns.

    ``candidates`` holds pBlocks except in the EXACT_MATCH state, where
    the single entry may be an sBlock.
    """

    state: FitState
    candidates: list

    @property
    def candidate_bytes(self):
        """Total size of the candidate blocks."""
        return sum(b.size for b in self.candidates)


def best_fit(bsize, inactive_sblocks, inactive_pblocks, min_stitch_size=0):
    """Algorithm 1, verbatim: classify a request of ``bsize`` bytes
    (already rounded to chunk granularity) against the inactive blocks
    of both pools, each sorted in **descending** size order, as the
    paper assumes ("both sPool and pPool are sorted in descending
    order").  pBlocks below ``min_stitch_size`` (the fragmentation
    limit, §4.3) are skipped when gathering multi-block stitching
    candidates, though they may still serve an exact match."""
    # S1: exact match over the union of both pools (lines 2-4).
    for block in itertools.chain(inactive_sblocks, inactive_pblocks):
        if block.size == bsize:
            return BestFitResult(FitState.EXACT_MATCH, [block])

    # Candidate gathering over pBlocks only (lines 5-15).
    cb = []
    cb_size = 0
    for block in inactive_pblocks:
        if block.size >= bsize:
            # Descending scan: each sufficient block replaces the last,
            # leaving the *smallest* sufficient block — the best fit.
            cb = [block]
            cb_size = block.size
        elif cb_size < bsize:
            if block.size < min_stitch_size:
                continue
            cb.append(block)
            cb_size += block.size
        else:
            break

    if len(cb) == 1 and cb_size > bsize:
        return BestFitResult(FitState.SINGLE_BLOCK, cb)
    if cb_size >= bsize:
        return BestFitResult(FitState.MULTIPLE_BLOCKS, cb)
    return BestFitResult(FitState.INSUFFICIENT_BLOCKS, cb)


def inactive_descending(ppool):
    """Inactive pBlocks, largest first — BestFit's scan order.

    Equal-size blocks are ordered unreferenced-first, then by id, so
    S3/S4 stitching gathers blocks that no existing sBlock depends on
    first.  S2 does not: Algorithm 1's descending scan keeps the *last*
    sufficient block, so among equal-size best fits it splits the
    most-referenced, highest-id one.
    """
    return [b for b in ppool if not b.active]


def copied_best_fit(self, rounded):
    """Slow replacement of ``GMLakeAllocator._run_best_fit``:
    :func:`best_fit` over every inactive pBlock, copied in scan
    order."""
    min_stitch = (self.config.fragmentation_limit
                  if self.config.enable_stitch else 1 << 62)
    return best_fit(rounded, (), inactive_descending(self.ppool),
                    min_stitch_size=min_stitch)


# -- Physical memory: one record per chunk -----------------------------
@dataclasses.dataclass
class _Chunk:
    handle: int
    size: int
    refcount: int = 1
    released: bool = False


class PerChunkPhysicalMemory(PhysicalMemory):
    """The reference: one mutable record per chunk, every create,
    retain and release made one chunk at a time; ``back`` creates its
    chunks one :meth:`create` at a time (``create_run`` never
    answers).  A run-record memory must report the same chunks
    (:meth:`chunks`), ``committed`` and next handle."""

    def __post_init__(self):
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        self._chunks = {}

    def create(self, size):
        if size <= 0:
            raise CudaInvalidValueError(
                f"cuMemCreate size must be positive, got {size}")
        if size > self.free:
            raise CudaOutOfMemoryError(size, self.free, self.capacity)
        handle = self._next_handle
        self._next_handle += 1
        self._chunks[handle] = _Chunk(handle=handle, size=size)
        self.committed += size
        return handle

    def create_run(self, size, n):
        return None

    def get(self, handle):
        chunk = self._chunks.get(handle)
        if chunk is None:
            raise CudaInvalidValueError(
                f"unknown or destroyed physical handle {handle}")
        return PhysicalChunk(chunk.handle, chunk.size, chunk.refcount,
                             chunk.released)

    def chunks(self):
        return {handle: self.get(handle) for handle in sorted(self._chunks)}

    def retain(self, *handles, size=None):
        chunks = self._chunks
        for i, handle in enumerate(handles):
            chunk = chunks.get(handle)
            if chunk is None or size is not None and chunk.size != size:
                for done in handles[:i]:
                    chunks[done].refcount -= 1
                for handle in handles:  # a dead one raises first
                    self.get(handle)
                raise CudaInvalidValueError(
                    f"expected {size}-byte chunks, got one of another size")
            chunk.refcount += 1

    def release_refs(self, handles):
        chunks = self._chunks
        for handle in handles:
            chunk = chunks.get(handle)
            if chunk is None:
                self.get(handle)  # raises
            chunk.refcount -= 1
            if chunk.refcount == 0:
                del chunks[handle]
                self.committed -= chunk.size

    def release(self, handle):
        chunk = self._chunks.get(handle)
        if chunk is None:
            self.get(handle)  # raises
        if chunk.released:
            raise CudaInvalidValueError(
                f"physical handle {handle} released twice")
        chunk.released = True
        self.release_refs((handle,))

    def check_invariants(self):
        assert all(0 < handle < self._next_handle and chunk.refcount >= 1
                   for handle, chunk in self._chunks.items())
        assert self.committed == sum(c.size for c in self._chunks.values())


def _entries(owner, slow):
    """One entry per function the class ``slow`` defines itself."""
    return tuple((owner, name, value) for name, value in vars(slow).items()
                 if inspect.isfunction(value))


#: Group -> ``(owner, attribute, slow replacement)`` entries; patching
#: every entry of every group in gives the reference simulator.
REFERENCE = {
    "allocator-runs": (
        (CachingAllocator, "malloc_run", LoopCaching.malloc_run),
        (CachingAllocator, "free_run", LoopCaching.free_run),
        (BaseAllocator, "malloc_free", two_calls)),
    "vmm-sequences": _entries(CudaVmm, PerCallVmm),
    # No back is refused up front: a doomed back carves and rolls back.
    "doomed-backs": ((PhysicalMemory, "refuse_creates", cannot_say),),
    "split-refs": ((GMLakeAllocator, "_split", rekey_per_sblock),),
    "lazy-best-fit": ((GMLakeAllocator, "_run_best_fit", copied_best_fit),),
    "chunk-runs": _entries(PhysicalMemory, PerChunkPhysicalMemory),
    "paged-block-runs": (
        *_entries(PagedKVCache, PerBlockOracle),
        *_entries(SharedPagedKVCache, PerBlockSharedPagedKVCache)),
    # A refused run is never taken: paged KV carves and rolls back.
    "refused-runs": ((CachingAllocator, "refuse_run",
                      BaseAllocator.refuse_run),),
    "transient-repeats": ((BaseAllocator, "transient_repeat",
                           never_repeats),),
    # No observer vouches for a hook: an observed quiet run calls
    # malloc_free every step.
    "observed-repeats": ((AllocatorTraceObserver, "idle_events",
                          AllocatorObserver.idle_events),),
    "queue-floor": (
        (ServingSimulator, "_queue_floor", no_queue_floor),
        *_entries(MemoryAwareScheduler, ScanOnlyMemoryAware)),
    "quiet-run": ((ServingSimulator, "_quiet_run", one_step_per_tick),),
    "fleet-loop": ((cluster, "_run_ahead", one_tick_per_pick),),
    # Only a trace replay asks: no serving path calls run_trace.
    "converged-iterations": (
        (CachingAllocator, "steady_state", never_steady),
        (GMLakeAllocator, "steady_state", never_steady)),
    # Only a training trace is built so.
    "stamped-iterations": ((TrainingWorkload, "_emit_iterations",
                            emit_each_iteration),),
}
#: The groups only a trace replay can fire, twinned in
#: ``tests/test_sim_converged.py`` and ``tests/test_cold_path.py``.
REPLAY_ONLY = ("converged-iterations", "stamped-iterations")
#: The groups a serving run can fire, which the serving twin swaps in.
GROUPS = tuple(group for group in REFERENCE if group not in REPLAY_ONLY)


@contextlib.contextmanager
def reference(*groups):
    """Swap in the slow definitions of ``groups`` (every group when
    none is named) for the duration of the block."""
    with pytest.MonkeyPatch.context() as patch:
        for group in groups or GROUPS:
            for owner, name, slow in REFERENCE[group]:
                patch.setattr(owner, name, slow)
        yield


def definition(cls, name):
    """``cls.name`` as its definition: the registered slow replacement
    of the class in ``cls``'s MRO that supplies ``name``, or that
    class's own attribute when no entry covers it."""
    owner = next(klass for klass in cls.__mro__ if name in vars(klass))
    for entries in REFERENCE.values():
        for target, attribute, slow in entries:
            if target is owner and attribute == name:
                return slow
    return vars(owner)[name]


# -- The serving twin harness ------------------------------------------
class Observed(NamedTuple):
    seen: tuple    # what a twin compares by ``==``
    ticks: int     # ``ServingSimulator.tick`` calls
    hits: Counter  # per shipped group: how many of its entries ran
    result: Any    # what the scenario returned


def _hit(patch, owner, name, hits, group):
    """Count the first call into ``owner.name`` for ``group``; the
    shipped attribute takes every call after it, at full speed."""
    shipped = getattr(owner, name)

    def first_call(*args, **kwargs):
        hits[group] += 1
        setattr(owner, name, shipped)
        return shipped(*args, **kwargs)

    patch.setattr(owner, name, first_call)


def observe(serve, slow=(), memory_every=16):
    """Run the scenario ``serve(trace, gauges)`` with the groups
    ``slow`` swapped in (none: as shipped).

    ``seen`` holds every request's fields; each replica's allocator
    ``stats()``, final clock, driver state (VMM and runtime counters,
    committed bytes, next chunk handle, every live chunk),
    ``kv.metrics``,
    requests and gauge points; each replica's trace events
    in order (the fleet's recorder interleaves replicas by tick, which
    a quiet run reorders); the gauge points, each replica's in order
    (the shared sampler interleaves replicas by tick too, which a
    fleet's run-ahead reorders); and the Chrome trace.  A scenario that
    ignores ``trace`` and ``gauges`` leaves those empty.
    """
    replicas, ticks, hits = [], [], Counter()
    trace = TraceRecorder(memory_every=memory_every)
    gauges = GaugeSampler(every_s=0.1)
    finish, tick = ServingSimulator.finish, ServingSimulator.tick

    def recording_finish(sim):
        result = finish(sim)
        device = sim.device
        replicas.append((
            sim.replica_id, sim.allocator.stats(), device.clock.now_us,
            device.vmm.counters.snapshot(),
            dataclasses.asdict(device.runtime.counters),
            (device.phys.committed, device.phys._next_handle,
             device.phys.chunks()),
            dataclasses.replace(sim.kv.metrics),
            [dict(vars(r)) for r in result.requests],
            result.gauge_points))
        return result

    def counting_tick(sim, *args, **kwargs):
        ticks.append(sim.replica_id)
        return tick(sim, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ServingSimulator, "finish", recording_finish)
        patch.setattr(ServingSimulator, "tick", counting_tick)
        for group in GROUPS:
            if group not in slow:
                for owner, name, _ in REFERENCE[group]:
                    _hit(patch, owner, name, hits, group)
        with reference(*slow) if slow else contextlib.nullcontext():
            result = serve(trace, gauges)
    events = [(e.replica, e.t_s, e.kind, e.req_id, e.args)
              for e in sorted(trace.events, key=lambda e: (e.replica, e.seq))]
    seen = ([dict(vars(r)) for r in result.requests], replicas, events,
            sorted(gauges.points, key=lambda p: p.replica),
            trace.chrome_trace())
    return Observed(seen, len(ticks), hits, result)
