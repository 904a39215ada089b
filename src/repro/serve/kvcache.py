"""KV-cache memory models: pool-level vs. cache-level defragmentation.

The paper's thesis is that *pool-level* defragmentation (GMLake's VMM
stitching) recovers the memory a caching allocator strands.  The
strongest modern counterpoint is *cache-level* defragmentation: vLLM's
paged attention carves the KV cache into fixed-size blocks indexed by a
per-request block table, so the allocator only ever sees one request
size and pool fragmentation cannot occur.  This module makes both
strategies pluggable in the online serving simulator so the two can be
compared head to head on identical arrival streams:

``chunked``
    One contiguous KV tensor per request, grown by whole chunks.  A
    growth re-alloc allocates the new tensor *before* freeing the old
    (a real KV copy needs both live), transiently doubling the
    request's footprint — the worst case for a fragmented pool, and the
    scenario where the allocator choice (caching vs. GMLake) decides
    goodput.

``paged``
    Fixed-size blocks of ``block_tokens`` tokens, tracked in a
    per-request block table and freed exactly at request completion.
    Every allocation has the same size, so no hole is ever too small
    for the next request and *pool* fragmentation shrinks to what the
    allocator's own granularity strands (see :class:`PagedKVCache`) —
    fragmentation moves into the cache layer instead, as internal
    waste in each request's last partially-filled block.

A model is named by the same ``"name?key=value"`` mini-DSL as
allocators (the ``kv-cache`` kind, e.g. ``"paged?block_tokens=16"``),
with parameters validated against a registry, and reports
:class:`KVCacheMetrics` (block utilization, internal fragmentation,
copy costs) next to the allocator's pool metrics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.allocators.base import Allocation, BaseAllocator
from repro.allocators.stats import AllocatorStats
from repro.api.registry import (
    Param,
    SpecError,
    register_component,
    register_kind,
)
from repro.errors import OutOfMemoryError
from repro.obs.trace import NO_TRACE, TraceRecorder
from repro.serve.request import ServeRequest
from repro.units import MB, align_up
from repro.workloads.inference import kv_bytes
from repro.workloads.models import ModelSpec

register_kind("kv-cache", label="KV-cache model")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
@dataclass
class KVCacheMetrics:
    """What the KV-cache layer itself did during one serving run.

    The allocator's :class:`~repro.allocators.stats.AllocatorStats`
    measure *pool*-level fragmentation; these measure *cache*-level
    waste and data movement, so the comparison tables can show where
    each strategy pays.

    Attributes
    ----------
    kv_cache:
        Model name (``chunked`` / ``paged``).
    block_tokens:
        Granularity in tokens (chunk size for chunked, block size for
        paged).
    kv_allocs / kv_frees:
        KV tensor allocations and frees issued to the allocator.
    peak_kv_bytes:
        Peak bytes held in live KV tensors, sampled at every
        allocation — so it includes the blocks a failed paged
        admission held before it rolled them back.
    peak_blocks:
        Peak live fixed-size blocks (paged; 0 for chunked), sampled
        when an admission or growth *succeeds* — the transient blocks
        of failed admissions are not in it, unlike ``peak_kv_bytes``.
    grow_copy_bytes:
        Bytes memcpy'd by growth re-allocs (chunked only — paged growth
        never copies; this is the cache-level cost chunked pays).
    preempt_copy_bytes:
        KV bytes discarded at preemption and recomputed on re-admission
        (the copy-on-preempt / recompute cost, both models).
    swapped_bytes:
        KV bytes moved over the host interconnect by swap-based
        preemption (device→host at eviction plus host→device at
        re-admission; 0 under the default recompute policy).
    migrated_bytes:
        KV bytes moved between replicas by disaggregated
        prefill/decode serving (charged on both the exporting and the
        importing replica — see :mod:`repro.serve.disagg`; 0 for
        colocated runs).
    util_sum / util_samples:
        Accumulated per-decode-step KV utilization samples
        (used tokens / allocated token capacity over the running batch).
    shared_bytes:
        KV bytes served from already-resident shared prefix blocks
        instead of fresh allocations (prefix-sharing models only; the
        reuse savings ledger).
    cow_copy_bytes:
        Bytes memcpy'd by copy-on-write at the shared/private boundary
        — when a request's private context begins inside a partially
        shared block, those prefix-tail tokens are copied into the
        request's first private block.
    prefix_lookups / prefix_hits:
        Admissions that declared a sharable prefix, and the subset
        that reused at least one resident shared block (see
        :attr:`prefix_hit_rate`).
    demoted_bytes / promoted_bytes:
        KV bytes moved down to / back up from each slow-memory tier
        of a :class:`~repro.serve.memtier.TierHierarchy`, keyed by
        tier label (empty for runs without ``memory_tiers``; swap
        preemption keeps its legacy ``swapped_bytes`` ledger
        instead).
    """

    kv_cache: str
    block_tokens: int = 0
    kv_allocs: int = 0
    kv_frees: int = 0
    peak_kv_bytes: int = 0
    peak_blocks: int = 0
    grow_copy_bytes: int = 0
    preempt_copy_bytes: int = 0
    swapped_bytes: int = 0
    migrated_bytes: int = 0
    util_sum: float = 0.0
    util_samples: int = 0
    shared_bytes: int = 0
    cow_copy_bytes: int = 0
    prefix_lookups: int = 0
    prefix_hits: int = 0
    demoted_bytes: Dict[str, int] = field(default_factory=dict)
    promoted_bytes: Dict[str, int] = field(default_factory=dict)

    def merge_from(self, other: "KVCacheMetrics") -> None:
        """Accumulate ``other``'s counters into this instance.

        The fleet-level result mergers (:mod:`repro.serve.cluster`,
        :mod:`repro.serve.disagg`) use this so a field added to the
        metrics is merged by construction instead of silently dropped:
        every numeric field sums, every per-tier dict merges key-wise.
        The identity fields (``kv_cache``, ``block_tokens``) stay the
        merger's own.
        """
        for spec in fields(self):
            if spec.name in ("kv_cache", "block_tokens"):
                continue
            mine = getattr(self, spec.name)
            theirs = getattr(other, spec.name)
            if isinstance(mine, dict):
                for key, value in theirs.items():
                    mine[key] = mine.get(key, 0) + value
            else:
                setattr(self, spec.name, mine + theirs)

    def extras(self, per_replica: bool) -> Dict[str, object]:
        """The ledgers as result ``extras()`` keys (MB, rounded); the
        byte ledgers appear only when something moved.

        A fleet's merged metrics report without the prefix-sharing
        keys and the per-tier split (``per_replica=False``): the
        benchmark digest pins that key set.
        """
        def mb(size: float) -> float:
            return round(size / MB, 1)

        out: Dict[str, object] = {
            "kv_internal_frag": round(self.internal_frag_ratio, 3)}
        if self.swapped_bytes:
            out["swapped_mb"] = mb(self.swapped_bytes)
        if self.migrated_bytes:
            out["migrated_mb"] = mb(self.migrated_bytes)
        if per_replica and self.prefix_lookups:
            out["prefix_hit_rate"] = round(self.prefix_hit_rate, 3)
            out["shared_mb"] = mb(self.shared_bytes)
            out["cow_copy_mb"] = mb(self.cow_copy_bytes)
        if self.demoted_bytes:
            out["demoted_mb"] = mb(sum(self.demoted_bytes.values()))
            out["promoted_mb"] = mb(sum(self.promoted_bytes.values()))
            if per_replica:
                out["demoted_by_tier"] = {
                    tier: mb(size)
                    for tier, size in sorted(self.demoted_bytes.items())}
        return out

    @property
    def block_utilization(self) -> float:
        """Mean fraction of allocated KV token capacity actually used."""
        if self.util_samples == 0:
            return 1.0
        return self.util_sum / self.util_samples

    @property
    def internal_frag_ratio(self) -> float:
        """1 − block utilization: the cache-level fragmentation metric."""
        return 1.0 - self.block_utilization

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of prefix-declaring admissions that reused at
        least one resident shared block (0.0 when nothing declared a
        prefix — plain paged/chunked runs report 0)."""
        if self.prefix_lookups == 0:
            return 0.0
        return self.prefix_hits / self.prefix_lookups

    def as_row(self) -> Dict[str, Any]:
        """Table columns for ``repro.analysis`` rendering."""
        return {
            "kv": self.kv_cache,
            "kv util": round(self.block_utilization, 3),
            "kv frag": round(self.internal_frag_ratio, 3),
            "kv allocs": self.kv_allocs,
            "copy (MB)": round(
                (self.grow_copy_bytes + self.preempt_copy_bytes) / (1 << 20), 1),
        }


# ----------------------------------------------------------------------
# The model interface
# ----------------------------------------------------------------------
class KVCacheModel(ABC):
    """How one serving replica lays its KV cache out in pool memory.

    The simulator owns the event loop and the preemption policy; the
    model owns every KV byte: it holds the allocator's
    :class:`~repro.allocators.base.Allocation` handles (driver latency
    lands on the replica's clock), keeps ``request.kv_capacity_tokens``
    current, and accounts its own :class:`KVCacheMetrics`.  ``admit`` /
    ``grow`` return ``False`` on allocator OOM — recovery (victim
    preemption, queueing) stays the simulator's job.
    """

    name: str = "kv"

    def __init__(self, model: ModelSpec, granularity_tokens: int):
        if granularity_tokens < 1:
            raise SpecError(
                f"{self.name} KV cache needs a positive token granularity, "
                f"got {granularity_tokens}"
            )
        self.model = model
        self.metrics = KVCacheMetrics(kv_cache=self.name,
                                      block_tokens=granularity_tokens)
        self._session = None  # the replica's ReplaySession (its clock)
        self._allocator: Optional[BaseAllocator] = None
        self._live_kv_bytes = 0
        self._trace: TraceRecorder = NO_TRACE
        self._replica = 0

    def attach_trace(self, recorder: TraceRecorder, replica: int = 0) -> None:
        """Attach the replica's recorder so cache-level events —
        copy-on-write instants, shared-block counters — land in the
        same lifecycle stream as the request events."""
        self._trace = recorder
        self._replica = replica

    def bind(self, session, allocator: BaseAllocator) -> None:
        """Attach the replica's clock + allocator (once, at startup)."""
        if self._session is not None:
            raise ValueError(
                f"KV-cache model {self.name!r} is already bound to a "
                "replica; a model instance carries per-run metrics and "
                "block tables, so build a fresh one (or pass a spec "
                "string) per simulator"
            )
        self._session = session
        self._allocator = allocator

    # -- allocator access with shared accounting -----------------------
    def _malloc(self, size: int) -> Optional[Allocation]:
        """One ``malloc``; ``None`` on OOM (whose driver/host time
        still elapses on the clock)."""
        try:
            return self._allocator.malloc(size)
        except OutOfMemoryError:
            return None

    def _try_alloc(self, size: int) -> Optional[Allocation]:
        """Allocate a KV tensor: one attempt, then :meth:`_recover_alloc`."""
        allocation = self._malloc(size) or self._recover_alloc(size)
        if allocation is not None:
            self._note_allocs(1, size)
        return allocation

    def _recover_alloc(self, size: int) -> Optional[Allocation]:
        """What follows a failed attempt: ``empty_cache`` and one retry.
        (``paged-shared`` goes on to evict idle prefix blocks and retry
        twice more — up to four attempts per block.)"""
        self._allocator.empty_cache()
        return self._malloc(size)

    def _note_allocs(self, count: int, size: int) -> None:
        """Account ``count`` allocations of ``size`` bytes each."""
        self.metrics.kv_allocs += count
        self._live_kv_bytes += count * size
        self.metrics.peak_kv_bytes = max(
            self.metrics.peak_kv_bytes, self._live_kv_bytes)

    def _free(self, allocation: Allocation) -> None:
        self._allocator.free(allocation)
        self._note_frees(1, allocation.size)

    def _note_frees(self, count: int, size: int) -> None:
        """Account ``count`` frees of ``size`` bytes each."""
        self.metrics.kv_frees += count
        self._live_kv_bytes -= count * size

    # -- lifecycle (called by the simulator) ---------------------------
    @abstractmethod
    def admit(self, request: ServeRequest) -> bool:
        """Provision KV capacity for ``context + 1`` tokens at admission."""

    @abstractmethod
    def grow(self, request: ServeRequest) -> bool:
        """Extend a running request's KV capacity past its context."""

    @abstractmethod
    def release(self, request: ServeRequest, preempted: bool = False) -> None:
        """Free every KV byte of ``request`` (finish, reject or preempt)."""

    # -- admission feedback (called by schedulers) ---------------------
    @abstractmethod
    def projected_bytes(self, request: ServeRequest) -> int:
        """KV bytes the request will occupy at its full context."""

    def projected_floor(self, request: ServeRequest) -> int:
        """A lower bound of :meth:`projected_bytes` that cannot change
        while ``request`` waits in the queue.

        The replica keeps the least floor of what waits, so a
        memory-aware scheduler can decline without scanning the queue.
        Here it is :meth:`projected_bytes` itself, which depends only on
        ``total_tokens`` (fixed for a request's whole life).
        """
        return self.projected_bytes(request)

    @abstractmethod
    def headroom_bytes(self, stats: AllocatorStats, capacity: int,
                       pool_reuse: float = 0.5) -> int:
        """Bytes of KV the allocator can plausibly hand out right now."""

    # -- preemption-policy feedback ------------------------------------
    @abstractmethod
    def held_bytes(self, request: ServeRequest) -> int:
        """KV bytes ``request`` currently holds on the device (0 if
        none) — what a swap-based preemption policy must move over
        PCIe to evict it."""

    # -- invariants / metrics ------------------------------------------
    @property
    @abstractmethod
    def live_requests(self) -> int:
        """Requests currently holding KV memory (0 after a clean run)."""

    @property
    def live_kv_bytes(self) -> int:
        """Bytes currently held in live KV tensors."""
        return self._live_kv_bytes

    def utilization_snapshot(
            self, running: Iterable[ServeRequest]) -> Optional[float]:
        """Used/allocated KV token capacity over ``running`` right now.

        ``None`` when no request holds capacity (an empty batch has no
        meaningful utilization) — callers pick their own sentinel.
        """
        used, capacity = self._token_totals(running)
        if capacity == 0:
            return None
        return used / capacity

    @staticmethod
    def _token_totals(running: Iterable[ServeRequest]) -> Tuple[int, int]:
        """(used, allocated) KV token capacity summed over ``running``."""
        capacity = used = 0
        for request in running:
            capacity += request.kv_capacity_tokens
            used += min(request.context_tokens, request.kv_capacity_tokens)
        return used, capacity

    def note_decode_step(self, running: Sequence[ServeRequest],
                         steps: int = 1) -> None:
        """Sample cache-level utilization over the running batch, once
        for each of the last ``steps`` decode steps.

        The batch as it stands is the last step's sample.  Each earlier
        step's batch held one token per request fewer, in the same KV,
        which holds when none of those steps finished or grew a
        request.  The samples are added in step order, each as the
        same integer division a per-step call makes.
        """
        used, capacity = self._token_totals(running)
        if capacity == 0:
            return
        metrics = self.metrics
        batch = len(running)
        for back in range(steps - 1, -1, -1):
            metrics.util_sum += (used - back * batch) / capacity
        metrics.util_samples += steps

    def _note_preempt(self, request: ServeRequest) -> None:
        self.metrics.preempt_copy_bytes += kv_bytes(
            self.model, min(request.context_tokens, request.kv_capacity_tokens))


class ChunkedKVCache(KVCacheModel):
    """Contiguous per-request KV tensors, grown by whole chunks.

    This is the layout a plain PyTorch serving stack produces: each
    growth allocates a bigger tensor *before* freeing the old one (the
    copy needs both live), so KV sizes vary continuously and the memory
    pool bears the fragmentation — the workload the paper's pool-level
    stitching is built for.
    """

    name = "chunked"

    def __init__(self, model: ModelSpec, chunk_tokens: int = 256):
        super().__init__(model, chunk_tokens)
        self.chunk_tokens = chunk_tokens
        self._live: Dict[int, Allocation] = {}  # req_id -> KV tensor

    def _realloc(self, request: ServeRequest, capacity_tokens: int) -> bool:
        """Allocate the new KV tensor, then retire the old (copy done)."""
        allocation = self._try_alloc(kv_bytes(self.model, capacity_tokens))
        if allocation is None:
            return False
        old = self._live.get(request.req_id)
        if old is not None:
            self.metrics.grow_copy_bytes += kv_bytes(
                self.model,
                min(request.context_tokens, request.kv_capacity_tokens))
            self._free(old)
        self._live[request.req_id] = allocation
        request.kv_capacity_tokens = capacity_tokens
        return True

    def admit(self, request: ServeRequest) -> bool:
        tokens = align_up(max(request.context_tokens + 1, 1),
                          self.chunk_tokens)
        return self._realloc(request, tokens)

    def grow(self, request: ServeRequest) -> bool:
        return self._realloc(
            request, request.kv_capacity_tokens + self.chunk_tokens)

    def release(self, request: ServeRequest, preempted: bool = False) -> None:
        held = self._live.pop(request.req_id, None)
        if held is None:
            return
        if preempted:
            self._note_preempt(request)
        self._free(held)
        request.kv_capacity_tokens = 0

    def projected_bytes(self, request: ServeRequest) -> int:
        tokens = align_up(max(request.total_tokens, 1), self.chunk_tokens)
        return kv_bytes(self.model, tokens)

    def held_bytes(self, request: ServeRequest) -> int:
        held = self._live.get(request.req_id)
        return held.size if held is not None else 0

    def headroom_bytes(self, stats: AllocatorStats, capacity: int,
                       pool_reuse: float = 0.5) -> int:
        """Unreserved memory in full; idle pool memory at ``pool_reuse``.

        Whether a shredded pool can serve a *large* contiguous KV block
        depends on the allocator — a splitting allocator may have
        fragmented it beyond use, a stitching one can fuse it back.
        This is the feedback path that makes admission
        allocator-dependent under chunked KV.
        """
        unreserved = capacity - stats.reserved_bytes
        reusable = stats.reserved_bytes - stats.active_bytes
        return int(unreserved + pool_reuse * reusable)

    @property
    def live_requests(self) -> int:
        return len(self._live)


class PagedKVCache(KVCacheModel):
    """vLLM-style paged KV: fixed-size blocks + per-request block tables.

    Every allocation is exactly ``block_tokens`` tokens of KV, so the
    pool only ever sees one size: a freed block always fits the next
    request, and cache-level defragmentation leaves the allocator
    little to decide.  Not nothing — a block is not served from an
    exact-fit free list by every allocator.  ``caching`` carves 3 MB
    blocks (opt-1.3b, 16 tokens) out of 20 MB segments: six blocks and
    a 2 MB tail no block fits, so under pressure most mallocs *split*
    a larger free block (59 % on the ``fleet_shared`` benchmark
    workload) and a free runs through coalescing.  The price of paging
    moves into the cache layer: each request wastes the tail of its
    last block (internal fragmentation), and attention must gather
    through a block table.

    A request's missing blocks are allocated as one allocator run and
    its ref-0 blocks freed as one run (:meth:`_ensure`,
    :meth:`_drop_block_refs`), which is defined to be, and tested
    against, the same blocks allocated and freed one call at a time.

    Every block carries a first-class **reference count**
    (:meth:`ref_count`): a block table entry is one reference, and a
    block returns to the pool exactly when its count reaches zero.
    Under plain paged serving every block has a single referent, so
    this degenerates to free-at-release (byte-identical to the
    pre-ref-count behaviour); the prefix-sharing subclass
    (:class:`repro.serve.prefix.SharedPagedKVCache`) holds extra
    references for blocks shared across requests.
    """

    name = "paged"

    def __init__(self, model: ModelSpec, block_tokens: int = 16):
        super().__init__(model, block_tokens)
        self.block_tokens = block_tokens
        self.block_bytes = kv_bytes(model, block_tokens)
        self._tables: Dict[int, List[Allocation]] = {}  # req_id -> blocks
        self._ref: Dict[int, int] = {}  # block's alloc_id -> reference count

    def _blocks_for(self, tokens: int) -> int:
        return -(-max(tokens, 1) // self.block_tokens)  # ceil div

    # -- first-class block reference counts ----------------------------
    def ref_count(self, block: Allocation) -> int:
        """Live references to ``block`` (0 once it returned to the pool)."""
        return self._ref.get(block.alloc_id, 0)

    def _add_block_ref(self, block: Allocation) -> None:
        key = block.alloc_id
        self._ref[key] = self._ref.get(key, 0) + 1

    def _drop_block_ref(self, block: Allocation) -> None:
        """Drop one reference; the block frees only at ref 0."""
        self._drop_block_refs((block,))

    def _drop_block_refs(self, blocks: Iterable[Allocation]) -> None:
        """Drop one reference from each of ``blocks``, in order; those
        that reach ref 0 return to the pool as one run of frees."""
        ref = self._ref
        dead: List[Allocation] = []
        for block in blocks:
            key = block.alloc_id
            refs = ref[key] - 1
            if refs > 0:
                ref[key] = refs
            else:
                del ref[key]
                dead.append(block)
        if dead:
            self._allocator.free_run(dead)
            self._note_frees(len(dead), self.block_bytes)

    def _adopt(self, table: List[Allocation],
               blocks: List[Allocation]) -> None:
        """Enter freshly allocated blocks into ``table``, one reference
        each."""
        table += blocks
        self._ref.update({block.alloc_id: 1 for block in blocks})

    def _ensure(self, request: ServeRequest, tokens: int) -> bool:
        """Grow the block table to cover ``tokens``; roll back on OOM.

        The missing blocks' first attempts are one run
        (:meth:`BaseAllocator.malloc_run`).  Where the run stops, that
        block goes through the per-block :meth:`_recover_alloc`;
        if it comes back the run resumes after it, if not every block
        added here is freed again, newest first, as one run.

        When recovery is one ``empty_cache`` and one retry, the
        allocator is first asked whether that whole sequence fails
        (:meth:`BaseAllocator.refuse_run`); if so, it has made the
        sequence's allocator effects and only the accounting is left.
        """
        table = self._tables.setdefault(request.req_id, [])
        need = self._blocks_for(tokens)
        start = len(table)
        size = self.block_bytes
        if start < need and self._recovery_is_one_retry():
            refused = self._allocator.refuse_run(size, need - start, 1)
            if refused is not None:
                self._note_allocs(refused, size)
                self._note_frees(refused, size)
                if not table:
                    del self._tables[request.req_id]
                request.kv_capacity_tokens = start * self.block_tokens
                return False
        while len(table) < need:
            run = self._allocator.malloc_run(size, need - len(table))
            self._note_allocs(len(run), size)
            self._adopt(table, run)
            if len(table) == need:
                break
            block = self._recover_alloc(size)
            if block is not None:
                self._note_allocs(1, size)
                self._adopt(table, [block])
                continue
            added = table[start:]
            del table[start:]
            self._drop_block_refs(reversed(added))
            if not table:
                del self._tables[request.req_id]
            request.kv_capacity_tokens = len(table) * self.block_tokens
            return False
        self.metrics.peak_blocks = max(self.metrics.peak_blocks,
                                       len(self._ref))
        request.kv_capacity_tokens = len(table) * self.block_tokens
        return True

    def _recovery_is_one_retry(self) -> bool:
        """Whether :meth:`_recover_alloc` is ``empty_cache`` and one
        retry, right now."""
        return True

    def admit(self, request: ServeRequest) -> bool:
        return self._ensure(request, request.context_tokens + 1)

    def grow(self, request: ServeRequest) -> bool:
        return self._ensure(request, request.context_tokens + 1)

    def release(self, request: ServeRequest, preempted: bool = False) -> None:
        table = self._tables.pop(request.req_id, None)
        if table is None:
            return
        if preempted:
            self._note_preempt(request)
        self._forget(request)
        self._drop_block_refs(table)
        request.kv_capacity_tokens = 0

    def _forget(self, request: ServeRequest) -> None:
        """Hook for subclasses to drop per-request sharing state
        (called by :meth:`release` after preemption accounting, before
        the block references are dropped)."""

    def projected_bytes(self, request: ServeRequest) -> int:
        return self._blocks_for(request.total_tokens) * self.block_bytes

    def held_bytes(self, request: ServeRequest) -> int:
        table = self._tables.get(request.req_id)
        return len(table) * self.block_bytes if table else 0

    def free_blocks(self, stats: AllocatorStats, capacity: int) -> int:
        """Whole blocks the pool can still hand out right now.

        Because every block is the same size, reserved-but-inactive
        pool memory counts in full — the defining contrast with
        :meth:`ChunkedKVCache.headroom_bytes`'s discounted pool reuse.
        It is an upper bound, not a promise: the bytes are summed
        before dividing, so segment tails smaller than a block (2 MB
        of every 20 MB ``caching`` segment under 3 MB blocks) add up
        to "blocks" no malloc can be served from.
        """
        unreserved = capacity - stats.reserved_bytes
        reusable = stats.reserved_bytes - stats.active_bytes
        return max(0, int(unreserved + reusable) // self.block_bytes)

    def headroom_bytes(self, stats: AllocatorStats, capacity: int,
                       pool_reuse: float = 0.5) -> int:
        """Free-block count times block size (``pool_reuse`` ignored —
        exact-size blocks always reuse idle pool memory in full)."""
        del pool_reuse
        return self.free_blocks(stats, capacity) * self.block_bytes

    @property
    def live_requests(self) -> int:
        return len(self._tables)

    @property
    def live_blocks(self) -> int:
        """Blocks currently allocated across all block tables."""
        return len(self._ref)


# ----------------------------------------------------------------------
# Registry + spec mini-DSL
# ----------------------------------------------------------------------
def _check_token_granularity(params: Dict[str, Any]) -> None:
    """Token-granularity params must be >= 1 at spec-parse time."""
    for name, value in params.items():
        if isinstance(value, int) and value < 1:
            raise SpecError(
                f"KV cache parameter {name!r} must be >= 1, got {value}")


register_component(
    "kv-cache", "chunked",
    params=(
        Param("chunk_tokens", int, 256,
              doc="KV growth granularity in tokens"),
    ),
    check=_check_token_granularity,
    description="contiguous per-request KV tensors grown by chunks "
                "(pool-level defragmentation territory)",
)(ChunkedKVCache)

register_component(
    "kv-cache", "paged",
    params=(
        Param("block_tokens", int, 16,
              doc="tokens per fixed-size KV block (vLLM-style)"),
    ),
    check=_check_token_granularity,
    description="fixed-size blocks + per-request block tables "
                "(cache-level defragmentation)",
)(PagedKVCache)
