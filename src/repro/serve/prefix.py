"""Prefix-sharing paged KV: radix-indexed shared blocks, copy-on-write.

Multi-tenant serving fleets see the same token prefixes over and over —
system prompts, few-shot preambles, per-tenant instruction headers.
vLLM's automatic prefix caching and SGLang's RadixAttention keep the KV
blocks of those prefixes resident and let many requests reference them
simultaneously, so the prompt bytes are paid once instead of per
request.  This module brings that mechanism to the serving simulator:

:class:`PrefixTrie`
    A block-granular radix tree of shared token prefixes.  Each
    declared ``prefix_id`` is an edge off the root; along an edge the
    shared blocks form a path, and two requests of the same group
    share exactly the longest common path their declared prefix
    lengths allow (block-aligned).  Nodes are KV block allocations;
    the tree owns one reference to each so blocks stay resident after the
    last request finishes, and least-recently-used tails are evicted
    under allocator pressure.

:class:`SharedPagedKVCache` (registered as ``paged-shared``)
    :class:`~repro.serve.kvcache.PagedKVCache` plus the trie.  A
    request declaring ``prefix_id``/``prefix_tokens`` is admitted with
    the resident shared blocks spliced into the head of its block
    table (each splice bumps the block's first-class ``ref_count``);
    only the private suffix allocates fresh blocks.  A block returns
    to the pool exactly at ref 0.  When the declared prefix ends
    inside a block, that partial tail is **copied on write** into the
    request's first private block (``cow_copy_bytes``, a ``cow_copy``
    trace instant) — vLLM's partial-block copy, priced in bytes.

The sharing ledger lands in :class:`~repro.serve.kvcache.KVCacheMetrics`
(``shared_bytes`` / ``cow_copy_bytes`` / ``prefix_hit_rate``), the
resident shared-block count is exported to gauges and Chrome-trace
counters, and the reuse-aware :meth:`SharedPagedKVCache.projected_bytes`
/ :meth:`SharedPagedKVCache.free_blocks` feed the memory-aware
scheduler a headroom signal that knows resident prefixes are free and
idle shared blocks are evictable.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.allocators.base import Allocation
from repro.allocators.stats import AllocatorStats
from repro.api.registry import Param, register_component
from repro.serve.kvcache import PagedKVCache, _check_token_granularity
from repro.serve.memtier import TierHierarchy
from repro.serve.request import ServeRequest
from repro.units import MB
from repro.workloads.inference import kv_bytes
from repro.workloads.models import ModelSpec

__all__ = ["PrefixTrie", "SharedPagedKVCache"]


class PrefixTrie:
    """Block-granular radix tree over declared token prefixes.

    The tree is rooted at the empty prefix; each ``prefix_id`` labels
    an edge, and the blocks materialized for that prefix form the path
    below it.  Requests of one group with different declared lengths
    share the longest common (block-aligned) path — the radix-cache
    behaviour, with the per-group paths kept compressed.  The trie
    holds one owner reference per block (so resident prefixes survive
    the requests that built them) and tracks per-path LRU stamps so
    :meth:`evict_idle` can trim cold tails first.
    """

    def __init__(self) -> None:
        self._paths: Dict[str, List[Allocation]] = {}  # prefix_id -> path
        self._slots: Dict[str, int] = {}        # prefix_id -> stable slot
        self._last_use: Dict[str, int] = {}     # prefix_id -> LRU stamp
        self._clock = 0
        #: Shared blocks currently held by the tree.
        self.resident_blocks = 0

    def slot(self, prefix_id: str) -> int:
        """Stable small integer naming this prefix's contents."""
        return self._slots.setdefault(prefix_id, len(self._slots))

    def path(self, prefix_id: str) -> List[Allocation]:
        """Resident shared block path for ``prefix_id`` (may be empty)."""
        return self._paths.get(prefix_id, [])

    def touch(self, prefix_id: str) -> None:
        """Refresh the LRU stamp (a request just walked this path)."""
        self._clock += 1
        self._last_use[prefix_id] = self._clock

    def extend(self, prefix_id: str, block: Allocation) -> None:
        """Append a newly materialized shared block to the path."""
        self._paths.setdefault(prefix_id, []).append(block)
        self.resident_blocks += 1

    def trim_tail(self, prefix_id: str) -> Optional[Allocation]:
        """Pop the deepest block of the path (eviction works tail-first
        so what remains is still a valid prefix)."""
        path = self._paths.get(prefix_id)
        if not path:
            return None
        block = path.pop()
        self.resident_blocks -= 1
        if not path:
            del self._paths[prefix_id]
            self._last_use.pop(prefix_id, None)
        return block

    def tails(self) -> Iterator[Allocation]:
        """The deepest block of every resident path."""
        for path in self._paths.values():
            yield path[-1]

    def lru_ids(self) -> List[str]:
        """Prefix ids, least recently used first."""
        return sorted(self._paths, key=lambda p: self._last_use.get(p, 0))

    def owned_blocks(self) -> Iterator[Tuple[str, Allocation]]:
        """All resident ``(prefix_id, block)`` pairs."""
        for prefix_id, path in self._paths.items():
            for block in path:
                yield prefix_id, block


class SharedPagedKVCache(PagedKVCache):
    """Paged KV with radix-trie prefix sharing and copy-on-write.

    Strictly opt-in per request: anything without a ``prefix_id`` (or
    whose declared prefix is shorter than one block) takes exactly the
    plain :class:`~repro.serve.kvcache.PagedKVCache` path.  Shared
    blocks are owned by the :class:`PrefixTrie` (one owner reference)
    and additionally referenced by every live request whose table
    splices them in; they return to the pool only at ref 0, when LRU
    eviction (:meth:`_evict_idle`) drops the owner reference of an
    idle tail.
    """

    name = "paged-shared"

    def __init__(self, model: ModelSpec, block_tokens: int = 16):
        super().__init__(model, block_tokens)
        self.trie = PrefixTrie()
        self._shared_len: Dict[int, int] = {}  # req_id -> shared head blocks
        self._hierarchy = TierHierarchy([])

    def attach_hierarchy(self, hierarchy: TierHierarchy) -> None:
        """Attach a :class:`~repro.serve.memtier.TierHierarchy` so
        pressure-evicted idle shared tails demote to slow memory
        instead of being dropped, and promote back (a priced transfer)
        when the prefix is next materialized."""
        self._hierarchy = hierarchy

    # -- admission ------------------------------------------------------
    def admit(self, request: ServeRequest) -> bool:
        attached = False
        if (request.req_id not in self._tables
                and self._sharable_blocks(request) > 0):
            if not self._attach_prefix(request):
                return False
            attached = True
        if self._ensure(request, request.context_tokens + 1):
            return True
        if attached:
            # The private suffix didn't fit: unsplice the shared head
            # so a failed admission leaves no per-request state.  The
            # trie keeps its owner references — the prefix stays
            # resident as cache for whoever admits next.
            table = self._tables.pop(request.req_id, [])
            self._shared_len.pop(request.req_id, None)
            self._drop_block_refs(table)
            request.kv_capacity_tokens = 0
        return False

    def _sharable_blocks(self, request: ServeRequest) -> int:
        """Whole blocks of this request's prompt coverable by sharing."""
        if not request.prefix_id:
            return 0
        tokens = min(request.prefix_tokens, request.prompt_tokens)
        return tokens // self.block_tokens

    def _attach_prefix(self, request: ServeRequest) -> bool:
        """Splice the shared prefix into the head of the block table.

        Reuses the resident path first (each reuse bumps the block's
        ref count and costs no allocation), then materializes missing
        path blocks.  On OOM mid-materialization every reference taken
        here is rolled back and the admission fails as a whole — the
        simulator's normal OOM recovery (victim preemption) applies.
        """
        prefix_id = request.prefix_id
        need = self._sharable_blocks(request)
        resident = list(self.trie.path(prefix_id))  # snapshot: extend()
        self.metrics.prefix_lookups += 1            # mutates the live path
        self.trie.touch(prefix_id)

        reused = min(len(resident), need)
        head = resident[:reused]
        table = self._tables.setdefault(request.req_id, [])
        for block in head:
            table.append(block)
            self._add_block_ref(block)

        slot = self.trie.slot(prefix_id)
        added: List[Allocation] = []
        while len(table) < need:
            contents = (slot, len(resident) + len(added))  # tier key
            block = self._try_alloc(self.block_bytes)
            if block is None:
                for block in reversed(added):
                    table.remove(block)
                    self.trie.trim_tail(prefix_id)
                    self._drop_block_ref(block)  # request ref
                    self._drop_block_ref(block)  # owner ref -> frees
                for block in head:
                    table.remove(block)
                    self._drop_block_ref(block)
                del self._tables[request.req_id]
                return False
            self.trie.extend(prefix_id, block)
            self._add_block_ref(block)  # trie owner reference
            self._add_block_ref(block)  # this request's reference
            table.append(block)
            added.append(block)
            if self._hierarchy.holds(contents):
                # First touch of a demoted tail: pay the tier transfer
                # to bring its contents back instead of recomputing.
                label, size, us = self._hierarchy.promote(contents)
                self._session.advance(us)
                ledger = self.metrics.promoted_bytes
                ledger[label] = ledger.get(label, 0) + size
        self.metrics.peak_blocks = max(self.metrics.peak_blocks,
                                       len(self._ref))

        self._shared_len[request.req_id] = need
        if reused > 0:
            self.metrics.prefix_hits += 1
            self.metrics.shared_bytes += reused * self.block_bytes
            self._note_shared_blocks()
            boundary = (min(request.prefix_tokens, request.prompt_tokens)
                        - need * self.block_tokens)
            if boundary > 0:
                self._note_cow(request, boundary)
        elif added:
            self._note_shared_blocks()
        return True

    # -- release / preemption ------------------------------------------
    def _forget(self, request: ServeRequest) -> None:
        self._shared_len.pop(request.req_id, None)

    def _note_preempt(self, request: ServeRequest) -> None:
        # Only the private suffix is discarded and recomputed — the
        # shared prefix stays resident in the trie across preemption.
        tokens = min(request.context_tokens, request.kv_capacity_tokens)
        shared = self._shared_len.get(request.req_id, 0) * self.block_tokens
        self.metrics.preempt_copy_bytes += kv_bytes(
            self.model, max(0, tokens - shared))

    def held_bytes(self, request: ServeRequest) -> int:
        """Private bytes only — what a swap must move; shared prefix
        blocks stay resident on-device under the trie's reference."""
        table = self._tables.get(request.req_id)
        if not table:
            return 0
        shared = self._shared_len.get(request.req_id, 0)
        return (len(table) - shared) * self.block_bytes

    # -- reuse-aware headroom (memory-aware scheduler feedback) --------
    def projected_bytes(self, request: ServeRequest) -> int:
        """Full-context footprint minus the resident shared head — the
        blocks a prefix hit will not have to allocate."""
        blocks = self._blocks_for(request.total_tokens)
        resident = min(len(self.trie.path(request.prefix_id or "")),
                       self._sharable_blocks(request))
        return max(0, blocks - resident) * self.block_bytes

    def projected_floor(self, request: ServeRequest) -> int:
        """The footprint with the whole sharable head resident: the
        trie can never cover more, so this bounds
        :meth:`projected_bytes` for any state of the trie."""
        blocks = self._blocks_for(request.total_tokens)
        return (max(0, blocks - self._sharable_blocks(request))
                * self.block_bytes)

    def free_blocks(self, stats: AllocatorStats, capacity: int) -> int:
        """Pool free blocks plus idle shared blocks (owner-only refs)
        — the latter are one LRU eviction away from being free."""
        return super().free_blocks(stats, capacity) + self.idle_shared_blocks

    # -- pressure eviction ---------------------------------------------
    def _recover_alloc(self, size: int) -> Optional[Allocation]:
        """``empty_cache`` → retry → evict idle shared tails → retry →
        ``empty_cache`` → retry."""
        block = super()._recover_alloc(size)
        if block is None and self._evict_idle(size):
            block = self._malloc(size) or super()._recover_alloc(size)
            self._note_shared_blocks()
        return block

    def _recovery_is_one_retry(self) -> bool:
        """True when no path's tail is idle: :meth:`_evict_idle` would
        then free nothing, and recovery stops after its first retry."""
        return all(self.ref_count(tail) != 1 for tail in self.trie.tails())

    def _evict_idle(self, need_bytes: int) -> int:
        """Drop owner references of idle shared tails, coldest path
        first, until ``need_bytes`` are freed or nothing idle remains."""
        freed = 0
        for prefix_id in self.trie.lru_ids():
            while freed < need_bytes:
                path = self.trie.path(prefix_id)
                if not path or self.ref_count(path[-1]) != 1:
                    break  # tail busy (or path gone): keep this prefix
                contents = (self.trie.slot(prefix_id), len(path) - 1)
                block = self.trie.trim_tail(prefix_id)
                self._drop_block_ref(block)  # owner ref was last -> frees
                placed = self._hierarchy.demote(contents, self.block_bytes)
                if placed is not None:
                    # Demote-instead-of-drop: the cold tail's bytes move
                    # down the hierarchy (clock charged) and can be
                    # promoted back on the next touch.
                    label, us = placed
                    self._session.advance(us)
                    ledger = self.metrics.demoted_bytes
                    ledger[label] = ledger.get(label, 0) + self.block_bytes
                freed += self.block_bytes
            if freed >= need_bytes:
                break
        return freed

    # -- observability --------------------------------------------------
    @property
    def shared_live_blocks(self) -> int:
        """Shared blocks currently resident (trie-owned)."""
        return self.trie.resident_blocks

    @property
    def idle_shared_blocks(self) -> int:
        """Resident shared blocks referenced only by the trie."""
        return sum(1 for _, block in self.trie.owned_blocks()
                   if self.ref_count(block) == 1)

    def _note_cow(self, request: ServeRequest, tokens: int) -> None:
        size = kv_bytes(self.model, tokens)
        self.metrics.cow_copy_bytes += size
        self._trace.record(
            "cow_copy", self._session.elapsed_s, replica=self._replica,
            req_id=request.req_id, tokens=tokens, mb=round(size / MB, 3))

    def _note_shared_blocks(self) -> None:
        self._trace.record(
            "kv_shared", self._session.elapsed_s, replica=self._replica,
            blocks=self.trie.resident_blocks)


register_component(
    "kv-cache", "paged-shared",
    aliases=("prefix", "radix"),
    params=(
        Param("block_tokens", int, 16,
              doc="tokens per fixed-size KV block (vLLM-style)"),
    ),
    check=_check_token_granularity,
    description="paged KV plus a radix-trie prefix index: requests "
                "declaring a shared token prefix reference the same "
                "ref-counted blocks copy-on-write",
)(SharedPagedKVCache)
