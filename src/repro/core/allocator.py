"""The GMLake allocator (§3.3, §4) — a transparent drop-in replacement
for the BFC caching allocator built on virtual memory stitching.

Allocation follows Figure 9's strategy over the BestFit states:

* **S1 exact match** — return the existing pBlock/sBlock unchanged; the
  steady state after convergence (§4.2.2).
* **S2 single block** — Split the best-fit pBlock, allocate the exact
  half, and (optionally) Stitch the two halves back into an sBlock so
  the original size stays servable.
* **S3 multiple blocks** — Stitch several inactive pBlocks (splitting
  the last one if the sum overshoots) into an sBlock.
* **S4 insufficient blocks** — Alloc a new pBlock for the shortfall and
  stitch it with the candidates; Alloc is the only operation that
  commits new physical memory.
* **S5 OOM** — after the reclaim fallback (StitchFree every inactive
  sBlock, then release every inactive pBlock's physical chunks) the
  request still cannot be satisfied.

Deallocation is the Update function: flip active states, never touch
physical memory.  StitchFree trims the sPool by LRU when it exceeds the
configured capacity or the VA oversubscription cap (§4.3).

Requests below the 2 MB chunk never reach VMM: "For memory allocation
less than 2MB, we use the original PyTorch splitting method of the
caching allocator" (§3.1).  GMLake holds a private BFC
:class:`CachingAllocator` for them; its segments count toward GMLake's
reserved bytes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.allocators.base import Allocation, BaseAllocator, SteadyState
from repro.allocators.caching import CachingAllocator, round_size
from repro.core.bestfit import FitState
from repro.core.config import GMLakeConfig
from repro.core.pblock import PBlock
from repro.core.pools import PPool, SPool
from repro.core.sblock import SBlock
from repro.errors import CudaOutOfMemoryError
from repro.gpu.device import GpuDevice
from repro.units import align_up

Block = Union[PBlock, SBlock]


@dataclass
class GMLakeCounters:
    """Operation counts, used by the convergence and overhead analyses."""

    state_hits: Dict[int, int] = field(
        default_factory=lambda: {s.value: 0 for s in FitState}
    )
    alloc_pblocks: int = 0
    splits: int = 0
    stitches: int = 0
    stitch_frees: int = 0
    reclaims: int = 0

    def record_state(self, state: FitState) -> None:
        self.state_hits[state.value] += 1


class GMLakeAllocator(BaseAllocator):
    """GPU memory lake allocator over one simulated device."""

    def __init__(self, device: GpuDevice, config: GMLakeConfig = GMLakeConfig()):
        super().__init__(device, name="gmlake")
        self.config = config
        self.ppool = PPool()
        self.spool = SPool()
        self.counters = GMLakeCounters()
        #: The §3.1 small pool and its live allocations by pointer.
        self._small = CachingAllocator(device)
        self._small_by_ptr: Dict[int, Allocation] = {}
        self._assigned: Dict[int, Block] = {}
        self._pblock_bytes = 0
        self._tick = 0

    # ------------------------------------------------------------------
    @property
    def reserved_bytes(self) -> int:
        return self._pblock_bytes + self._small.reserved_bytes

    # ------------------------------------------------------------------
    # Allocation module
    # ------------------------------------------------------------------
    def _malloc_impl(self, size: int) -> "tuple[int, int]":
        if size < self.config.small_threshold:
            alloc = self._small.malloc(size)
            self._small_by_ptr[alloc.ptr] = alloc
            return alloc.ptr, alloc.rounded_size
        rounded = align_up(size, self.config.chunk_size)
        self._tick += 1
        self._spend_host_time(self.device.latency.cached_op_us)
        try:
            return self._malloc_large(rounded)
        except CudaOutOfMemoryError:
            self._reclaim()
            try:
                return self._malloc_large(rounded)
            except CudaOutOfMemoryError:
                self.counters.record_state(FitState.OOM)
                raise self._oom(rounded) from None

    def _transient_fit(self, size: int) -> Optional[Tuple[BaseAllocator, int, int]]:
        """The small pool's fit below the chunk size, served with this
        allocator's hooks and counters.  A transient of a chunk or more
        moves ``_tick`` and ``last_used``, so it is never a hit: it
        makes the two calls, as does a small miss (whose OOM propagates
        with no reclaim, as from ``malloc``)."""
        if size < self.config.small_threshold:
            return self._small._transient_fit(size)
        return None

    def note_transients(self, size: int, n: int) -> None:
        self._note_pairs(self._small, round_size(size), n)

    def _malloc_large(self, rounded: int) -> "tuple[int, int]":
        # Fast path: exact match by sorted lookup — the converged steady
        # state where GMLake behaves like a perfect cache (§4.2.2).
        sblock = self.spool.exact_inactive(rounded) if self.config.enable_stitch else None
        if sblock is not None:
            self.counters.record_state(FitState.EXACT_MATCH)
            return self._assign(sblock, rounded)
        pblock = self.ppool.exact_inactive(rounded)
        if pblock is not None:
            self.counters.record_state(FitState.EXACT_MATCH)
            return self._assign(pblock, rounded)

        state, candidates = self._run_best_fit(rounded)
        self.counters.record_state(state)
        if state is FitState.SINGLE_BLOCK:
            return self._handle_single_block(candidates[0], rounded)
        if state is FitState.MULTIPLE_BLOCKS:
            return self._handle_multiple_blocks(candidates, rounded)
        return self._handle_insufficient(candidates, rounded)

    def _run_best_fit(self, rounded: int) -> "tuple[FitState, List[PBlock]]":
        """S2-S4 only: both exact look-ups have just missed ``rounded``,
        so S1 cannot match and BestFit needs no sBlocks.

        Algorithm 1 over the pPool's scan order, walked lazily from
        ``rounded`` instead of copied whole: S2's block is the nearest
        inactive one above it; failing that, S3/S4 gather forward from
        it until the candidates cover ``rounded`` or the blocks fall
        below the fragmentation limit (the scan descends, so every
        later one is smaller)."""
        block = self.ppool.inactive_above(rounded)
        if block is not None:
            return FitState.SINGLE_BLOCK, [block]
        min_stitch = (
            self.config.fragmentation_limit
            if self.config.enable_stitch
            else 1 << 62  # no block qualifies: stitching disabled
        )
        candidates: List[PBlock] = []
        total = 0
        for block in self.ppool.inactive_from(rounded):
            if total >= rounded or block.size < min_stitch:
                break
            candidates.append(block)
            total += block.size
        state = (FitState.MULTIPLE_BLOCKS if total >= rounded
                 else FitState.INSUFFICIENT_BLOCKS)
        return state, candidates

    # ------------------------------------------------------------------
    def _handle_single_block(self, block: PBlock, rounded: int) -> "tuple[int, int]":
        """S2: split the best-fit block (unless below the fragmentation
        limit) and allocate the exact-size half."""
        if (
            block.size >= self.config.fragmentation_limit
            and block.size - rounded >= self.config.chunk_size
        ):
            left, right = self._split(block, rounded)
            if self.config.stitch_after_split and self.config.enable_stitch:
                self._stitch([left, right])
            return self._assign(left, rounded)
        # Below the limit: hand out the whole block; the slack is
        # internal and bounded by the fragmentation limit.
        return self._assign(block, rounded)

    def _handle_multiple_blocks(
        self, candidates: List[PBlock], rounded: int
    ) -> "tuple[int, int]":
        """S3: stitch the candidates, splitting the last on overshoot."""
        total = sum(p.size for p in candidates)
        excess = total - rounded
        last = candidates[-1]
        if (
            excess >= self.config.chunk_size
            and last.size >= self.config.fragmentation_limit
            and last.size - excess >= self.config.chunk_size
        ):
            kept, _rest = self._split(last, last.size - excess)
            candidates[-1] = kept
        sblock = self._stitch(candidates)
        return self._assign(sblock, rounded)

    def _handle_insufficient(
        self, candidates: List[PBlock], rounded: int
    ) -> "tuple[int, int]":
        """S4: Alloc a new pBlock for the shortfall; stitch if partial
        candidates exist, otherwise allocate the new block directly."""
        if not self.config.enable_stitch:
            candidates = []
        shortfall = rounded - sum(p.size for p in candidates)
        new_block = self._alloc_pblock(align_up(shortfall, self.config.chunk_size))
        if not candidates:
            return self._assign(new_block, rounded)
        sblock = self._stitch(candidates + [new_block])
        return self._assign(sblock, rounded)

    # ------------------------------------------------------------------
    # Primitive operations (the §4.2.1 interface: Alloc, Split, Stitch)
    # ------------------------------------------------------------------
    def _alloc_pblock(self, size: int) -> PBlock:
        """Alloc — the only creator of physical memory."""
        block = PBlock.allocate(self.device, size, self.config.chunk_size)
        self.ppool.add(block)
        self._pblock_bytes += size
        self.counters.alloc_pblocks += 1
        return block

    def _split(self, block: PBlock, left_size: int) -> "tuple[PBlock, PBlock]":
        """Split — never changes the amount of allocated memory.

        sBlocks stitched over the original block survive: their virtual
        mappings address physical chunks, which the split leaves in
        place, so each referencing sBlock just swaps the member for the
        two halves.  This stability is what lets the sPool converge to a
        fixed set of compositions (§4.2.2 / §5.4).
        """
        referencing = self.spool.referencing(block)
        self.ppool.remove(block)
        left, right = block.split(self.device, left_size)
        left.last_used = right.last_used = self._tick
        # Each half is stitched into every sBlock the block was: pooled
        # under its final scan key, not re-keyed once per sBlock.
        left.sblock_refs = right.sblock_refs = len(referencing)
        self.ppool.add(left)
        self.ppool.add(right)
        for sblock in referencing:
            self.spool.replace_member(sblock, block, [left, right])
        self.counters.splits += 1
        return left, right

    def _stitch(self, members: List[PBlock]) -> SBlock:
        """Stitch — the only creator of sBlocks; no physical memory."""
        sblock = SBlock.stitch(self.device, members)
        sblock.last_used = self._tick
        for member in members:
            self.ppool.adjust_refs(member, +1)
        self.spool.add(sblock)
        self.counters.stitches += 1
        # The new sBlock is not yet assigned (its members are still
        # inactive), so the LRU must not be allowed to evict it.
        self._enforce_spool_limits(protect=sblock)
        return sblock

    def _stitch_free(self, sblock: SBlock) -> None:
        """StitchFree — drop one sBlock structure (VA only)."""
        self.spool.remove(sblock)
        for member in sblock.members:
            self.ppool.adjust_refs(member, -1)
        sblock.destroy(self.device)
        self.counters.stitch_frees += 1

    def _enforce_spool_limits(self, protect: "SBlock | None" = None) -> None:
        """LRU eviction per §4.3: cap sPool entries and VA use.

        ``protect`` exempts a freshly stitched, not-yet-assigned sBlock
        from eviction.
        """
        va_cap = int(self.config.va_oversubscription * self.device.capacity)
        while len(self.spool) > self.config.max_spool_blocks or (
            self.device.vaspace.total_reserved > va_cap and len(self.spool) > 0
        ):
            victim = self.spool.lru_inactive(skip=protect)
            if victim is None:
                break
            self._stitch_free(victim)

    # ------------------------------------------------------------------
    # Assignment and deallocation module
    # ------------------------------------------------------------------
    def _assign(self, block: Block, rounded: int) -> "tuple[int, int]":
        block.last_used = self._tick
        block.owner_id = self._next_id  # the Allocation id BaseAllocator will use
        if isinstance(block, PBlock):
            block.active = True
        else:
            for member in block.members:
                member.active = True
                member.last_used = self._tick
        self._assigned[block.va] = block
        return block.va, rounded

    def _free_impl(self, allocation: Allocation) -> None:
        """Update — release the tensor-block link; physical memory stays
        under the corresponding pBlocks."""
        small = self._small_by_ptr.pop(allocation.ptr, None)
        if small is not None:
            self._small.free(small)
            return
        self._tick += 1
        self._spend_host_time(self.device.latency.cached_op_us)
        block = self._assigned.pop(allocation.ptr)
        block.owner_id = None
        block.last_used = self._tick
        if isinstance(block, PBlock):
            block.active = False
        else:
            for member in block.members:
                member.active = False
                member.last_used = self._tick

    # ------------------------------------------------------------------
    # Reclaim fallback and cache control
    # ------------------------------------------------------------------
    def _reclaim(self) -> None:
        """OOM fallback: StitchFree every unowned sBlock, then release
        every inactive pBlock's physical memory, smallest first (then by
        id): the order of the driver calls, and so the clock."""
        self.counters.reclaims += 1
        for sblock in list(self.spool):
            if not sblock.is_allocated:
                self._stitch_free(sblock)
        victims = sorted((p for p in self.ppool if not p.active),
                         key=lambda p: (p.size, p.id))
        for pblock in victims:
            self.ppool.remove(pblock)
            self._pblock_bytes -= pblock.size
            pblock.destroy(self.device)
        self._small.empty_cache()

    def _empty_cache_impl(self) -> None:
        """Release all cached (inactive) memory back to the device."""
        self._reclaim()
        self.counters.reclaims -= 1  # user-requested, not an OOM event

    # ------------------------------------------------------------------
    # Converged iterations (§4.2.2: S1 exact matches, no driver call)
    # ------------------------------------------------------------------
    def steady_state(self) -> Optional[SteadyState]:
        """The small pool's answer, and every pBlock's id, size,
        activity and sBlock references and every sBlock's id and owner,
        in pool order.

        Every look-up reads only these, plus sizes, which an id fixes.
        A new pBlock or sBlock has a new id, so an iteration that
        allocates, splits, stitches or frees a stitch changes the shape.
        The LRU stamps are not part of it: only a stitch reads them,
        and a stitch changes the shape.  Each call counts here, each
        large one spends host time here, and each small one in the
        small pool."""
        if self._observers:
            return None
        small = self._small.steady_state()
        shape = (small.shape,
                 tuple(itertools.chain.from_iterable(
                     (b.id, b.size, b.active, b.sblock_refs)
                     for b in self.ppool)),
                 tuple(itertools.chain.from_iterable(
                     (s.id, s.owner_id is None) for s in self.spool)))
        # Calls, frees and next id; tick; state hits; the small pool's.
        counts = (*self._steady_counts(), self._tick,
                  *self.counters.state_hits.values(), *small.counts)
        return SteadyState(shape, counts, counts[0] + counts[1])

    def repeat_steady(self, before: SteadyState, after: SteadyState,
                      k: int) -> None:
        """Also ``_tick`` and the state hits advance, and each LRU stamp
        the iteration set (every stamp above its first tick) moves on
        by ``k`` times the iteration's ticks, as ``k`` repeats restamp
        the same blocks at the same offsets."""
        was, now = before.counts, after.counts
        small_was, small_now = was[-3:], now[-3:]
        small_spends = (small_now[0] + small_now[1]
                        - small_was[0] - small_was[1])
        self._small._repeat_calls(small_was, small_now, k, small_spends)
        self._repeat_calls(was, now, k,
                           after.spends - before.spends - small_spends)
        hits = self.counters.state_hits
        for state, hit_was, hit_now in zip(hits, was[4:-3], now[4:-3]):
            hits[state] += k * (hit_now - hit_was)
        first, shift = was[3], k * (now[3] - was[3])
        for block in itertools.chain(self.ppool, self.spool):
            if block.last_used > first:
                block.last_used += shift
        self._tick += shift

    # ------------------------------------------------------------------
    # Introspection & invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify the §4.2.1 data-structure guarantees."""
        super().check_invariants()
        # The small pool keeps its own laws, and the pointer map is
        # exactly its live allocations.
        self._small.check_invariants()
        small_live = {a.ptr: a for a in self._small._live.values()}
        assert small_live == self._small_by_ptr, (
            f"small-pool pointer map drifted: {len(self._small_by_ptr)} "
            f"mapped, {len(small_live)} live"
        )
        self.ppool.check_invariants()
        self.spool.check_invariants(self.ppool)
        for pblock in self.ppool:  # every sBlock over it, counted once
            assert pblock.sblock_refs == len(self.spool.referencing(pblock)), (
                f"pBlock {pblock.id} sblock_refs drifted")
        # Physical accounting matches the pool contents.
        pooled = sum(b.size for b in self.ppool)
        assert self._pblock_bytes == pooled, (
            f"pblock byte accounting drifted: {self._pblock_bytes} != "
            f"{pooled}"
        )
        # Each physical chunk is owned by exactly one pBlock.
        seen: Dict[int, int] = {}
        for pblock in self.ppool:
            for handle in pblock.handles:
                assert handle not in seen, (
                    f"chunk handle {handle} owned by pBlocks "
                    f"{seen[handle]} and {pblock.id}"
                )
                seen[handle] = pblock.id
        # A tensor-owned sBlock is intact, and ``PBlock.active``, the one
        # store of activity, marks exactly the pBlocks a tensor owns:
        # itself or as a member of its sBlock.
        owned = set()
        for block in self._assigned.values():
            if isinstance(block, SBlock):
                assert len(block.members) >= 2, (
                    f"owned sBlock {block.id} was destroyed while assigned"
                )
                owned.update(m.id for m in block.members)
            else:
                owned.add(block.id)
        active = {p.id for p in self.ppool if p.active}
        assert active == owned, (
            f"pBlock activity drifted: {sorted(active - owned)} active but "
            f"unowned, {sorted(owned - active)} owned but inactive"
        )
        # No reservation overlap at the VA layer.
        assert not self.device.vaspace.overlaps()
