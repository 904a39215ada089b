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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Union

from repro.allocators.base import Allocation, BaseAllocator
from repro.core.bestfit import BestFitResult, FitState, best_fit
from repro.core.config import GMLakeConfig
from repro.core.pblock import PBlock
from repro.core.pools import PPool, SPool
from repro.core.sblock import SBlock
from repro.core.smallpool import SmallPool
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
        self._small = SmallPool(device)
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
            return self._small.malloc(size)
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

    def malloc_free(self, size: int) -> int:
        """The base class's pair; below the chunk size with nobody
        observing, the small pool's own pair (its OOM propagates with
        no reclaim, as from ``malloc``) and this allocator's counters.
        A transient of a chunk or more keeps the two calls."""
        if self._observers or not 0 < size < self.config.small_threshold:
            return super().malloc_free(size)
        rounded = self._small.malloc_free(size)
        self._issue_and_claim(rounded)  # reads reserved_bytes afterwards
        return rounded

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

        result = self._run_best_fit(rounded)
        self.counters.record_state(result.state)
        if result.state is FitState.SINGLE_BLOCK:
            return self._handle_single_block(result.candidates[0], rounded)
        if result.state is FitState.MULTIPLE_BLOCKS:
            return self._handle_multiple_blocks(result.candidates, rounded)
        return self._handle_insufficient(result.candidates, rounded)

    def _run_best_fit(self, rounded: int) -> BestFitResult:
        """S2-S4 only: both exact look-ups have just missed ``rounded``,
        so S1 cannot match and BestFit needs no sBlocks."""
        min_stitch = (
            self.config.fragmentation_limit
            if self.config.enable_stitch
            else 1 << 62  # no block qualifies: stitching disabled
        )
        return best_fit(rounded, (), self.ppool.inactive_descending(),
                        min_stitch_size=min_stitch)

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
        self.ppool.add(left)
        self.ppool.add(right)
        for sblock in referencing:
            self.spool.replace_member(sblock, block, [left, right])
            self.ppool.adjust_refs(left, +1)
            self.ppool.adjust_refs(right, +1)
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
            victim = self.spool.lru_inactive()
            if victim is protect:
                candidates = [
                    s for s in self.spool.inactive_blocks() if s is not protect
                ]
                victim = min(candidates, key=lambda s: s.last_used) if candidates else None
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
            self.ppool.mark_active(block)
        else:
            for member in block.members:
                self.ppool.mark_active(member)
                member.last_used = self._tick
        self._assigned[block.va] = block
        return block.va, rounded

    def _free_impl(self, allocation: Allocation) -> None:
        """Update — release the tensor-block link; physical memory stays
        under the corresponding pBlocks."""
        if self._small.owns(allocation.ptr):
            self._small.free(allocation.ptr)
            return
        self._tick += 1
        self._spend_host_time(self.device.latency.cached_op_us)
        block = self._assigned.pop(allocation.ptr)
        block.owner_id = None
        block.last_used = self._tick
        if isinstance(block, PBlock):
            self.ppool.mark_inactive(block)
        else:
            for member in block.members:
                self.ppool.mark_inactive(member)
                member.last_used = self._tick

    # ------------------------------------------------------------------
    # Reclaim fallback and cache control
    # ------------------------------------------------------------------
    def _reclaim(self) -> None:
        """OOM fallback: StitchFree every unowned sBlock, then release
        every inactive pBlock's physical memory."""
        self.counters.reclaims += 1
        for sblock in list(self.spool):
            if not sblock.is_allocated:
                self._stitch_free(sblock)
        for pblock in [p for p in self.ppool if not p.active]:
            self.ppool.remove(pblock)
            self._pblock_bytes -= pblock.size
            pblock.destroy(self.device)
        self._small.empty_cache()

    def _empty_cache_impl(self) -> None:
        """Release all cached (inactive) memory back to the device."""
        self._reclaim()
        self.counters.reclaims -= 1  # user-requested, not an OOM event

    # ------------------------------------------------------------------
    # Introspection & invariants
    # ------------------------------------------------------------------
    def state_histogram(self) -> Dict[str, int]:
        """BestFit state counts keyed by state name."""
        return {FitState(v).name: n for v, n in self.counters.state_hits.items()}

    def check_invariants(self) -> None:
        """Verify the §4.2.1 data-structure guarantees."""
        super().check_invariants()
        self.ppool.check_invariants()
        self.spool.check_invariants(self.ppool)
        # Physical accounting matches the pool contents.
        assert self._pblock_bytes == self.ppool.total_bytes, (
            f"pblock byte accounting drifted: {self._pblock_bytes} != "
            f"{self.ppool.total_bytes}"
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
        # A tensor-owned sBlock is intact and keeps all members active.
        for block in self._assigned.values():
            if isinstance(block, SBlock):
                assert len(block.members) >= 2, (
                    f"owned sBlock {block.id} was destroyed while assigned"
                )
                assert all(m.active for m in block.members), (
                    f"owned sBlock {block.id} has inactive members"
                )
        # No reservation overlap at the VA layer.
        assert not self.device.vaspace.overlaps()
