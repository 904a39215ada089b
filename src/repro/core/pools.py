"""The primitive and stitched memory pools (§3.2, Figure 8).

Both pools are ordered sets sorted by block size and hold *all* blocks,
active and inactive.  ``PBlock.active`` is the single source of truth
for activity: nothing else stores it, so an assign or a free is a flag
write per member pBlock however many sBlocks stitch over it, and every
look-up derives activity when it reads:

* ``PPool`` keeps its blocks in one order, BestFit's scan order, keyed
  ``(-size, sblock_refs, id)`` (the paper sorts descending).  The
  inactive look-ups walk that order from a size, lazily, and skip
  active blocks: BestFit reads only the blocks next to its request
  (``inactive_above``, ``inactive_from``).  It keeps no byte total:
  ``GMLakeAllocator._pblock_bytes`` is the one.
* ``SPool`` keeps a pBlock→sBlocks back-index (``referencing`` without
  scanning every sBlock); an sBlock is inactive iff none of its members
  is active (``SBlock.active``), evaluated at look-up, and StitchFree's
  victim is found in one pass (``lru_inactive``).

Only what a sort key is made of must change through the pool API
while its block is pooled:
``adjust_refs`` for ``sblock_refs``, ``replace_member`` for an sBlock's
members.  ``check_invariants`` re-derives every ordering and
back-index from scratch and asserts agreement.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.core.pblock import PBlock
from repro.core.sblock import SBlock
from repro.sortedlist import ChunkedSortedKeyList


class PPool:
    """The primitive memory pool: every live pBlock, largest first.

    "The pPool represents a strict one-to-one mapping of GPU memory,
    with each pBlock being distinct from others" (§4.2.1) — enforced by
    :meth:`check_invariants`.
    """

    def __init__(self):
        # BestFit scan order: largest first, then fewest sBlock
        # references, then id.  ``sblock_refs`` is part of the key, so
        # every refs change must go through ``adjust_refs``.
        self._scan: ChunkedSortedKeyList[PBlock] = ChunkedSortedKeyList(
            key=lambda b: (-b.size, b.sblock_refs, b.id)
        )

    def __len__(self) -> int:
        return len(self._scan)

    def __iter__(self) -> Iterator[PBlock]:
        return iter(self._scan)

    def add(self, block: PBlock) -> None:
        """Insert a pBlock (after Alloc or Split)."""
        self._scan.add(block)

    def remove(self, block: PBlock) -> None:
        """Remove a pBlock (before Split rebuilds it, or on release)."""
        self._scan.remove(block)

    def adjust_refs(self, block: PBlock, delta: int) -> None:
        """Change ``block.sblock_refs`` (part of the scan-order key)."""
        self._scan.remove(block)
        block.sblock_refs += delta
        self._scan.add(block)

    # ------------------------------------------------------------------
    def inactive_above(self, size: int) -> Optional[PBlock]:
        """The smallest inactive pBlock larger than ``size``, or None:
        BestFit's S2 block, the *last* sufficient one in scan order
        (among equal sizes the most-referenced, highest-id), found by
        walking the scan order backwards from ``size``."""
        for block in self._scan.iter_before((-size,)):
            if not block.active:
                return block
        return None

    def inactive_from(self, size: int) -> Iterator[PBlock]:
        """Inactive pBlocks of at most ``size`` bytes, in scan order:
        where BestFit's S3/S4 gathering starts when no block is above
        ``size``."""
        return (block for block in self._scan.iter_from((-size,))
                if not block.active)

    def exact_inactive(self, size: int) -> Optional[PBlock]:
        """An inactive pBlock of exactly ``size`` bytes, if any.

        Among equal-size candidates, pBlocks that no sBlock references
        are preferred: taking an sBlock member would mark the sBlock
        active and force the next request for its stitched size back
        into S2/S3 churn instead of the converged exact-match path.
        Falls back to the lowest-id candidate, like the pre-index scan.
        """
        fallback: Optional[PBlock] = None
        for block in self._scan.iter_from((-size,)):
            if block.size != size:
                break
            if block.active:
                continue
            if block.sblock_refs == 0:
                return block
            if fallback is None or block.id < fallback.id:
                fallback = block
        return fallback

    def check_invariants(self) -> None:
        """pPool holds no duplicates, stays in scan order, and keys no
        block under a stale ``sblock_refs``."""
        ids = [b.id for b in self._scan]
        assert len(ids) == len(set(ids)), "duplicate pBlock in pPool"
        assert self._scan.check_sorted(), "pPool scan order not sorted"
        # ``in`` looks a block up under its *current* key, so it fails
        # for a key left stale by a refs change that bypassed
        # ``adjust_refs``.
        assert all(b in self._scan for b in self._scan), (
            "pPool scan order holds a block under a stale key")


class SPool:
    """The stitched memory pool: every live sBlock, sorted by size.

    "The sPool is considered a subset of the pPool" (§4.2.1): every
    member of every sBlock must be present in the pPool.
    """

    def __init__(self):
        self._blocks: ChunkedSortedKeyList[SBlock] = ChunkedSortedKeyList(
            key=lambda b: (b.size, b.id)
        )
        # pBlock id -> sBlocks stitched over it (the back-index behind
        # ``referencing``).
        self._by_member: Dict[int, List[SBlock]] = {}

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[SBlock]:
        return iter(self._blocks)

    def add(self, block: SBlock) -> None:
        """Insert an sBlock (only Stitch creates these)."""
        self._blocks.add(block)
        for member in block.members:
            self._by_member.setdefault(member.id, []).append(block)

    def remove(self, block: SBlock) -> None:
        """Remove an sBlock (StitchFree)."""
        self._blocks.remove(block)
        for member in block.members:
            holders = self._by_member[member.id]
            holders.remove(block)
            if not holders:
                del self._by_member[member.id]

    def replace_member(self, sblock: SBlock, old: PBlock,
                       new_parts: List[PBlock]) -> None:
        """Swap ``old`` for the pBlocks it was split into, keeping the
        back-index current."""
        sblock.replace_member(old, new_parts)
        holders = self._by_member[old.id]
        holders.remove(sblock)
        if not holders:
            del self._by_member[old.id]
        for part in new_parts:
            self._by_member.setdefault(part.id, []).append(sblock)

    # ------------------------------------------------------------------
    def exact_inactive(self, size: int) -> Optional[SBlock]:
        """An inactive sBlock of exactly ``size`` bytes, if any.

        This is the only way an sBlock is ever handed to a tensor (S1:
        "This is the sole situation where an sBlock can be assigned").
        """
        for block in self._blocks.iter_from((size, 0)):
            if block.size != size:
                break
            # ``not block.active``, spelled out: this loop is the
            # converged malloc's whole cost.
            for member in block.members:
                if member.active:
                    break
            else:
                return block
        return None

    def referencing(self, pblock: PBlock) -> List[SBlock]:
        """Every sBlock that stitches over ``pblock``, in (size, id)
        order (the pre-index scan order)."""
        holders = self._by_member.get(pblock.id)
        if not holders:
            return []
        return sorted(holders, key=lambda s: (s.size, s.id))

    def lru_inactive(self, skip: Optional[SBlock] = None) -> Optional[SBlock]:
        """Least-recently-used inactive sBlock other than ``skip`` (the
        StitchFree victim): the first, in pool order, of the least
        ``last_used``.  One pass, which reads a block's members only
        when its stamp would beat the victim so far."""
        victim: Optional[SBlock] = None
        for block in self._blocks:
            if block is skip or (victim is not None
                                 and block.last_used >= victim.last_used):
                continue
            for member in block.members:  # ``not block.active``, spelled out
                if member.active:
                    break
            else:
                victim = block
        return victim

    def check_invariants(self, ppool: PPool) -> None:
        """Every sBlock member is a live pPool block; the back-index
        matches a from-scratch recomputation."""
        live = {id(b) for b in ppool}
        for sblock in self._blocks:
            assert len(sblock.members) >= 2, f"sBlock {sblock.id} has <2 members"
            for member in sblock.members:
                assert id(member) in live, (
                    f"sBlock {sblock.id} references pBlock {member.id} "
                    "that is not in the pPool"
                )
        assert self._blocks.check_sorted(), "sPool not sorted"
        edges = {(pid, id(s)) for pid, holders in self._by_member.items()
                 for s in holders}
        expected_edges = {(m.id, id(s)) for s in self._blocks
                          for m in s.members}
        assert edges == expected_edges, "sPool member back-index drifted"
