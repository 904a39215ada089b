"""sBlock — GMLake's stitched memory block (§3.2–3.3, Figure 8).

An sBlock fuses several non-contiguous pBlocks behind one contiguous
virtual address range.  It never creates physical chunks: ``cuMemMap``
simply points its VA at the member pBlocks' existing chunks (the same
physical chunk may be mapped by many sBlocks simultaneously).  Whether
an sBlock is usable is derived from its members each time it is asked
(``SBlock.active`` stores nothing): if any member pBlock is active the
sBlock is active too, which guarantees each physical chunk is used by at
most one tensor.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence

from repro.errors import CudaInvalidValueError
from repro.gpu.device import GpuDevice
from repro.core.pblock import PBlock
from repro.units import fmt_bytes

_sblock_ids = itertools.count(1)


class SBlock:
    """A stitched block: one VA aliasing the chunks of several pBlocks.

    Attributes
    ----------
    id:
        Unique identifier.
    va:
        Start of the stitched virtual address reservation.
    size:
        Total size (sum of member pBlock sizes).
    members:
        The stitched pBlocks, in VA order.
    last_used:
        Allocator tick of the last (de)allocation touching this block,
        used by the LRU ``StitchFree`` policy.
    owner_id:
        ``alloc_id`` of the tensor occupying this sBlock, or None.
    """

    __slots__ = ("id", "va", "size", "members", "last_used", "owner_id")

    def __init__(self, va: int, size: int, members: List[PBlock]):
        self.id = next(_sblock_ids)
        self.va = va
        self.size = size
        self.members = members
        self.last_used = 0
        self.owner_id: "int | None" = None

    # ------------------------------------------------------------------
    @classmethod
    def stitch(cls, device: GpuDevice, members: Sequence[PBlock]) -> "SBlock":
        """The ``Stitch`` function (§3.3.1).

        Reserves a VA covering all members and maps every member chunk
        into it, in member order.  No physical memory is created; the
        map calls add references so member chunks outlive any single
        owner.
        """
        if len(members) < 2:
            raise CudaInvalidValueError(
                f"stitch needs at least 2 pBlocks, got {len(members)}"
            )
        handles = [handle for pblock in members for handle in pblock.handles]
        va = device.vmm.alias(handles, members[0].chunk_size)
        return cls(va=va, size=sum(p.size for p in members),
                   members=list(members))

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Paper rule: "if even one pBlock is active, all corresponding
        sBlocks are labeled as active"."""
        return any(p.active for p in self.members)

    @property
    def is_allocated(self) -> bool:
        """True when a tensor currently occupies this very sBlock."""
        return self.owner_id is not None

    def contains(self, pblock: PBlock) -> bool:
        """True if ``pblock`` is one of this sBlock's members."""
        return any(p is pblock for p in self.members)

    def replace_member(self, old: PBlock, new_parts: Sequence[PBlock]) -> None:
        """Swap member ``old`` for the pBlocks it was split into.

        An sBlock's virtual mappings point at physical *chunks*, which a
        pBlock split leaves untouched; only the active-state bookkeeping
        moves to the finer-grained parts.  ``new_parts`` must cover
        exactly ``old``'s size, in chunk order.
        """
        total = sum(p.size for p in new_parts)
        if total != old.size:
            raise CudaInvalidValueError(
                f"replacement parts cover {total} bytes, expected {old.size}"
            )
        idx = next(
            (i for i, p in enumerate(self.members) if p is old), None
        )
        if idx is None:
            raise CudaInvalidValueError(
                f"pBlock {old.id} is not a member of sBlock {self.id}"
            )
        self.members[idx : idx + 1] = list(new_parts)

    def destroy(self, device: GpuDevice) -> None:
        """The ``StitchFree`` release: unmap and drop the VA.

        Member pBlocks and their physical chunks are untouched — only
        the aliasing mappings (and their chunk references) go away.
        """
        if self.is_allocated:
            raise CudaInvalidValueError(f"cannot destroy allocated sBlock {self.id}")
        vmm = device.vmm
        vmm.mem_unmap(self.va, 0, self.size)
        vmm.mem_address_free(self.va)
        self.members = []

    def __repr__(self) -> str:
        ids = [p.id for p in self.members]
        return f"SBlock(id={self.id}, size={fmt_bytes(self.size)}, members={ids})"
