"""pBlock — GMLake's primitive memory block (§3.2, Figure 8).

A pBlock is the smallest unit visible to high-level tensors: a
contiguous virtual address range backed by uniform 2 MB physical chunks
created through the VMM API.  pBlocks own their physical chunks; sBlocks
only alias them.
"""

from __future__ import annotations

import itertools
from typing import List, Tuple

from repro.errors import CudaInvalidValueError, CudaOutOfMemoryError
from repro.gpu.device import GpuDevice
from repro.units import fmt_bytes, is_aligned

_pblock_ids = itertools.count(1)


class PBlock:
    """A primitive block: one VA reservation mapping its own chunks.

    Attributes
    ----------
    id:
        Unique identifier (process-global, for logging and pool keys).
    va:
        Start of the block's virtual address reservation.
    size:
        Block size in bytes (a multiple of ``chunk_size``).
    chunk_size:
        Size of each backing physical chunk.
    handles:
        Physical chunk handles, in VA order.  This pBlock holds the
        *creation* reference of every handle.
    active:
        True while a tensor occupies this block's chunks — either
        directly or through an sBlock that contains this pBlock.
    owner_id:
        ``alloc_id`` of the tensor occupying the block, or None.
    last_used:
        Allocator tick of the last (de)allocation touching this block.
    sblock_refs:
        How many live sBlocks stitch over this pBlock.  Exact-match
        allocation prefers unreferenced pBlocks so that converged
        stitch compositions are not invalidated by size-colliding
        requests (the steady state of §4.2.2 depends on this).
    """

    __slots__ = ("id", "va", "size", "chunk_size", "handles", "active",
                 "owner_id", "last_used", "sblock_refs")

    def __init__(self, va: int, size: int, chunk_size: int, handles: List[int]):
        self.id = next(_pblock_ids)
        self.va = va
        self.size = size
        self.chunk_size = chunk_size
        self.handles = handles
        self.active = False
        self.owner_id: "int | None" = None
        self.last_used = 0
        self.sblock_refs = 0

    # ------------------------------------------------------------------
    @classmethod
    def allocate(cls, device: GpuDevice, size: int, chunk_size: int) -> "PBlock":
        """The ``Alloc`` function (§3.3.1): reserve VA, create chunks,
        map them, enable access.

        The exclusive way new physical memory enters GMLake.  ``size``
        must be a positive multiple of ``chunk_size``.

        Raises :class:`~repro.errors.CudaOutOfMemoryError` if the device
        cannot commit the chunks; partially created chunks are rolled
        back by the caller-visible exception path in the allocator.
        """
        if size <= 0 or not is_aligned(size, chunk_size):
            raise CudaInvalidValueError(
                f"pBlock size must be a positive multiple of {chunk_size}, got {size}"
            )
        vmm = device.vmm
        va = vmm.mem_address_reserve(size)
        try:
            handles = vmm.back(va, 0, size, chunk_size)
        except CudaOutOfMemoryError:
            # A failed Alloc leaves the device unchanged.
            vmm.mem_address_free(va)
            raise
        return cls(va=va, size=size, chunk_size=chunk_size, handles=handles)

    # ------------------------------------------------------------------
    def split(self, device: GpuDevice, left_size: int) -> "Tuple[PBlock, PBlock]":
        """The ``Split`` function (§3.3.1).

        Divides this pBlock into two new pBlocks of ``left_size`` and
        ``size - left_size`` bytes, each with its own virtual address
        and remapped physical chunks; the original pBlock is destroyed
        (its VA is freed, its chunks live on under the new blocks).

        ``left_size`` must be a chunk multiple strictly inside the block.
        The block must be inactive.
        """
        if self.active:
            raise CudaInvalidValueError(f"cannot split active pBlock {self.id}")
        if not is_aligned(left_size, self.chunk_size):
            raise CudaInvalidValueError(
                f"split size {left_size} is not a multiple of {self.chunk_size}"
            )
        if not 0 < left_size < self.size:
            raise CudaInvalidValueError(
                f"split size {left_size} outside (0, {self.size})"
            )
        vmm = device.vmm
        n_left = left_size // self.chunk_size
        left = self._remap(device, self.handles[:n_left])
        right = self._remap(device, self.handles[n_left:])
        # Tear down the original VA; the new mappings keep chunks alive.
        vmm.mem_unmap(self.va, 0, self.size)
        vmm.mem_address_free(self.va)
        self.handles = []
        return left, right

    def _remap(self, device: GpuDevice, handles: List[int]) -> "PBlock":
        """Build a new pBlock over existing chunks (helper for split)."""
        va = device.vmm.alias(handles, self.chunk_size)
        return PBlock(va=va, size=len(handles) * self.chunk_size,
                      chunk_size=self.chunk_size, handles=handles)

    # ------------------------------------------------------------------
    def destroy(self, device: GpuDevice) -> None:
        """Release physical chunks and the VA reservation.

        Only called by the allocator's reclaim fallback (OOM path) and
        teardown; during normal operation pBlocks cache their physical
        memory for the lifetime of training.
        """
        if self.active:
            raise CudaInvalidValueError(f"cannot destroy active pBlock {self.id}")
        vmm = device.vmm
        vmm.mem_unmap(self.va, 0, self.size)
        for handle in self.handles:
            vmm.mem_release(handle)
        vmm.mem_address_free(self.va)
        self.handles = []

    def __repr__(self) -> str:
        state = "active" if self.active else "inactive"
        return f"PBlock(id={self.id}, size={fmt_bytes(self.size)}, {state})"
