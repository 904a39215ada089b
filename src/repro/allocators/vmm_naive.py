"""The unpooled virtual-memory allocator of §2.5.

Every ``malloc`` reserves a VA range, creates physical chunks, maps them
and sets access; every ``free`` unmaps, releases and frees the range.
No caching, no stitching.  It never fragments (chunks are returned to
the device immediately) but pays the full VMM API cost on every single
operation — over 100x ``cudaMalloc`` with 2 MB chunks (Figure 6), which
is what motivates GMLake's pooled design.
"""

from __future__ import annotations

from typing import Dict, List

from repro.allocators.base import Allocation, BaseAllocator
from repro.errors import CudaOutOfMemoryError
from repro.gpu.device import GpuDevice
from repro.units import CHUNK_SIZE, align_up


class VmmNaiveAllocator(BaseAllocator):
    """Reserve/create/map/setAccess per allocation; full teardown per free.

    Parameters
    ----------
    device:
        Target device.
    chunk_size:
        Physical chunk size used to back each allocation; the Figure 6
        bench sweeps this from 2 MB to 1 GB.
    """

    def __init__(self, device: GpuDevice, chunk_size: int = CHUNK_SIZE):
        super().__init__(device, name="vmm-naive")
        if chunk_size <= 0 or chunk_size % CHUNK_SIZE != 0:
            raise ValueError(
                f"chunk_size must be a positive multiple of {CHUNK_SIZE}, "
                f"got {chunk_size}"
            )
        self.chunk_size = chunk_size
        self._handles: Dict[int, List[int]] = {}  # ptr -> its chunks
        self._reserved = 0

    @property
    def reserved_bytes(self) -> int:
        return self._reserved

    def _malloc_impl(self, size: int) -> "tuple[int, int]":
        rounded = align_up(size, self.chunk_size)
        vmm = self.device.vmm
        va = vmm.mem_address_reserve(rounded)
        try:
            handles = vmm.back(va, 0, rounded, self.chunk_size)
        except CudaOutOfMemoryError as exc:
            vmm.mem_address_free(va)
            raise self._oom(size) from exc
        self._handles[va] = handles
        self._reserved += rounded
        return va, rounded

    def _free_impl(self, allocation: Allocation) -> None:
        va, size = allocation.ptr, allocation.rounded_size
        handles = self._handles.pop(va)
        vmm = self.device.vmm
        vmm.mem_unmap(va, 0, size)
        for handle in handles:
            vmm.mem_release(handle)
        vmm.mem_address_free(va)
        self._reserved -= size
