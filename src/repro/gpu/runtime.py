"""Simulated CUDA runtime allocation API: ``cudaMalloc`` / ``cudaFree``.

These are the calls the *native allocator* baseline issues once per
tensor, and the calls the caching allocator issues once per cached
segment.  Both synchronize the device, which is why the paper measures
the native allocator at ~10x lower training throughput (§2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import CudaInvalidAddressError, CudaInvalidValueError
from repro.gpu.clock import SimClock
from repro.gpu.latency import LatencyModel
from repro.gpu.phys import PhysicalMemory
from repro.gpu.vaspace import VirtualAddressSpace


@dataclass
class RuntimeCounters:
    """Cumulative ``cudaMalloc``/``cudaFree`` counts and time."""

    malloc_calls: int = 0
    free_calls: int = 0
    total_time_us: float = 0.0


class CudaRuntime:
    """``cudaMalloc``/``cudaFree`` against the shared physical memory.

    Each successful ``cudaMalloc`` commits physical bytes (through an
    internal ``cuMemCreate``-equivalent handle) and returns a device
    pointer from the shared VA space, so runtime and VMM allocations
    draw from the same 80 GB and OOM together — exactly as on hardware.
    """

    def __init__(self, phys: PhysicalMemory, vaspace: VirtualAddressSpace,
                 clock: SimClock, latency: LatencyModel):
        self._phys = phys
        self._va = vaspace
        self._clock = clock
        self._latency = latency
        self.counters = RuntimeCounters()
        self._allocations: Dict[int, tuple] = {}  # ptr -> (handle, size)

    def _spend(self, us: float) -> None:
        self._clock.advance(us)
        self.counters.total_time_us += us

    def cuda_malloc(self, size: int) -> int:
        """Allocate ``size`` device bytes; returns a device pointer.

        Raises :class:`~repro.errors.CudaOutOfMemoryError` when the
        device cannot commit ``size`` more bytes.
        """
        if size <= 0:
            raise CudaInvalidValueError(f"cudaMalloc size must be positive, got {size}")
        self._spend(self._latency.cuda_malloc(size))
        self.counters.malloc_calls += 1
        handle = self._phys.create(size)
        ptr = self._va.reserve(size)
        self._allocations[ptr] = (handle, size)
        return ptr

    def cuda_free(self, ptr: int) -> None:
        """Free a pointer previously returned by :meth:`cuda_malloc`."""
        entry = self._allocations.pop(ptr, None)
        if entry is None:
            raise CudaInvalidAddressError(f"cudaFree of unknown pointer {ptr:#x}")
        handle, size = entry
        self._spend(self._latency.cuda_free(size))
        self.counters.free_calls += 1
        self._phys.release(handle)
        self._va.free(ptr)

    def size_of(self, ptr: int) -> int:
        """Size of a live runtime allocation (introspection for tests)."""
        entry = self._allocations.get(ptr)
        if entry is None:
            raise CudaInvalidAddressError(f"unknown pointer {ptr:#x}")
        return entry[1]
