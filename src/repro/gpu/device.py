"""One simulated GPU device bundling clock, memory and driver APIs."""

from __future__ import annotations

from typing import Optional

from repro.gpu.clock import SimClock
from repro.gpu.latency import LatencyModel
from repro.gpu.phys import PhysicalMemory
from repro.gpu.runtime import CudaRuntime
from repro.gpu.vaspace import VirtualAddressSpace
from repro.gpu.vmm import CudaVmm
from repro.units import A100_80GB


class GpuDevice:
    """A simulated NVIDIA A100-class device.

    Parameters
    ----------
    capacity:
        Physical memory in bytes; defaults to 80 GB (the paper's A100s).
    clock:
        Shared simulated clock; multi-GPU experiments pass the same clock
        to every device so driver time is accounted once per rank (data
        parallel ranks run the same stream concurrently).
    latency:
        Latency model; defaults to the Table-1-calibrated model.
    """

    def __init__(self, capacity: int = A100_80GB,
                 clock: Optional[SimClock] = None,
                 latency: Optional[LatencyModel] = None):
        self.capacity = capacity
        self.clock = clock if clock is not None else SimClock()
        self.latency = latency if latency is not None else LatencyModel()
        self.phys = PhysicalMemory(capacity=capacity)
        self.vaspace = VirtualAddressSpace()
        self.vmm = CudaVmm(self.phys, self.vaspace, self.clock, self.latency)
        self.runtime = CudaRuntime(self.phys, self.vaspace, self.clock, self.latency)

    @property
    def used_memory(self) -> int:
        """Physically committed bytes."""
        return self.phys.committed

    def driver_time_us(self) -> float:
        """Total time this device spent inside driver/runtime calls."""
        return self.vmm.counters.total_time_us + self.runtime.counters.total_time_us

    def __repr__(self) -> str:
        return (
            f"GpuDevice(capacity={self.capacity}, used={self.used_memory}, "
            f"t={self.clock.now_us / 1e3:.3f} ms)"
        )
