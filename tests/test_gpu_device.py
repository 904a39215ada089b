"""Tests for the device facade and the error hierarchy."""

import pytest

from repro import (
    AllocatorError,
    CudaError,
    CudaOutOfMemoryError,
    OutOfMemoryError,
    ReproError,
)
from repro.errors import DoubleFreeError, UnknownAllocationError
from repro.gpu.clock import SimClock
from repro.gpu.device import GpuDevice
from repro.gpu.latency import LatencyModel
from repro.units import A100_80GB, GB, MB


class TestGpuDevice:
    def test_defaults_to_a100(self):
        device = GpuDevice()
        assert device.capacity == A100_80GB
        assert device.phys.free == A100_80GB

    def test_used_and_free_track_phys(self):
        device = GpuDevice(capacity=1 * GB)
        ptr = device.runtime.cuda_malloc(100 * MB)
        assert device.used_memory == 100 * MB
        assert device.phys.free == 924 * MB
        device.runtime.cuda_free(ptr)
        assert device.used_memory == 0

    def test_shared_clock_across_devices(self):
        clock = SimClock()
        dev_a = GpuDevice(capacity=1 * GB, clock=clock)
        dev_b = GpuDevice(capacity=1 * GB, clock=clock)
        dev_a.runtime.cuda_malloc(10 * MB)
        t_after_a = clock.now_us
        dev_b.runtime.cuda_malloc(10 * MB)
        assert clock.now_us > t_after_a
        assert dev_a.clock is dev_b.clock

    def test_custom_latency_model(self):
        fast = LatencyModel(cuda_malloc_fixed_us=1.0,
                            cuda_malloc_per_gb_us=0.0)
        device = GpuDevice(capacity=1 * GB, latency=fast)
        t0 = device.clock.now_us
        device.runtime.cuda_malloc(512 * MB)
        assert device.clock.now_us - t0 == pytest.approx(1.0)

    def test_driver_time_combines_vmm_and_runtime(self):
        device = GpuDevice(capacity=1 * GB)
        device.runtime.cuda_malloc(2 * MB)
        device.vmm.mem_create(2 * MB)
        assert device.driver_time_us() == pytest.approx(
            device.vmm.counters.total_time_us
            + device.runtime.counters.total_time_us
        )

    def test_repr_mentions_usage(self):
        device = GpuDevice(capacity=1 * GB)
        assert "GpuDevice" in repr(device)


class TestErrorHierarchy:
    def test_cuda_errors_are_repro_errors(self):
        assert issubclass(CudaError, ReproError)
        assert issubclass(CudaOutOfMemoryError, CudaError)

    def test_allocator_errors_are_repro_errors(self):
        assert issubclass(AllocatorError, ReproError)
        assert issubclass(OutOfMemoryError, AllocatorError)
        assert issubclass(DoubleFreeError, AllocatorError)
        assert issubclass(UnknownAllocationError, AllocatorError)

    def test_cuda_oom_carries_numbers(self):
        error = CudaOutOfMemoryError(requested=10, free=5, total=20)
        assert error.requested == 10
        assert error.free == 5
        assert error.total == 20
        assert "10" in str(error)

    def test_allocator_oom_carries_numbers(self):
        error = OutOfMemoryError(requested=4, reserved=3, active=2, capacity=8)
        assert (error.requested, error.reserved,
                error.active, error.capacity) == (4, 3, 2, 8)

    def test_cuda_oom_is_not_allocator_oom(self):
        """The driver error and the allocator error are distinct levels:
        engines catch the allocator one, allocators catch the driver one."""
        assert not issubclass(CudaOutOfMemoryError, AllocatorError)
        assert not issubclass(OutOfMemoryError, CudaError)
