"""Contract tests shared by every allocator (via the native one) plus
native-allocator specifics."""

from dataclasses import replace

import pytest

from repro.allocators import NativeAllocator, VmmNaiveAllocator
from repro.errors import (
    AllocatorError,
    DoubleFreeError,
    OutOfMemoryError,
    UnknownAllocationError,
)
from repro.gpu.device import GpuDevice
from repro.units import GB, MB


@pytest.fixture
def device():
    return GpuDevice(capacity=1 * GB)


@pytest.fixture
def native(device):
    return NativeAllocator(device, op_amplification=1)


class TestAllocatorContract:
    def test_malloc_returns_allocation(self, native):
        alloc = native.malloc(10 * MB)
        assert alloc.size == 10 * MB
        assert alloc.rounded_size == 10 * MB
        assert alloc.ptr > 0

    def test_alloc_ids_increase(self, native):
        a = native.malloc(1 * MB)
        b = native.malloc(1 * MB)
        assert b.alloc_id > a.alloc_id

    def test_zero_size_rejected(self, native):
        with pytest.raises(AllocatorError):
            native.malloc(0)

    def test_negative_size_rejected(self, native):
        with pytest.raises(AllocatorError):
            native.malloc(-5)

    def test_double_free_detected(self, native):
        alloc = native.malloc(1 * MB)
        native.free(alloc)
        with pytest.raises(DoubleFreeError):
            native.free(alloc)

    def test_foreign_allocation_rejected(self, native, device):
        other = NativeAllocator(GpuDevice(), op_amplification=1)
        foreign = other.malloc(1 * MB)
        # An id the native allocator never issued.
        with pytest.raises((UnknownAllocationError, DoubleFreeError)):
            native.free(foreign)

    def test_active_bytes_track_live_allocations(self, native):
        a = native.malloc(10 * MB)
        b = native.malloc(20 * MB)
        assert native.active_bytes == 30 * MB
        native.free(a)
        assert native.active_bytes == 20 * MB
        native.free(b)
        assert native.active_bytes == 0

    def test_peak_active_is_monotone(self, native):
        a = native.malloc(30 * MB)
        native.free(a)
        native.malloc(10 * MB)
        assert native.peak_active_bytes == 30 * MB

    def test_live_allocation_count(self, native):
        a = native.malloc(1 * MB)
        assert native.live_allocation_count == 1
        native.free(a)
        assert native.live_allocation_count == 0

    def test_stats_snapshot(self, native):
        alloc = native.malloc(10 * MB)
        stats = native.stats()
        assert stats.active_bytes == 10 * MB
        assert stats.malloc_count == 1
        assert stats.free_count == 0
        assert stats.driver_time_us > 0
        native.free(alloc)
        assert native.stats().free_count == 1


def _drift_active(allocator, live):
    allocator.active_bytes += 512


def _hand_out_unreserved(allocator, live):
    allocator._reserved -= 2 * MB


def _reserve_uncommitted(allocator, live):
    allocator._reserved += 2 * MB


def _alias_live_pointer(allocator, live):
    other = next(a for a in allocator._live.values() if a is not live)
    allocator._live[other.alloc_id] = replace(other, ptr=live.ptr)


class TestBaseInvariants:
    """``BaseAllocator.check_invariants`` holds the laws every allocator
    owes whatever its internals; ``native`` and ``vmm-naive`` have no
    others.  Each law is broken once and must be caught."""

    @pytest.mark.parametrize("make", [
        lambda device: NativeAllocator(device, op_amplification=1),
        VmmNaiveAllocator], ids=["native", "vmm-naive"])
    @pytest.mark.parametrize("corrupt, message", [
        (_drift_active, "live allocations hold"),
        (_hand_out_unreserved, "does not hold"),
        (_reserve_uncommitted, "does not hold"),
        (_alias_live_pointer, "live pointers collide"),
    ])
    def test_each_seeded_corruption_is_caught(self, device, make, corrupt,
                                              message):
        allocator = make(device)
        allocator.malloc(6 * MB)
        live = allocator.malloc(10 * MB)
        allocator.free(allocator.malloc(4 * MB))
        allocator.check_invariants()
        corrupt(allocator, live)
        with pytest.raises(AssertionError, match=message):
            allocator.check_invariants()


class TestNativeSpecifics:
    def test_reserved_equals_active(self, native):
        """The native allocator caches nothing: no fragmentation ever."""
        allocs = [native.malloc(10 * MB) for _ in range(5)]
        assert native.reserved_bytes == native.active_bytes
        for alloc in allocs[::2]:
            native.free(alloc)
        assert native.reserved_bytes == native.active_bytes

    def test_oom_translates_cuda_error(self, native):
        with pytest.raises(OutOfMemoryError) as exc:
            native.malloc(2 * GB)
        assert exc.value.capacity == 1 * GB

    def test_every_malloc_hits_the_driver(self, native, device):
        for _ in range(4):
            native.free(native.malloc(1 * MB))
        assert device.runtime.counters.malloc_calls == 4
        assert device.runtime.counters.free_calls == 4

    def test_amplification_adds_host_time(self, device):
        amplified = NativeAllocator(device, op_amplification=10)
        t0 = device.clock.now_us
        amplified.free(amplified.malloc(1 * MB))
        amplified_time = device.clock.now_us - t0

        plain_device = GpuDevice(capacity=1 * GB)
        plain = NativeAllocator(plain_device, op_amplification=1)
        t0 = plain_device.clock.now_us
        plain.free(plain.malloc(1 * MB))
        plain_time = plain_device.clock.now_us - t0
        assert amplified_time > 5 * plain_time

    def test_bad_amplification_rejected(self, device):
        with pytest.raises(ValueError):
            NativeAllocator(device, op_amplification=0)

    def test_stats_utilization_is_one(self, native):
        native.malloc(100 * MB)
        assert native.stats().utilization_ratio == 1.0
