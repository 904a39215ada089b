"""Unit tests for the GPU substrate: clock, physical memory, VA space."""

import pytest

from repro.errors import (
    CudaInvalidAddressError,
    CudaInvalidValueError,
    CudaOutOfMemoryError,
)
from repro.gpu.clock import SimClock
from repro.gpu.phys import PhysicalMemory
from repro.gpu.vaspace import VirtualAddressSpace
from repro.testing import FlakyDevice
from repro.units import MB


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_us == 0.0

    def test_custom_start(self):
        assert SimClock(start_us=5.0).now_us == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start_us=-1.0)

    def test_advance(self):
        clock = SimClock()
        clock.advance(10.0)
        clock.advance(2.5)
        assert clock.now_us == 12.5

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-0.1)
        with pytest.raises(ValueError):
            SimClock().advance_many(-0.1, 3)
        with pytest.raises(ValueError):
            SimClock(start_us=1.0).advance_to(0.5)

    def test_advance_to_stores_a_copy_advanced_elsewhere(self):
        stepped, copied = SimClock(start_us=3.0), SimClock(start_us=3.0)
        t_us = copied.now_us
        for duration in (0.1, 1.5, 0.1, 1.5):
            stepped.advance(duration)
            t_us += duration
        assert copied.advance_to(t_us) == stepped.now_us
        assert copied.advance_to(t_us) == t_us  # staying put is allowed

    def test_advance_many_adds_one_step_at_a_time(self):
        stepped, many = SimClock(), SimClock()
        for _ in range(10):
            stepped.advance(0.1)
        assert many.advance_many(0.1, 10) == stepped.now_us
        assert many.now_us != 1.0  # ten adds of 0.1 round below one add of 1.0
        assert many.advance_many(5.0, 0) == stepped.now_us

    def test_unit_conversions(self):
        clock = SimClock()
        clock.advance(2_500_000)
        assert clock.now_s == 2.5


class TestPhysicalMemory:
    def test_create_commits_bytes(self):
        phys = PhysicalMemory(capacity=10 * MB)
        phys.create(4 * MB)
        assert phys.committed == 4 * MB
        assert phys.free == 6 * MB

    def test_handles_are_unique(self):
        phys = PhysicalMemory(capacity=10 * MB)
        h1 = phys.create(2 * MB)
        h2 = phys.create(2 * MB)
        assert h1 != h2

    def test_fault_injector_makes_chunks_one_create_at_a_time(self):
        """``FlakyDevice``'s ``phys`` declines the batched creates, so
        each chunk is one ``create`` and any of them can fail."""
        phys = FlakyDevice(capacity=10 * MB, fail_on=(2,)).phys
        assert phys.create_run(2 * MB, 3) is None
        assert phys.refuse_creates(2 * MB, 3) is None
        assert phys.committed == 0
        phys.create(2 * MB)
        with pytest.raises(CudaOutOfMemoryError):
            phys.create(2 * MB)
        phys.create(2 * MB)
        assert phys.committed == 4 * MB
        assert PhysicalMemory(capacity=10 * MB).create_run(2 * MB, 3) is not None

    def test_retain_of_many_retains_all_or_none(self):
        phys = PhysicalMemory(capacity=10 * MB)
        h1, h2, h3 = (phys.create(size) for size in (2 * MB, 2 * MB, 4 * MB))
        phys.retain(h2, h1, h2, size=2 * MB)
        refcounts = [phys.get(h).refcount for h in (h1, h2, h3)]
        assert refcounts == [2, 3, 1]
        with pytest.raises(CudaInvalidValueError):
            phys.retain(h1, h3, size=2 * MB)  # h3 is 4 MB
        phys.release(h3)
        with pytest.raises(CudaInvalidValueError, match=f"handle {h3}"):
            phys.retain(h1, h3)
        assert [phys.get(h).refcount for h in (h1, h2)] == refcounts[:2]

    def test_oom_raises_with_details(self):
        phys = PhysicalMemory(capacity=4 * MB)
        phys.create(3 * MB)
        with pytest.raises(CudaOutOfMemoryError) as exc:
            phys.create(2 * MB)
        assert exc.value.requested == 2 * MB
        assert exc.value.free == 1 * MB
        assert exc.value.total == 4 * MB

    def test_oom_exact_boundary_ok(self):
        phys = PhysicalMemory(capacity=4 * MB)
        phys.create(4 * MB)
        assert phys.free == 0

    def test_release_returns_bytes(self):
        phys = PhysicalMemory(capacity=4 * MB)
        handle = phys.create(2 * MB)
        phys.release(handle)
        assert phys.committed == 0

    def test_double_release_rejected(self):
        phys = PhysicalMemory(capacity=4 * MB)
        handle = phys.create(2 * MB)
        phys.release(handle)
        with pytest.raises(CudaInvalidValueError):
            phys.release(handle)

    def test_release_with_live_mapping_keeps_bytes(self):
        phys = PhysicalMemory(capacity=4 * MB)
        handle = phys.create(2 * MB)
        phys.retain(handle)  # a mapping reference
        phys.release(handle)  # creation reference dropped
        assert phys.committed == 2 * MB  # mapping keeps it alive
        phys.release_refs((handle,))
        assert phys.committed == 0

    def test_release_then_double_release_via_refs(self):
        phys = PhysicalMemory(capacity=4 * MB)
        handle = phys.create(2 * MB)
        phys.release(handle)
        with pytest.raises(CudaInvalidValueError):
            phys.retain(handle)

    def test_refuse_creates_commits_nothing(self):
        """Creates refused in a row spend the handles of those made
        before the failing one, and leave ``committed`` where it was."""
        phys = PhysicalMemory(capacity=10 * MB)
        first = phys.create(4 * MB)
        assert phys.refuse_creates(4 * MB, 3) == 1
        assert phys.committed == 4 * MB and phys.free == 6 * MB
        assert phys.create(4 * MB) == first + 2

    def test_invalid_size_rejected(self):
        phys = PhysicalMemory(capacity=4 * MB)
        with pytest.raises(CudaInvalidValueError):
            phys.create(0)

    def test_unknown_handle_rejected(self):
        phys = PhysicalMemory(capacity=4 * MB)
        with pytest.raises(CudaInvalidValueError):
            phys.get(99)

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory(capacity=0)

    def test_live_chunk_count(self):
        phys = PhysicalMemory(capacity=10 * MB)
        h = phys.create(2 * MB)
        phys.create(2 * MB)
        assert phys.live_chunk_count == 2
        phys.release(h)
        assert phys.live_chunk_count == 1


class TestVirtualAddressSpace:
    def test_reserve_returns_aligned_address(self):
        va_space = VirtualAddressSpace()
        va = va_space.reserve(3 * MB)
        assert va % va_space.alignment == 0

    def test_reservations_do_not_overlap(self):
        va_space = VirtualAddressSpace()
        for _ in range(20):
            va_space.reserve(3 * MB)
        assert not va_space.overlaps()

    def test_size_rounded_to_alignment(self):
        va_space = VirtualAddressSpace()
        va = va_space.reserve(3 * MB)
        assert va_space.get(va).size == 4 * MB

    def test_contains(self):
        va_space = VirtualAddressSpace()
        va = va_space.reserve(4 * MB)
        assert va_space.contains(va, 0, 4 * MB)
        assert va_space.contains(va, 2 * MB, 2 * MB)
        assert not va_space.contains(va, 2 * MB, 3 * MB)
        assert not va_space.contains(va + 1, 0, 1)

    def test_free_removes_reservation(self):
        va_space = VirtualAddressSpace()
        va = va_space.reserve(2 * MB)
        assert va_space.free(va) == 2 * MB
        with pytest.raises(CudaInvalidAddressError):
            va_space.get(va)

    def test_double_free_rejected(self):
        va_space = VirtualAddressSpace()
        va = va_space.reserve(2 * MB)
        va_space.free(va)
        with pytest.raises(CudaInvalidAddressError):
            va_space.free(va)

    def test_total_tracking(self):
        va_space = VirtualAddressSpace()
        va = va_space.reserve(2 * MB)
        va_space.reserve(2 * MB)
        va_space.free(va)
        assert va_space.total_reserved == 2 * MB

    def test_zero_size_rejected(self):
        with pytest.raises(CudaInvalidValueError):
            VirtualAddressSpace().reserve(0)

    def test_live_count(self):
        va_space = VirtualAddressSpace()
        va = va_space.reserve(2 * MB)
        va_space.reserve(2 * MB)
        assert va_space.live_count == 2
        va_space.free(va)
        assert va_space.live_count == 1
