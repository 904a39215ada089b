"""Tests for the expandable-segments allocator (extension)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.allocators import CachingAllocator, ExpandableSegmentsAllocator
from repro.allocators import caching
from repro.errors import OutOfMemoryError
from repro.gpu.device import GpuDevice
from repro.units import GB, KB, MB


@pytest.fixture
def device():
    return GpuDevice(capacity=1 * GB)


@pytest.fixture
def expandable(device):
    return ExpandableSegmentsAllocator(device)


class TestGrowth:
    def test_first_alloc_grows_arena(self, expandable, device):
        expandable.malloc(50 * MB)
        assert expandable.reserved_bytes == 50 * MB
        assert device.used_memory == 50 * MB

    def test_growth_is_chunk_granular(self, expandable):
        expandable.malloc(3 * MB)
        assert expandable.reserved_bytes == 4 * MB

    def test_growth_reuses_free_tail(self, expandable):
        alloc = expandable.malloc(10 * MB)
        expandable.free(alloc)
        expandable.malloc(12 * MB)  # extends the free 10 MB tail by 2 MB
        assert expandable.reserved_bytes == 12 * MB

    def test_small_and_large_arenas_are_separate(self, expandable):
        expandable.malloc(100 * KB)
        expandable.malloc(30 * MB)
        assert expandable.mapped_bytes("small") == 2 * MB
        assert expandable.mapped_bytes("large") == 30 * MB

    def test_uses_vmm_not_cudamalloc(self, expandable, device):
        expandable.malloc(10 * MB)
        assert device.runtime.counters.malloc_calls == 0
        assert device.vmm.counters.create_calls == 5


class TestNoSegmentBoundaries:
    def test_freed_neighbours_coalesce_across_whole_arena(self, expandable):
        """What BFC cannot do: blocks from different 'segments' merge."""
        a = expandable.malloc(30 * MB)
        b = expandable.malloc(30 * MB)
        expandable.free(a)
        expandable.free(b)
        reserved = expandable.reserved_bytes
        big = expandable.malloc(60 * MB)  # served by the merged hole
        assert expandable.reserved_bytes == reserved
        assert big.rounded_size == 60 * MB

    def test_holes_cannot_be_stitched(self, expandable):
        """What GMLake can do and expandable segments cannot: two
        non-adjacent holes cannot serve one large request."""
        a = expandable.malloc(30 * MB)
        keep = expandable.malloc(2 * MB)
        b = expandable.malloc(30 * MB)
        expandable.free(a)
        expandable.free(b)
        reserved = expandable.reserved_bytes
        expandable.malloc(60 * MB)  # must grow: holes are disjoint
        assert expandable.reserved_bytes > reserved
        expandable.free(keep)


class TestTrimAndOom:
    def test_empty_cache_trims_free_tail(self, expandable, device):
        alloc = expandable.malloc(50 * MB)
        expandable.free(alloc)
        expandable.empty_cache()
        assert expandable.reserved_bytes == 0
        assert device.used_memory == 0

    def test_trim_keeps_interior_holes(self, expandable):
        hole = expandable.malloc(30 * MB)
        keep = expandable.malloc(10 * MB)
        expandable.free(hole)
        expandable.empty_cache()
        # The hole is below a live block: it cannot be unmapped.
        assert expandable.reserved_bytes == 40 * MB
        expandable.free(keep)

    def test_oom_trims_then_retries(self, expandable, device):
        """The first growth really fails: 200 MB cached in the small
        arena leave no room for 600 + 300 MB, so the large arena can
        only grow after release-and-retry unmapped them."""
        smalls = expandable.malloc_run(1 * MB, 200)
        pin = expandable.malloc(600 * MB)
        expandable.free_run(smalls)
        assert expandable.mapped_bytes("small") == 200 * MB
        creates = device.vmm.counters.create_calls
        alloc = expandable.malloc(300 * MB)
        assert alloc.rounded_size == 300 * MB
        # The failed attempt created (and rolled back) the 112 chunks
        # that fit, its 113th cuMemCreate failed; the retry made 150.
        assert device.vmm.counters.create_calls - creates == 113 + 150
        assert expandable.mapped_bytes("small") == 0
        assert expandable.reserved_bytes == device.used_memory == 900 * MB
        expandable.check_invariants()
        expandable.free(pin)

    def test_retry_after_trim_backs_the_whole_request(self):
        """Regression: the retry after release-and-retry must size its
        growth from the tail the release left, not the one it found.
        The stale size mapped 34 MB and handed the 44 MB request a
        34 MB block (active 64 MB on 54 MB reserved)."""
        device = GpuDevice(capacity=64 * MB)
        expandable = ExpandableSegmentsAllocator(device)
        keep = expandable.malloc(20 * MB)
        tail = expandable.malloc(10 * MB)
        smalls = expandable.malloc_run(512 * KB, 4)
        expandable.free_run(smalls)
        expandable.free(tail)
        # 32 MB mapped; growing the free 10 MB tail by 34 MB overflows
        # the device, the release trims that tail (and the small arena).
        big = expandable.malloc(44 * MB)
        block = expandable._blocks_by_ptr[big.ptr]
        assert block.allocated and block.size >= 44 * MB
        assert expandable.mapped_bytes("large") == 64 * MB
        assert expandable.active_bytes <= expandable.reserved_bytes
        assert expandable.reserved_bytes == device.used_memory == 64 * MB
        expandable.check_invariants()
        expandable.free_run([keep, big])
        expandable.empty_cache()
        assert device.used_memory == 0

    def test_serving_under_pressure_never_over_commits(self):
        """Regression, API level: the 3 GB serve run that reported
        ``util 1.173`` (3.74 GB of live tensors on 3.19 GB reserved)."""
        from repro.api import run

        (result,) = run({
            "mode": "serve", "allocators": ["expandable"],
            "capacity": "3GB",
            "serving": {"model": "opt-1.3b", "rate_per_s": 12.0,
                        "n_requests": 300, "scheduler": "fcfs",
                        "max_batch": 32, "queue_timeout_s": 30.0,
                        "seed": 1}})
        assert result.utilization_ratio <= 1.0
        assert result.peak_active_bytes <= 3 * GB
        assert result.peak_reserved_bytes <= 3 * GB
        assert result.extras()["preemptions"] == 381

    def test_oom_raises_when_pinned(self, expandable):
        expandable.malloc(600 * MB)
        with pytest.raises(OutOfMemoryError):
            expandable.malloc(600 * MB)

    def test_usable_after_oom(self, expandable):
        keeper = expandable.malloc(600 * MB)
        with pytest.raises(OutOfMemoryError):
            expandable.malloc(600 * MB)
        expandable.free(keeper)
        assert expandable.malloc(500 * MB)


class TestIsTheCachingAllocator:
    """``expandable`` is the caching allocator's block list over two
    growable arenas: what differs is growth, trim and the split floor."""

    def test_structure(self, expandable):
        assert isinstance(expandable, CachingAllocator)
        assert expandable.name == "expandable"
        assert expandable.segment_count == 2
        own = set(vars(ExpandableSegmentsAllocator))
        assert not own & {"_malloc_impl", "_free_impl", "malloc_run",
                          "free_run", "_carve", "_split", "_free_block",
                          "check_invariants", "_alloc_new_segment"}

    def test_split_floor_is_512_bytes_in_both_pools(self, expandable):
        """A 1 MB remainder is stranded by ``caching``'s large pool
        (split only above 1 MB) and kept by ``expandable``."""
        assert not caching.should_split(5 * MB, 4 * MB, "large")
        first = expandable.malloc(5 * MB)
        expandable.free(first)
        again = expandable.malloc(4 * MB)
        assert expandable._blocks_by_ptr[again.ptr].size == 4 * MB
        assert expandable.cached_bytes() == 2 * MB  # 6 MB mapped

    def test_batched_runs_equal_the_loop(self):
        """The inherited exact ``malloc_run`` / ``free_run``."""
        from repro.allocators.base import BaseAllocator

        def drive(malloc_run, free_run):
            allocator = ExpandableSegmentsAllocator(
                GpuDevice(capacity=64 * MB))
            a = malloc_run(allocator, 3 * MB, 9)
            b = malloc_run(allocator, 300 * KB, 7)
            free_run(allocator, a[1:6] + b[2:5])
            c = malloc_run(allocator, 5 * MB, 20)  # runs into OOM
            free_run(allocator, c[::2])
            return (allocator.device.clock.now_us, allocator.stats(),
                    [x.ptr for x in a + b + c], allocator.cached_bytes())

        batched = drive(ExpandableSegmentsAllocator.malloc_run,
                        ExpandableSegmentsAllocator.free_run)
        assert batched == drive(BaseAllocator.malloc_run,
                                BaseAllocator.free_run)


class TestInvariantsAndProperties:
    def test_invariants_after_mixed_ops(self, expandable):
        import random
        rng = random.Random(3)
        live = []
        for _ in range(200):
            if live and rng.random() < 0.5:
                expandable.free(live.pop(rng.randrange(len(live))))
            else:
                size = rng.choice([64 * KB, 3 * MB, 12 * MB, 40 * MB])
                try:
                    live.append(expandable.malloc(size))
                except OutOfMemoryError:
                    pass
        expandable.check_invariants()
        for alloc in live:
            expandable.free(alloc)
        expandable.check_invariants()
        assert expandable.active_bytes == 0

    @settings(max_examples=30)
    @given(st.lists(st.tuples(st.booleans(),
                              st.integers(1, 64 * MB),
                              st.integers(0, 1000)), max_size=50))
    def test_property_reserved_covers_active(self, steps):
        allocator = ExpandableSegmentsAllocator(GpuDevice(capacity=2 * GB))
        live = []
        for is_alloc, size, index in steps:
            if is_alloc or not live:
                try:
                    live.append(allocator.malloc(size))
                except OutOfMemoryError:
                    continue
            else:
                allocator.free(live.pop(index % len(live)))
        allocator.check_invariants()
        assert allocator.reserved_bytes >= allocator.active_bytes
        for alloc in live:
            allocator.free(alloc)
        allocator.empty_cache()
        assert allocator.device.used_memory == 0


class TestOrderingVsOtherAllocators:
    def test_fragmentation_ordering_on_interleaved_frees(self):
        """caching <= expandable <= gmlake by utilization on the
        paper's hole-stranding pattern."""
        from repro.allocators import CachingAllocator
        from repro.core import GMLakeAllocator

        def stress(allocator):
            allocs = [allocator.malloc(40 * MB) for _ in range(8)]
            for alloc in allocs[::2]:
                allocator.free(alloc)
            allocator.malloc(80 * MB)
            return allocator.stats().utilization_ratio

        caching = stress(CachingAllocator(GpuDevice(capacity=2 * GB)))
        expandable = stress(
            ExpandableSegmentsAllocator(GpuDevice(capacity=2 * GB)))
        gmlake = stress(GMLakeAllocator(GpuDevice(capacity=2 * GB)))
        assert caching <= expandable + 1e-9
        assert expandable <= gmlake + 1e-9
        assert gmlake > 0.99
