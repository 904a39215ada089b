"""Behavioral tests for the BFC caching allocator."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import LoopCaching, Watched
from repro.allocators import CachingAllocator, ExpandableSegmentsAllocator
from repro.allocators.caching import (
    LARGE_BUFFER,
    MIN_BLOCK_SIZE,
    MIN_LARGE_ALLOC,
    ROUND_LARGE,
    SMALL_BUFFER,
    SMALL_SIZE,
    pool_for,
    round_size,
    segment_size_for,
)
from repro.errors import AllocatorError, DoubleFreeError, OutOfMemoryError
from repro.gpu.device import GpuDevice
from repro.units import GB, KB, MB


@pytest.fixture
def device():
    return GpuDevice(capacity=1 * GB)


@pytest.fixture
def caching(device):
    return CachingAllocator(device)


class TestRoundingPolicy:
    def test_round_size_minimum(self):
        assert round_size(1) == MIN_BLOCK_SIZE

    def test_round_size_multiple_of_512(self):
        assert round_size(513) == 1024

    def test_pool_small_boundary(self):
        assert pool_for(SMALL_SIZE) == "small"
        assert pool_for(SMALL_SIZE + 512) == "large"

    def test_segment_for_small_request(self):
        assert segment_size_for(100 * KB) == SMALL_BUFFER

    def test_segment_for_mid_request(self):
        assert segment_size_for(5 * MB) == LARGE_BUFFER

    def test_segment_for_huge_request_rounds_to_2mb(self):
        assert segment_size_for(MIN_LARGE_ALLOC + 1) == MIN_LARGE_ALLOC + ROUND_LARGE

    def test_should_split_small_pool(self, caching):
        # 1 MB of a fresh 2 MB small segment leaves a usable 1 MB.
        caching.malloc(1 * MB)
        assert [b.size for b in caching._free_pools["small"]] == [1 * MB]
        # A remainder of 512 B is still kept: the small pool's floor.
        caching.malloc(1 * MB - MIN_BLOCK_SIZE)
        assert [b.size for b in caching._free_pools["small"]] == [MIN_BLOCK_SIZE]
        # An exact fit leaves nothing to split off.
        caching.malloc(MIN_BLOCK_SIZE)
        assert caching.free_block_count("small") == 0
        assert caching.segment_count == 1

    def test_should_split_large_pool(self, caching):
        # 5 MB of a fresh 20 MB segment leaves a usable 15 MB.
        caching.malloc(5 * MB)
        assert [b.size for b in caching._free_pools["large"]] == [15 * MB]
        caching.malloc(9 * MB)
        assert [b.size for b in caching._free_pools["large"]] == [6 * MB]
        # 6 MB - 5 MB = 1 MB is not above SMALL_SIZE: the 5 MB request
        # takes the whole 6 MB block.
        alloc = caching.malloc(5 * MB)
        assert caching.free_block_count("large") == 0
        assert caching._blocks_by_ptr[alloc.ptr].size == 5 * MB + SMALL_SIZE


class TestCachingBehavior:
    def test_free_does_not_return_memory_to_device(self, caching, device):
        alloc = caching.malloc(50 * MB)
        reserved = caching.reserved_bytes
        caching.free(alloc)
        assert caching.reserved_bytes == reserved
        assert device.used_memory == reserved

    def test_cache_hit_avoids_driver(self, caching, device):
        alloc = caching.malloc(50 * MB)
        caching.free(alloc)
        calls_before = device.runtime.counters.malloc_calls
        caching.malloc(50 * MB)
        assert device.runtime.counters.malloc_calls == calls_before

    def test_small_requests_share_a_segment(self, caching):
        for _ in range(4):
            caching.malloc(100 * KB)
        assert caching.segment_count == 1
        assert caching.reserved_bytes == SMALL_BUFFER

    def test_mid_requests_get_20mb_segment(self, caching):
        caching.malloc(2 * MB)
        assert caching.reserved_bytes == LARGE_BUFFER

    def test_split_leaves_remainder_in_pool(self, caching):
        alloc = caching.malloc(50 * MB)
        caching.free(alloc)
        caching.malloc(30 * MB)  # best-fits into the 50 MB block, splits
        assert caching.segment_count == 1
        assert caching.free_block_count("large") == 1
        assert caching.cached_bytes() == 20 * MB

    def test_best_fit_prefers_smallest_sufficient(self, caching):
        a = caching.malloc(30 * MB)
        b = caching.malloc(60 * MB)
        caching.free(a)
        caching.free(b)
        caching.malloc(25 * MB)  # must come from the 30 MB block
        blocks = sorted(block.size for pool in ("large",)
                        for block in caching._free_pools[pool])
        assert 60 * MB in blocks

    def test_coalesce_neighbours_on_free(self, caching):
        whole = caching.malloc(60 * MB)
        caching.free(whole)
        a = caching.malloc(20 * MB)
        b = caching.malloc(20 * MB)
        c = caching.malloc(20 * MB)
        for alloc in (a, b, c):
            caching.free(alloc)
        # All three re-merge into one 60 MB whole-segment block.
        assert caching.free_block_count("large") == 1
        assert list(caching._free_pools["large"])[-1].size == 60 * MB

    def test_coalesce_only_within_segment(self, caching):
        a = caching.malloc(30 * MB)
        b = caching.malloc(30 * MB)
        caching.free(a)
        caching.free(b)
        # Two separate segments: blocks cannot merge across them.
        assert caching.free_block_count("large") == 2

    def test_empty_cache_releases_whole_segments(self, caching, device):
        alloc = caching.malloc(50 * MB)
        caching.free(alloc)
        caching.empty_cache()
        assert caching.reserved_bytes == 0
        assert device.used_memory == 0

    def test_empty_cache_keeps_partial_segments(self, caching):
        keep = caching.malloc(30 * MB)
        free_me = caching.malloc(60 * MB)
        caching.free(free_me)
        caching.empty_cache()
        assert caching.reserved_bytes == pytest.approx(30 * MB, abs=ROUND_LARGE)
        caching.free(keep)

    def test_fragmentation_emerges_from_interleaving(self, caching):
        """Freeing every other block strands holes that cannot serve a
        larger request — the paper's Figure 1 scenario."""
        allocs = [caching.malloc(40 * MB) for _ in range(8)]
        for alloc in allocs[::2]:
            caching.free(alloc)
        # 160 MB free in 40 MB holes, but an 80 MB request needs new memory.
        reserved_before = caching.reserved_bytes
        caching.malloc(80 * MB)
        assert caching.reserved_bytes > reserved_before

    def test_oom_releases_cache_then_retries(self, caching, device):
        big = caching.malloc(600 * MB)
        caching.free(big)
        # 600 MB cached; a 700 MB request OOMs the device first, then the
        # allocator frees the cached segment and retries successfully.
        alloc = caching.malloc(700 * MB)
        assert alloc.size == 700 * MB

    def test_oom_raises_when_reclaim_insufficient(self, caching):
        caching.malloc(600 * MB)  # still active, cannot be reclaimed
        with pytest.raises(OutOfMemoryError):
            caching.malloc(600 * MB)

    def test_rounded_size_accounting(self, caching):
        alloc = caching.malloc(1000)
        assert alloc.rounded_size == 1024
        assert caching.active_bytes == 1024

    def test_invariants_after_mixed_workload(self, caching):
        import random
        rng = random.Random(7)
        live = []
        for step in range(300):
            if live and rng.random() < 0.45:
                caching.free(live.pop(rng.randrange(len(live))))
            else:
                size = rng.choice([64 * KB, 700 * KB, 3 * MB, 24 * MB, 50 * MB])
                live.append(caching.malloc(size))
            if step % 50 == 0:
                caching.check_invariants()
        for alloc in live:
            caching.free(alloc)
        caching.check_invariants()
        assert caching.active_bytes == 0

    def test_reserved_peak_recorded(self, caching):
        alloc = caching.malloc(100 * MB)
        caching.free(alloc)
        caching.empty_cache()
        assert caching.reserved_bytes == 0
        assert caching.peak_reserved_bytes >= 100 * MB


# ----------------------------------------------------------------------
# malloc_run / free_run / malloc_free: the overrides against the
# defining loops
# ----------------------------------------------------------------------
def chain(allocator, segment):
    """The blocks linked from ``segment``'s start, in address order."""
    blocks = []
    block = allocator._blocks_by_ptr.get(segment.ptr)
    while block is not None:
        blocks.append((block.ptr, block.size, block.allocated))
        block = block.next
    return blocks


def snapshot(allocator):
    """Everything the two allocators must agree on, compared by ``==``
    (the clock and the host-time sum are floats: no tolerance)."""
    runtime = allocator.device.runtime.counters
    return {
        "now_us": allocator.device.clock.now_us,
        "stats": allocator.stats(),
        "device": (allocator.device.used_memory, runtime.malloc_calls,
                   runtime.free_calls, runtime.total_time_us),
        "live": dict(allocator._live),
        "next_id": allocator._next_id,
        "segments": sorted((s.ptr, s.size, s.pool, chain(allocator, s))
                           for s in allocator._segments.values()),
        "blocks": sorted((b.ptr, b.size, b.allocated)
                         for b in allocator._blocks_by_ptr.values()),
        "pools": {name: [(b.size, b.ptr) for b in pool]
                  for name, pool in allocator._free_pools.items()},
        "whole_free": {name: sorted(index)
                       for name, index in allocator._whole_free.items()},
        "cached_bytes": allocator.cached_bytes(),
    }


class Twins:
    """A batched allocator and its loop oracle on twin devices; every
    operation goes to both and the states must match afterwards."""

    def __init__(self, capacity, observed=False, batched=CachingAllocator):
        self.batched = batched(GpuDevice(capacity=capacity))
        self.oracle = LoopCaching(GpuDevice(capacity=capacity))
        self.watchers = None
        if observed:
            self.watchers = [Watched(a) for a in (self.batched, self.oracle)]
        self.live = []  # allocations, equal on both sides

    def check(self):
        assert snapshot(self.batched) == snapshot(self.oracle)
        self.batched.check_invariants()
        if self.watchers is not None:
            assert self.watchers[0].seen() == self.watchers[1].seen()

    def both(self, op):
        results = []
        for allocator in (self.batched, self.oracle):
            try:
                results.append(("ok", op(allocator)))
            except AllocatorError as exc:
                results.append((type(exc).__name__, str(exc)))
        assert results[0] == results[1]
        self.check()
        return results[0]

    def malloc_run(self, size, n):
        kind, run = self.both(lambda a: a.malloc_run(size, n))
        assert kind == "ok" and len(run) <= max(n, 0)
        self.live.extend(run)
        return run

    def malloc(self, size):
        kind, alloc = self.both(lambda a: a.malloc(size))
        if kind == "ok":
            self.live.append(alloc)
        return kind

    def malloc_free(self, size):
        """The kind of outcome, and whether the batched side took its
        shortcut (it never entered ``_carve``)."""
        carve, carves = self.batched._carve, []
        self.batched._carve = lambda *args: carves.append(args) or carve(*args)
        try:
            kind, _rounded = self.both(lambda a: a.malloc_free(size))
        finally:
            del self.batched._carve
        return kind, not carves

    def free_run(self, allocations):
        allocations = list(allocations)
        for alloc in allocations:
            if alloc in self.live:
                self.live.remove(alloc)
        return self.both(lambda a: a.free_run(allocations))[0]

    def free(self, allocation):
        return self.free_run([allocation])

    def empty_cache(self):
        self.both(lambda a: a.empty_cache())


KV_BLOCK = 3 * MB  # fleet_shared's block: six per 20 MB segment + 2 MB tail


class TestRunsMatchTheLoop:
    def test_run_carves_a_segment_and_pools_only_the_tail(self):
        twins = Twins(64 * MB)
        run = twins.malloc_run(KV_BLOCK, 6)
        assert [a.ptr - run[0].ptr for a in run] == [
            i * KV_BLOCK for i in range(6)]
        # 20 MB = 6 x 3 MB + a 2 MB tail no block fits: pooled, not carved.
        assert twins.batched.free_block_count("large") == 1
        assert twins.batched.cached_bytes() == 2 * MB

    @pytest.mark.parametrize("n", [0, 1])
    def test_degenerate_lengths(self, n):
        twins = Twins(64 * MB)
        assert len(twins.malloc_run(KV_BLOCK, n)) == n
        twins.free_run(twins.live[:])
        assert twins.batched.active_bytes == 0

    def test_non_positive_size_is_rejected_like_malloc(self):
        allocator = CachingAllocator(GpuDevice(capacity=64 * MB))
        with pytest.raises(AllocatorError):
            allocator.malloc_run(0, 3)
        assert allocator.malloc_run(0, 0) == []

    def test_oom_mid_run_returns_the_blocks_before_it(self):
        twins = Twins(44 * MB)
        run = twins.malloc_run(KV_BLOCK, 20)
        assert len(run) == 12  # two 20 MB segments; the third cannot map
        assert twins.batched.stats().malloc_count == 12

    def test_oom_mid_run_release_and_retry_succeeds(self):
        twins = Twins(50 * MB)
        # Six wholly-free small segments are cached: 12 MB the large
        # pool cannot use until they are released.
        twins.free_run(twins.malloc_run(1 * MB, 12))
        assert twins.batched.reserved_bytes == 12 * MB
        run = twins.malloc_run(KV_BLOCK, 12)
        assert len(run) == 12
        assert twins.batched.reserved_bytes == 40 * MB  # small ones gone

    def test_oom_mid_run_release_and_retry_fails(self):
        twins = Twins(42 * MB)
        twins.free(twins.malloc_run(1 * KB, 1)[0])  # one cached small segment
        held = twins.malloc_run(12 * MB, 1)
        run = twins.malloc_run(KV_BLOCK, 8)
        # The retry released the small segment and still could not map.
        assert len(run) == 6 and twins.batched.reserved_bytes == 32 * MB
        twins.free_run(run + held)

    def test_small_pool_split_rule(self):
        twins = Twins(64 * MB)
        # 2 MB = 3 x 698,880 B + 512 B: the third carve still splits
        # (remainder >= 512 B) and pools a block no request of the run
        # fits; the fourth needs a new segment.
        twins.malloc_run(698_880, 4)
        assert twins.batched.segment_count == 2
        assert (512, 698_880 * 3) in [
            (b.size, b.ptr - b.segment.ptr)
            for b in twins.batched._free_pools["small"]]
        # 2 MB = 2 x 1 MB exactly: the second carve leaves nothing to
        # split off.
        twins = Twins(64 * MB)
        twins.malloc_run(SMALL_SIZE, 3)
        assert twins.batched.segment_count == 2
        assert twins.batched.cached_bytes() == SMALL_SIZE

    def test_large_pool_no_split_tail(self):
        twins = Twins(128 * MB)
        # 20 MB - 9.5 MB = 10.5 MB remainder (carried); 10.5 - 9.5 = 1 MB
        # is not > 1 MB, so the second block takes the whole 10.5 MB.
        size = 9 * MB + 512 * KB
        run = twins.malloc_run(size, 3)
        assert twins.batched.segment_count == 2
        blocks = twins.batched._blocks_by_ptr
        assert blocks[run[1].ptr].size == 10 * MB + 512 * KB
        # 11 MB takes a dedicated 12 MB segment whole.
        twins.malloc_run(11 * MB, 2)

    @pytest.mark.parametrize("order", ["table", "reverse", "alternate"])
    def test_free_order(self, order):
        twins = Twins(128 * MB)
        run = twins.malloc_run(KV_BLOCK, 14)
        keep = twins.malloc_run(KV_BLOCK, 2)
        if order == "reverse":
            run.reverse()
        elif order == "alternate":
            run = run[::2] + run[1::2]
        twins.free_run(run)
        assert twins.batched.live_allocation_count == 2
        twins.free_run(keep)
        twins.empty_cache()
        assert twins.batched.reserved_bytes == 0

    def test_free_run_across_pools_and_segments(self):
        twins = Twins(128 * MB)
        small = twins.malloc_run(100 * KB, 5)
        large = twins.malloc_run(KV_BLOCK, 8)
        mixed = [x for pair in zip(small, large) for x in pair] + large[5:]
        twins.free_run(mixed)
        assert twins.batched.active_bytes == 0

    def test_double_free_inside_a_run(self):
        twins = Twins(64 * MB)
        run = twins.malloc_run(KV_BLOCK, 6)
        kind = twins.free_run([run[0], run[1], run[0], run[2]])
        assert kind == "DoubleFreeError"
        # The two frees before the bad one happened, the one after did
        # not; `Twins.both` has already checked pools and invariants.
        assert twins.batched.live_allocation_count == 4
        assert twins.batched.stats().free_count == 2
        assert twins.free_run(run[2:]) == "ok"

    def test_observers_see_the_loop(self):
        twins = Twins(44 * MB, observed=True)
        run = twins.malloc_run(KV_BLOCK, 20)  # ends in an on_oom
        twins.free_run(reversed(run))
        twins.empty_cache()
        # alloc x 12, oom, free x 12, empty_cache
        assert len(twins.watchers[0].timeline.points) == 26


class TestTransientMatchesThePair:
    """``malloc_free`` against ``free(malloc())`` on the loop oracle."""

    def test_hit_that_splits(self):
        twins = Twins(64 * MB)
        twins.malloc(100 * KB)  # the rest of its 2 MB segment is cached
        before = snapshot(twins.batched)
        assert twins.malloc_free(64 * KB) == ("ok", True)
        after = snapshot(twins.batched)
        assert after["stats"].malloc_count == before["stats"].malloc_count + 1
        assert after["stats"].peak_active_bytes == 164 * KB
        for same in ("segments", "blocks", "pools", "whole_free", "live"):
            assert after[same] == before[same]

    def test_hit_handed_out_whole_small_pool(self):
        twins = Twins(64 * MB)
        twins.malloc(100 * KB)
        twins.malloc(100 * KB)
        twins.free(twins.live[0])  # a 100 KB hole, its neighbour live
        # 102,400 - 101,888 = 512 B splits; 102,400 - 102,000 rounds to
        # nothing: the hole goes out whole.
        assert twins.malloc_free(100 * KB - 512) == ("ok", True)
        assert twins.malloc_free(102_000) == ("ok", True)
        assert twins.malloc_free(100 * KB) == ("ok", True)

    def test_hit_handed_out_whole_large_pool_no_split_tail(self):
        twins = Twins(128 * MB)
        size = 9 * MB + 512 * KB
        twins.malloc(size)  # leaves 10.5 MB; 10.5 - 9.5 = 1 MB does not split
        assert twins.malloc_free(size) == ("ok", True)
        assert twins.malloc_free(size - 512) == ("ok", True)  # 1 MB + 512: splits

    @pytest.mark.parametrize("size", [1 * KB, KV_BLOCK, 12 * MB])
    def test_whole_segment_block(self, size):
        twins = Twins(64 * MB)
        twins.malloc(size)
        twins.free(twins.live[0])
        (index,) = [i for i in twins.batched._whole_free.values() if i]
        assert twins.malloc_free(size) == ("ok", True)
        # Split or (12 MB: a dedicated segment) handed out whole, the
        # block is still the one `empty_cache` will give back.
        assert [i for i in twins.batched._whole_free.values() if i] == [index]
        twins.empty_cache()
        assert twins.batched.reserved_bytes == 0

    def test_miss_that_maps_a_segment(self):
        twins = Twins(64 * MB)
        assert twins.malloc_free(100 * KB) == ("ok", False)
        assert twins.batched.reserved_bytes == SMALL_BUFFER
        twins.malloc(100 * KB)
        # The small pool's cache does not serve the large pool.
        assert twins.malloc_free(KV_BLOCK) == ("ok", False)
        assert twins.malloc_free(KV_BLOCK) == ("ok", True)

    @pytest.mark.parametrize("observed", [False, True])
    def test_miss_that_ooms_then_succeeds_after_release(self, observed):
        twins = Twins(30 * MB, observed=observed)
        twins.free_run(twins.malloc_run(1 * MB, 12))  # 12 MB cached, small
        assert twins.malloc_free(KV_BLOCK) == ("ok", False)
        assert twins.batched.reserved_bytes == LARGE_BUFFER
        assert twins.batched.peak_reserved_bytes == LARGE_BUFFER

    @pytest.mark.parametrize("observed", [False, True])
    def test_miss_that_ooms_after_release_and_retry(self, observed):
        twins = Twins(30 * MB, observed=observed)
        twins.free(twins.malloc_run(1 * KB, 1)[0])  # one cached small segment
        twins.malloc(12 * MB)
        before = twins.batched.stats()
        kind, fast = twins.malloc_free(KV_BLOCK)
        assert (kind, fast) == ("OutOfMemoryError", False)
        after = twins.batched.stats()
        # The retry released the small segment; nothing was issued.
        assert twins.batched.reserved_bytes == 12 * MB
        assert (after.malloc_count, after.free_count, after.active_bytes) == (
            before.malloc_count, before.free_count, 12 * MB)
        assert twins.batched.live_allocation_count == 1
        if observed:  # malloc, free, malloc, then the on_oom sample
            assert len(twins.watchers[0].timeline.points) == 4

    def test_observed_allocator_takes_the_shortcut(self):
        # `Twins.check` compares what the observers on each side saw.
        twins = Twins(64 * MB, observed=True)
        twins.malloc(100 * KB)
        assert twins.malloc_free(64 * KB) == ("ok", True)
        alloc, free = twins.watchers[0].timeline.points[-2:]
        # on_alloc sees the workspace live, one cached op before on_free.
        assert (alloc.active_bytes, free.active_bytes) == (164 * KB, 100 * KB)
        assert alloc.time_s < free.time_s
        assert len(twins.watchers[0].trace.events) == 3

    @pytest.mark.parametrize("size", [0, -4096])
    def test_non_positive_size_is_rejected_like_malloc(self, size):
        twins = Twins(64 * MB)
        twins.malloc(100 * KB)
        assert twins.malloc_free(size)[0] == "AllocatorError"

    def test_a_skipped_peak_ratchet_is_caught(self):
        """The corruption the shortcut could cause, seeded."""
        class Forgetful(CachingAllocator):
            def _count_pairs(self, n, held):
                peak = self.peak_active_bytes
                super()._count_pairs(n, held)
                self.peak_active_bytes = peak

        twins = Twins(64 * MB, batched=Forgetful)
        twins.malloc(100 * KB)
        with pytest.raises(AssertionError):
            twins.malloc_free(64 * KB)
        # Below the peak the ratchet does not move: nothing to catch.
        twins = Twins(64 * MB, batched=Forgetful)
        twins.malloc_run(100 * KB, 2)
        twins.free(twins.live[1])
        assert twins.malloc_free(64 * KB) == ("ok", True)


RUN_SIZES = st.sampled_from([
    512, 100 * KB, 698_880, SMALL_SIZE - 512, SMALL_SIZE,    # small pool
    SMALL_SIZE + 512, KV_BLOCK, 5 * MB, 9 * MB + 512 * KB,   # 20 MB segments
    11 * MB, 12 * MB,                                        # dedicated
])
RUN_STEP = st.one_of(
    st.tuples(st.just("malloc_run"), RUN_SIZES, st.integers(0, 24)),
    st.tuples(st.just("malloc"), RUN_SIZES, st.just(0)),
    st.tuples(st.just("malloc_free"), RUN_SIZES, st.just(0)),
    st.tuples(st.just("free_run"), st.integers(0, 10 ** 6),
              st.integers(0, 24)),
    st.tuples(st.just("free_run_reversed"), st.integers(0, 10 ** 6),
              st.integers(0, 24)),
    st.tuples(st.just("free_scattered"), st.integers(0, 10 ** 6),
              st.integers(1, 5)),
    st.tuples(st.just("empty_cache"), st.just(0), st.just(0)),
)


class TestRunsMatchTheLoopFuzz:
    """Random interleavings of runs, single operations and
    ``empty_cache`` at a capacity tight enough that runs end in OOM,
    with and without release-and-retry helping."""

    @given(steps=st.lists(RUN_STEP, min_size=4, max_size=60),
           capacity_mb=st.sampled_from([24, 44, 70]),
           observed=st.booleans())
    def test_same_state_after_every_step(self, steps, capacity_mb, observed):
        twins = Twins(capacity_mb * MB, observed=observed)
        for op, a, b in steps:
            live = twins.live
            if op == "malloc_run":
                twins.malloc_run(a, b)
            elif op == "malloc":
                twins.malloc(a)
            elif op == "malloc_free":
                twins.malloc_free(a)
            elif op == "empty_cache":
                twins.empty_cache()
            elif live:
                start = a % len(live)
                if op == "free_scattered":
                    chosen = live[start::b]
                else:
                    chosen = live[start:start + b]
                    if op == "free_run_reversed":
                        chosen.reverse()
                twins.free_run(chosen)
        twins.free_run(twins.live[:])
        twins.empty_cache()
        assert twins.batched.reserved_bytes == 0


class TestWholeFreeIndex:
    """``check_invariants`` re-derives the index of wholly-free pooled
    blocks from the block table; each way it can rot is caught."""

    def _one_whole_one_partial(self, caching):
        whole = caching.malloc(50 * MB)
        partial = caching.malloc(KV_BLOCK)
        caching.free(whole)
        caching.check_invariants()
        return partial

    def test_index_holds_exactly_the_wholly_free_blocks(self, caching):
        self._one_whole_one_partial(caching)
        (block,) = caching._whole_free["large"].values()
        assert block.is_whole_segment() and block.size == 50 * MB
        caching.empty_cache()
        assert caching._whole_free == {"small": {}, "large": {}}
        caching.check_invariants()

    def test_segments_are_released_in_pool_walk_order(self, caching, device,
                                                      monkeypatch):
        # cudaFree order is behaviour (clock, device free lists): it
        # must be the order a walk over the pools meets the segments.
        sizes = [30 * MB, 12 * MB, 50 * MB, 12 * MB, 100 * KB, 22 * MB]
        caching.free_run([caching.malloc(size) for size in sizes])
        walk = [block.segment.ptr
                for pool in caching._free_pools.values()
                for block in pool if block.is_whole_segment()]
        assert len(walk) == len(sizes)
        freed = []
        cuda_free = device.runtime.cuda_free
        monkeypatch.setattr(device.runtime, "cuda_free",
                            lambda ptr: (freed.append(ptr), cuda_free(ptr)))
        caching.empty_cache()
        assert freed == walk

    def test_missing_entry_is_caught(self, caching):
        self._one_whole_one_partial(caching)
        caching._whole_free["large"].clear()
        with pytest.raises(AssertionError, match="whole-free index"):
            caching.check_invariants()

    def test_stale_entry_is_caught(self, caching):
        partial = self._one_whole_one_partial(caching)
        # The 17 MB remainder beside the live 3 MB block is pooled but
        # does not span its segment.
        remainder = caching._blocks_by_ptr[partial.ptr].next
        caching._whole_free["large"][remainder.ptr] = remainder
        with pytest.raises(AssertionError, match="whole-free index"):
            caching.check_invariants()


class TestBlockInvariants:
    """``check_invariants`` ties every live allocation to the block
    that backs it and walks each segment's block list from its start
    to ``Segment.last``; each way those can rot is caught."""

    def _block(self, caching):
        caching.malloc(3 * MB)
        live = caching.malloc(5 * MB)
        caching.check_invariants()
        return caching._blocks_by_ptr[live.ptr]

    def test_block_shorter_than_its_allocation_is_caught(self, caching):
        # What an allocator that gives away memory it does not have
        # looks like from the inside.
        self._block(caching).size -= MIN_BLOCK_SIZE
        with pytest.raises(AssertionError, match="not held by an allocated"):
            caching.check_invariants()

    def test_live_allocation_in_a_free_block_is_caught(self, caching):
        self._block(caching).allocated = False
        with pytest.raises(AssertionError, match="not held by an allocated"):
            caching.check_invariants()

    def test_stale_last_block_is_caught(self, caching):
        segment = self._block(caching).segment
        segment.last = segment.last.prev
        with pytest.raises(AssertionError, match="stale last block"):
            caching.check_invariants()

    def test_broken_back_link_is_caught(self, caching):
        self._block(caching).prev = None
        with pytest.raises(AssertionError, match="broken prev link"):
            caching.check_invariants()


# ----------------------------------------------------------------------
# refuse_run: a doomed run in closed form, against its defining sequence
# ----------------------------------------------------------------------
def refused_sequence(allocator, size, n, retries):
    """What ``refuse_run`` stands for: ``malloc_run`` stopping short,
    ``retries`` rounds of ``empty_cache`` and a failing ``malloc``, the
    run freed newest first.  Returns the run's length."""
    run = allocator.malloc_run(size, n)
    assert len(run) < n
    for _ in range(retries):
        allocator.empty_cache()
        with pytest.raises(OutOfMemoryError):
            allocator.malloc(size)
    allocator.free_run(reversed(run))
    return len(run)


STREAM_STEP = st.tuples(
    st.sampled_from(["malloc", "malloc_free", "free"]), RUN_SIZES,
    st.integers(0, 10 ** 6))


def play(allocator, steps):
    """Apply a drawn stream to ``allocator``; OOMs are part of it."""
    live = []
    for op, size, pick in steps:
        try:
            if op == "malloc":
                live.append(allocator.malloc(size))
            elif op == "malloc_free":
                allocator.malloc_free(size)
            elif live:
                allocator.free(live.pop(pick % len(live)))
        except OutOfMemoryError:
            pass


class TestRefusedRunIsTheSequence:
    """After a random stream on a tight device, ``refuse_run`` either
    leaves exactly the state its sequence leaves (run on the loop
    oracle) or returns ``None`` having touched nothing."""

    def test_refusal_releases_only_what_the_run_does_not_carve(self):
        # The 18 MB dedicated segment is whole and free, but the run
        # carves it (six 3 MB blocks, five more from the 17 MB
        # remainder); the small pool's whole 2 MB segment is spared
        # and released, and the malloc is retried.
        twins = Twins(44 * MB)
        twins.malloc(KV_BLOCK)
        for size in (100 * KB, 18 * MB):
            twins.malloc(size)
            twins.free(twins.live[-1])
        assert twins.batched.refuse_run(KV_BLOCK, 12, 1) == 11
        assert refused_sequence(twins.oracle, KV_BLOCK, 12, 1) == 11
        twins.check()
        assert twins.batched.segment_count == 2
        assert twins.batched.device.runtime.counters.malloc_calls == 6

    @pytest.mark.parametrize("capacity_mb,n,refused", [
        (24, 5, None),  # the 17 MB remainder serves five blocks
        (44, 6, None),  # the device still has a 20 MB segment
        (24, 6, 5),
    ])
    def test_only_a_run_that_cannot_finish_is_refused(self, capacity_mb, n,
                                                      refused):
        twins = Twins(capacity_mb * MB)
        twins.malloc(KV_BLOCK)
        before = snapshot(twins.batched)
        assert twins.batched.refuse_run(KV_BLOCK, n, 1) == refused
        if refused is None:
            assert snapshot(twins.batched) == before
        else:
            assert refused_sequence(twins.oracle, KV_BLOCK, n, 1) == refused
            twins.check()

    @given(steps=st.lists(STREAM_STEP, max_size=40),
           capacity_mb=st.sampled_from([24, 30, 44]),
           size=RUN_SIZES, n=st.integers(0, 40), retries=st.integers(0, 2),
           observed=st.sampled_from([False, False, False, True]))
    def test_answer_is_the_sequence_or_nothing(self, steps, capacity_mb,
                                               size, n, retries, observed):
        twins = Twins(capacity_mb * MB, observed=observed)
        for allocator in (twins.batched, twins.oracle):
            play(allocator, steps)
        twins.check()
        before = snapshot(twins.batched)
        k = twins.batched.refuse_run(size, n, retries)
        if k is None:
            assert snapshot(twins.batched) == before
        else:
            assert not observed
            assert refused_sequence(twins.oracle, size, n, retries) == k
        twins.check()

    @given(steps=st.lists(STREAM_STEP, max_size=30),
           size=RUN_SIZES, n=st.integers(1, 40), retries=st.integers(0, 2))
    def test_expandable_never_answers(self, steps, size, n, retries):
        allocator = ExpandableSegmentsAllocator(GpuDevice(capacity=24 * MB))
        play(allocator, steps)
        before = snapshot(allocator)
        assert allocator.refuse_run(size, n, retries) is None
        assert snapshot(allocator) == before
