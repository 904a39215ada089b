"""Behavioral tests for the GMLake allocator (strategy S1–S5)."""

import pytest

from repro.allocators.base import BaseAllocator
from repro.core import GMLakeAllocator, GMLakeConfig
from repro.core.bestfit import FitState
from repro.core.smallpool import SmallPool
from repro.errors import OutOfMemoryError
from repro.gpu.device import GpuDevice
from repro.sim.timeline import TimelineRecorder
from repro.units import GB, KB, MB


@pytest.fixture
def device():
    return GpuDevice(capacity=1 * GB)


@pytest.fixture
def gml(device):
    return GMLakeAllocator(device)


def hits(allocator, state):
    return allocator.counters.state_hits[state.value]


class TestBasicAllocation:
    def test_malloc_rounds_to_chunk(self, gml):
        alloc = gml.malloc(5 * MB)
        assert alloc.rounded_size == 6 * MB

    def test_first_alloc_is_s4(self, gml):
        gml.malloc(10 * MB)
        assert hits(gml, FitState.INSUFFICIENT_BLOCKS) == 1

    def test_free_keeps_physical_cached(self, gml, device):
        alloc = gml.malloc(10 * MB)
        gml.free(alloc)
        assert device.used_memory == 10 * MB
        assert gml.reserved_bytes == 10 * MB
        assert gml.active_bytes == 0

    def test_exact_match_reuses_block(self, gml, device):
        alloc = gml.malloc(10 * MB)
        gml.free(alloc)
        used = device.used_memory
        gml.malloc(10 * MB)
        assert device.used_memory == used
        assert hits(gml, FitState.EXACT_MATCH) == 1

    def test_s2_split_serves_smaller_request(self, gml, device):
        alloc = gml.malloc(10 * MB)
        gml.free(alloc)
        used = device.used_memory
        smaller = gml.malloc(4 * MB)
        assert device.used_memory == used  # no new physical memory
        assert hits(gml, FitState.SINGLE_BLOCK) == 1
        assert smaller.rounded_size == 4 * MB
        assert gml.counters.splits == 1

    def test_s3_stitches_fragments(self, gml, device):
        a = gml.malloc(6 * MB)
        b = gml.malloc(6 * MB)
        gml.free(a)
        gml.free(b)
        used = device.used_memory
        big = gml.malloc(12 * MB)
        assert device.used_memory == used
        assert hits(gml, FitState.MULTIPLE_BLOCKS) == 1
        assert gml.counters.stitches >= 1
        assert big.rounded_size == 12 * MB

    def test_s4_partial_stitch_with_new_block(self, gml, device):
        a = gml.malloc(6 * MB)
        gml.free(a)
        gml.malloc(10 * MB)  # 6 cached + 4 new
        assert device.used_memory == 10 * MB
        assert gml.counters.alloc_pblocks == 2  # first block + shortfall

    def test_figure1_scenario(self, gml, device):
        """Blocks 2 and 5 freed; block 6 fits via stitching (Figure 1)."""
        one = gml.malloc(100 * MB)
        two = gml.malloc(200 * MB)
        three = gml.malloc(300 * MB)
        gml.free(two)
        gml.free(one)
        used = device.used_memory
        six = gml.malloc(300 * MB)  # needs 2+5's combined space
        assert device.used_memory == used
        gml.free(three)
        gml.free(six)


class TestSmallPool:
    def test_small_requests_bypass_vmm(self, gml, device):
        gml.malloc(100 * KB)
        assert device.vmm.counters.create_calls == 0
        assert gml.reserved_bytes == 2 * MB  # one small segment

    def test_small_free_and_reuse(self, gml):
        alloc = gml.malloc(64 * KB)
        gml.free(alloc)
        gml.malloc(64 * KB)
        assert gml.reserved_bytes == 2 * MB

    def test_small_and_large_accounted_together(self, gml):
        gml.malloc(100 * KB)
        gml.malloc(10 * MB)
        assert gml.reserved_bytes == 12 * MB


class TestDeallocationModule:
    def test_update_marks_inactive_without_driver_calls(self, gml, device):
        alloc = gml.malloc(10 * MB)
        unmaps = device.vmm.counters.unmap_calls
        gml.free(alloc)
        assert device.vmm.counters.unmap_calls == unmaps

    def test_sblock_free_deactivates_members(self, gml):
        a = gml.malloc(6 * MB)
        b = gml.malloc(6 * MB)
        gml.free(a)
        gml.free(b)
        big = gml.malloc(12 * MB)  # stitched
        gml.free(big)
        assert all(not p.active for p in gml.ppool)

    def test_stitch_free_lru_eviction(self, device):
        config = GMLakeConfig(max_spool_blocks=1)
        gml = GMLakeAllocator(device, config)
        a = gml.malloc(6 * MB)
        b = gml.malloc(6 * MB)
        gml.free(a)
        gml.free(b)
        big = gml.malloc(12 * MB)  # creates sBlock #1
        gml.free(big)
        c = gml.malloc(4 * MB)
        d = gml.malloc(8 * MB)
        gml.free(c)
        gml.free(d)
        gml.malloc(12 * MB)  # creates sBlock #2 -> evicts LRU
        assert len(gml.spool) <= 1
        assert gml.counters.stitch_frees >= 1


class TestTightSpoolCap:
    def test_fresh_sblock_never_evicted_before_assignment(self, device):
        """Regression: with a tight sPool cap, the LRU must not evict
        the sBlock created for the in-flight allocation (that would hand
        the tensor a destroyed block and double-book its chunks)."""
        config = GMLakeConfig(max_spool_blocks=1)
        gml = GMLakeAllocator(device, config)
        live = []
        # Repeatedly force stitches of different sizes under cap 1.
        for step, size in enumerate([6, 6, 12, 4, 8, 12, 10, 22, 6, 28]):
            alloc = gml.malloc(size * MB)
            live.append(alloc)
            if step % 2 == 1:
                gml.free(live.pop(0))
            gml.check_invariants()
            assert gml.active_bytes <= gml.reserved_bytes
        for alloc in live:
            gml.free(alloc)
        gml.check_invariants()

    def test_cap_zero_does_not_livelock(self, device):
        gml = GMLakeAllocator(device, GMLakeConfig(max_spool_blocks=0))
        a = gml.malloc(6 * MB)
        b = gml.malloc(6 * MB)
        gml.free(a)
        gml.free(b)
        big = gml.malloc(12 * MB)  # stitch under cap 0: protected block
        assert big.rounded_size == 12 * MB
        gml.check_invariants()


class TestReclaimAndOom:
    def test_stitch_avoids_reclaim(self, gml, device):
        big = gml.malloc(600 * MB)
        gml.free(big)
        # 600 MB cached; a 700 MB request stitches cache + 100 MB of new
        # memory instead of releasing anything — cheaper than reclaim.
        alloc = gml.malloc(700 * MB)
        assert alloc.rounded_size == 700 * MB
        assert gml.counters.reclaims == 0
        assert device.used_memory == 700 * MB

    def test_reclaim_releases_inactive_blocks(self, device):
        # With stitching disabled the cached 600 MB block cannot help a
        # 700 MB request; the allocator must reclaim it and re-allocate.
        gml = GMLakeAllocator(device, GMLakeConfig(enable_stitch=False))
        big = gml.malloc(600 * MB)
        gml.free(big)
        alloc = gml.malloc(700 * MB)
        assert alloc.rounded_size == 700 * MB
        assert gml.counters.reclaims == 1
        assert device.used_memory == 700 * MB

    def test_oom_when_active_blocks_pin_memory(self, gml):
        gml.malloc(600 * MB)
        with pytest.raises(OutOfMemoryError):
            gml.malloc(600 * MB)
        assert hits(gml, FitState.OOM) == 1

    def test_oom_error_reports_numbers(self, gml):
        gml.malloc(600 * MB)
        with pytest.raises(OutOfMemoryError) as exc:
            gml.malloc(900 * MB)
        assert exc.value.capacity == 1 * GB
        assert exc.value.active == 600 * MB

    def test_empty_cache_releases_everything_inactive(self, gml, device):
        a = gml.malloc(100 * MB)
        b = gml.malloc(50 * MB)
        gml.free(a)
        gml.empty_cache()
        assert gml.reserved_bytes == 50 * MB + 0  # only b's block remains
        gml.free(b)
        gml.empty_cache()
        assert device.used_memory == 0

    def test_allocator_usable_after_oom(self, gml):
        keeper = gml.malloc(600 * MB)
        with pytest.raises(OutOfMemoryError):
            gml.malloc(600 * MB)
        gml.free(keeper)
        assert gml.malloc(600 * MB).rounded_size == 600 * MB


class TestStitchingSemantics:
    def test_sblock_exact_reuse(self, gml):
        a = gml.malloc(6 * MB)
        b = gml.malloc(6 * MB)
        gml.free(a)
        gml.free(b)
        big = gml.malloc(12 * MB)
        gml.free(big)
        before = gml.counters.stitches
        gml.malloc(12 * MB)  # the stitched sBlock serves again
        assert gml.counters.stitches == before
        assert hits(gml, FitState.EXACT_MATCH) >= 1

    def test_owned_sblock_members_are_protected(self, gml):
        a = gml.malloc(6 * MB)
        b = gml.malloc(6 * MB)
        gml.free(a)
        gml.free(b)
        big = gml.malloc(12 * MB)  # sBlock over both pBlocks
        # While `big` is live its member chunks must not be reassigned:
        other = gml.malloc(6 * MB)
        assert other.ptr != a.ptr and other.ptr != b.ptr
        gml.check_invariants()

    def test_split_preserves_referencing_sblocks(self, gml):
        a = gml.malloc(6 * MB)
        b = gml.malloc(10 * MB)
        gml.free(a)
        gml.free(b)
        big = gml.malloc(16 * MB)  # sBlock(a', b')
        gml.free(big)
        spool_size = len(gml.spool)
        gml.malloc(4 * MB)  # splits one member
        assert len(gml.spool) >= spool_size  # nothing destroyed
        gml.check_invariants()

    def test_stitch_disabled_ablation(self, device):
        config = GMLakeConfig(enable_stitch=False)
        gml = GMLakeAllocator(device, config)
        a = gml.malloc(6 * MB)
        b = gml.malloc(6 * MB)
        gml.free(a)
        gml.free(b)
        gml.malloc(12 * MB)
        assert gml.counters.stitches == 0
        assert gml.reserved_bytes == 24 * MB  # had to allocate fresh

    def test_invariants_hold_through_random_workload(self, gml):
        import random
        rng = random.Random(11)
        live = []
        for step in range(250):
            if live and rng.random() < 0.5:
                gml.free(live.pop(rng.randrange(len(live))))
            else:
                size = rng.choice(
                    [512 * KB, 2 * MB, 5 * MB, 12 * MB, 30 * MB, 64 * MB]
                )
                try:
                    live.append(gml.malloc(size))
                except OutOfMemoryError:
                    pass
            if step % 50 == 0:
                gml.check_invariants()
        for alloc in live:
            gml.free(alloc)
        gml.check_invariants()
        assert gml.active_bytes == 0


class TestAccountingInvariants:
    def test_reserved_never_below_active(self, gml):
        allocs = [gml.malloc(20 * MB) for _ in range(5)]
        assert gml.reserved_bytes >= gml.active_bytes
        for alloc in allocs:
            gml.free(alloc)
        assert gml.reserved_bytes >= gml.active_bytes

    def test_stats_utilization(self, gml):
        gml.malloc(100 * MB)
        stats = gml.stats()
        assert stats.utilization_ratio == pytest.approx(1.0)

    def test_no_fragmentation_at_peak(self, gml):
        """The §4.2.1 effectiveness claim: when memory peaks through
        Alloc, utilization is full."""
        a = gml.malloc(100 * MB)
        b = gml.malloc(60 * MB)
        gml.free(a)
        gml.malloc(160 * MB)  # peak: stitches a's block + new memory
        stats = gml.stats()
        assert stats.utilization_ratio > 0.95


class TestInvariantsCatchCorruption:
    """Activity is derived on read, but what a sort key, a counter or
    the back-index stores can still drift if a write bypasses the pool
    API: ``check_invariants`` must catch each, one seeded corruption per
    test."""

    @pytest.fixture
    def stitched(self, gml):
        """One free sBlock over two 6 MB pBlocks, both in the pPool."""
        a = gml.malloc(6 * MB)
        b = gml.malloc(6 * MB)
        gml.free(a)
        gml.free(b)
        gml.free(gml.malloc(12 * MB))
        (sblock,) = gml.spool
        gml.check_invariants()
        return gml, sblock

    def test_stale_sblock_refs_key(self, stitched):
        gml, sblock = stitched
        sblock.members[0].sblock_refs += 1  # bypasses PPool.adjust_refs
        with pytest.raises(AssertionError, match="scan order"):
            gml.check_invariants()

    def test_drifted_inactive_bytes(self, stitched):
        gml, sblock = stitched
        sblock.members[0].active = True  # bypasses PPool.mark_active
        with pytest.raises(AssertionError, match="inactive_bytes"):
            gml.check_invariants()

    def test_missing_by_member_edge(self, stitched):
        gml, sblock = stitched
        del gml.spool._by_member[sblock.members[0].id]
        with pytest.raises(AssertionError, match="back-index"):
            gml.check_invariants()

    def test_member_absent_from_ppool(self, stitched):
        gml, sblock = stitched
        gml.ppool.remove(sblock.members[1])
        with pytest.raises(AssertionError, match="not in the pPool"):
            gml.check_invariants()


class TestExactMatchTouchesNoPoolOrder:
    """A count, not a timing: activity is no sort key, so the converged
    malloc/free cycle must not re-key anything — even when every pBlock
    sits under several sBlocks (the ``train_replay`` regime, where an
    eager per-holder index cost O(members x holders) per call)."""

    def test_warm_cycle_does_no_sorted_list_updates(self, gml, monkeypatch):
        from repro.sortedlist import ChunkedSortedKeyList

        for held in [gml.malloc(6 * MB) for _ in range(9)]:
            gml.free(held)
        sizes = [k * 6 * MB for k in range(2, 10)]
        for size in sizes:  # each stitches a prefix of the nine pBlocks
            gml.free(gml.malloc(size))
        assert len(gml.spool) >= 8
        assert min(len(gml.spool.referencing(p)) for p in gml.ppool) >= 4

        calls = []
        for name in ("add", "remove"):
            original = getattr(ChunkedSortedKeyList, name)

            def counted(self, item, _name=name, _original=original):
                calls.append(_name)
                return _original(self, item)

            monkeypatch.setattr(ChunkedSortedKeyList, name, counted)
        exact_before = hits(gml, FitState.EXACT_MATCH)
        for size in sizes:
            gml.free(gml.malloc(size))
        assert hits(gml, FitState.EXACT_MATCH) == exact_before + len(sizes)
        assert calls == []
        gml.check_invariants()


class TestTransient:
    """``malloc_free``: below the chunk size the small pool's pair and
    GMLake's counters, otherwise ``BaseAllocator``'s two calls — the
    twin runs those two calls for every size."""

    @pytest.fixture
    def twins(self):
        pair = [GMLakeAllocator(GpuDevice(capacity=1 * GB)) for _ in range(2)]
        for allocator in pair:
            allocator.malloc(100 * KB)
            allocator.free(allocator.malloc(10 * MB))
        return pair

    @staticmethod
    def ledger(allocator):
        inner = allocator._small._inner
        return (allocator.stats(), allocator._next_id, inner.stats(),
                inner._next_id, allocator.device.clock.now_us,
                allocator._tick, allocator.state_histogram())

    @staticmethod
    def small_pool_calls(monkeypatch):
        calls = []
        original = SmallPool.malloc_free
        monkeypatch.setattr(
            SmallPool, "malloc_free",
            lambda self, size: calls.append(size) or original(self, size))
        return calls

    @pytest.mark.parametrize("size", [
        300, 64 * KB, 1 * MB, 1 * MB + 1, 2 * MB - 1,  # the small pool's
        2 * MB, 5 * MB])                               # a chunk or more
    def test_same_ledger_as_the_two_calls(self, twins, size):
        gml, loop = twins
        rounded = gml.malloc_free(size)
        assert rounded == BaseAllocator.malloc_free(loop, size)
        assert self.ledger(gml) == self.ledger(loop)
        assert gml.peak_active_bytes == 100 * KB + max(rounded, 10 * MB)
        gml.check_invariants()

    def test_small_transient_touches_no_gmlake_structure(self, gml,
                                                         monkeypatch):
        gml.malloc(100 * KB)
        gml.free(gml.malloc(10 * MB))
        calls = self.small_pool_calls(monkeypatch)

        def structures():
            return (dict(gml._small._by_ptr), list(gml.ppool),
                    list(gml.spool), dict(gml._assigned), gml._tick,
                    gml.state_histogram())

        before = structures()
        assert gml.malloc_free(64 * KB) == 64 * KB
        assert calls == [64 * KB]
        assert structures() == before
        assert gml.stats().malloc_count == gml.stats().free_count + 1 == 3

    def test_a_grown_small_segment_ratchets_the_reserved_peak(self, gml):
        gml.malloc_free(64 * KB)  # no cached fit: the inner pair maps 2 MB
        assert gml.peak_reserved_bytes == gml.reserved_bytes == 2 * MB
        assert gml.peak_active_bytes == 64 * KB and gml.active_bytes == 0

    def test_chunk_sized_transient_takes_the_two_calls(self, gml,
                                                       monkeypatch):
        calls = self.small_pool_calls(monkeypatch)
        assert gml.malloc_free(2 * MB) == 2 * MB
        assert calls == [] and gml._tick == 2
        assert hits(gml, FitState.INSUFFICIENT_BLOCKS) == 1

    def test_observed_transient_takes_the_two_calls(self, gml, monkeypatch):
        calls = self.small_pool_calls(monkeypatch)
        recorder = gml.add_observer(TimelineRecorder(gml, every=1))
        gml.malloc_free(64 * KB)
        assert calls == []
        assert [p.active_bytes for p in recorder.points] == [64 * KB, 0]

    def test_small_pool_oom_does_not_reclaim(self, monkeypatch):
        pair = [GMLakeAllocator(GpuDevice(capacity=4 * MB)) for _ in range(2)]
        reclaims = []
        monkeypatch.setattr(GMLakeAllocator, "_reclaim",
                            lambda self: reclaims.append(self))
        for allocator in pair:
            allocator.malloc(3 * MB)  # a 4 MB pBlock: the device is full
        gml, loop = pair
        with pytest.raises(OutOfMemoryError) as fast:
            gml.malloc_free(100 * KB)
        with pytest.raises(OutOfMemoryError) as slow:
            BaseAllocator.malloc_free(loop, 100 * KB)
        assert str(fast.value) == str(slow.value)
        assert reclaims == []
        assert self.ledger(gml) == self.ledger(loop)
        assert gml.live_allocation_count == 1
        gml.check_invariants()
