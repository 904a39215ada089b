"""Property-based tests: allocator correctness under arbitrary request
sequences (hypothesis drives alloc/free interleavings)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.allocators import CachingAllocator, VmmNaiveAllocator
from repro.allocators.base import BaseAllocator
from repro.api import component_names, resolve
from repro.core import GMLakeAllocator, GMLakeConfig
from repro.errors import OutOfMemoryError
from repro.gpu.device import GpuDevice
from repro.units import GB, KB, MB

# Each step is (is_alloc, size_selector, free_index_selector).
STEP = st.tuples(
    st.booleans(),
    st.integers(min_value=1, max_value=96 * MB),
    st.integers(min_value=0, max_value=10_000),
)

# Deadline/health-check policy comes from the shared profile in
# conftest.py; tests only size their example budget.
COMMON_SETTINGS = settings(max_examples=40)


def replay(allocator, steps):
    """Apply a step sequence; returns a reference ledger of live bytes."""
    live = []
    live_bytes = 0
    for is_alloc, size, free_index in steps:
        if is_alloc or not live:
            try:
                alloc = allocator.malloc(size)
            except OutOfMemoryError:
                continue
            live.append(alloc)
            live_bytes += alloc.rounded_size
        else:
            alloc = live.pop(free_index % len(live))
            allocator.free(alloc)
            live_bytes -= alloc.rounded_size
    return live, live_bytes


class TestGMLakeProperties:
    @COMMON_SETTINGS
    @given(st.lists(STEP, max_size=60))
    def test_invariants_under_arbitrary_interleaving(self, steps):
        allocator = GMLakeAllocator(GpuDevice(capacity=2 * GB))
        live, live_bytes = replay(allocator, steps)
        allocator.check_invariants()
        assert allocator.active_bytes == live_bytes
        assert allocator.reserved_bytes >= 0
        # Reserved memory never exceeds device capacity.
        assert allocator.device.used_memory <= allocator.device.capacity

    @COMMON_SETTINGS
    @given(st.lists(STEP, max_size=50))
    def test_free_all_returns_to_zero_active(self, steps):
        allocator = GMLakeAllocator(GpuDevice(capacity=2 * GB))
        live, _ = replay(allocator, steps)
        for alloc in live:
            allocator.free(alloc)
        assert allocator.active_bytes == 0
        allocator.check_invariants()
        # Everything inactive: empty_cache must return all physical bytes.
        allocator.empty_cache()
        assert allocator.device.used_memory == 0

    @COMMON_SETTINGS
    @given(st.lists(STEP, max_size=40))
    def test_pointers_of_live_allocations_are_unique(self, steps):
        allocator = GMLakeAllocator(GpuDevice(capacity=2 * GB))
        live, _ = replay(allocator, steps)
        ptrs = [alloc.ptr for alloc in live]
        assert len(ptrs) == len(set(ptrs))

    @COMMON_SETTINGS
    @given(st.lists(STEP, max_size=40))
    def test_no_physical_chunk_shared_by_two_live_tensors(self, steps):
        allocator = GMLakeAllocator(GpuDevice(capacity=2 * GB))
        live, _ = replay(allocator, steps)
        # Map every live large allocation to its backing chunk handles.
        seen = {}
        for alloc in live:
            block = allocator._assigned.get(alloc.ptr)
            if block is None:
                continue  # small-pool allocation
            members = [block] if hasattr(block, "handles") else block.members
            for member in members:
                for handle in member.handles:
                    assert handle not in seen, (
                        f"chunk {handle} backs tensors {seen[handle]} "
                        f"and {alloc.alloc_id}"
                    )
                    seen[handle] = alloc.alloc_id


class TestIndexedPoolFuzz:
    """The pools store scan orders, back-indexes and running byte
    counters (activity is not among them: it is read off
    ``PBlock.active``); ``check_invariants`` re-derives all of them
    from scratch.  Checking *mid-sequence* (not just at the end) catches
    transient drift that a final check could miss after compensating
    operations."""

    @COMMON_SETTINGS
    @given(st.lists(STEP, max_size=60))
    def test_gmlake_indexes_consistent_mid_sequence(self, steps):
        allocator = GMLakeAllocator(GpuDevice(capacity=2 * GB))
        live = []
        for i, (is_alloc, size, free_index) in enumerate(steps):
            if is_alloc or not live:
                try:
                    live.append(allocator.malloc(size))
                except OutOfMemoryError:
                    pass
            else:
                allocator.free(live.pop(free_index % len(live)))
            if i % 5 == 0:
                allocator.check_invariants()
        allocator.check_invariants()

    @COMMON_SETTINGS
    @given(st.lists(STEP, max_size=60))
    def test_caching_cached_bytes_counter_mid_sequence(self, steps):
        allocator = CachingAllocator(GpuDevice(capacity=2 * GB))
        live = []
        for i, (is_alloc, size, free_index) in enumerate(steps):
            if is_alloc or not live:
                try:
                    live.append(allocator.malloc(size))
                except OutOfMemoryError:
                    pass
            else:
                allocator.free(live.pop(free_index % len(live)))
            if i % 5 == 0:
                allocator.check_invariants()
        allocator.check_invariants()
        # Cached plus live-block bytes tile every segment exactly.
        # (cached_bytes == reserved - active does NOT hold in general:
        # a best-fit block whose remainder was too small to split is
        # handed out whole, so allocated blocks can exceed the rounded
        # request — internal fragmentation the paper's §2.2 describes.)
        live_block_bytes = sum(
            b.size for b in allocator._blocks_by_ptr.values() if b.allocated)
        assert (allocator.cached_bytes() + live_block_bytes
                == allocator.reserved_bytes)


def _no_active_member(sblock):
    return not any(member.active for member in sblock.members)


def assert_inactive_lookups_match_brute_force(allocator):
    """Every activity-filtered pool look-up against its definition,
    written out over ``iter(pool)`` with no help from the pools' own
    orderings, for every block size present and one that is not."""
    ppool, spool = allocator.ppool, allocator.spool
    free_p = [p for p in ppool if not p.active]
    free_s = [s for s in spool if _no_active_member(s)]

    assert ppool.inactive_descending() == sorted(
        free_p, key=lambda p: (-p.size, p.sblock_refs, p.id))
    assert spool.inactive_blocks() == sorted(
        free_s, key=lambda s: (s.size, s.id))
    assert spool.lru_inactive() is min(
        free_s, key=lambda s: (s.last_used, s.size, s.id), default=None)

    sizes = {b.size for pool in (ppool, spool) for b in pool}
    for size in sizes | {max(sizes, default=0) + 2 * MB}:
        fitting = [p for p in free_p if p.size == size]
        unreferenced = [p for p in fitting if p.sblock_refs == 0]
        assert ppool.exact_inactive(size) is min(
            unreferenced or fitting, key=lambda p: p.id, default=None)
        assert spool.exact_inactive(size) is min(
            (s for s in free_s if s.size == size),
            key=lambda s: s.id, default=None)


class TestInactiveLookupOracle:
    """Differential oracle for derive-on-read activity: the pools keep
    no inactive view, so nothing but these look-ups can disagree with
    the member flags.  A few chunk-multiple sizes make requests collide
    (exact matches, shared members); the sPool cap of 3 makes StitchFree
    evict by LRU in most sequences; the 192 MB device reaches reclaim."""

    SIZES = st.integers(min_value=1, max_value=24).map(lambda n: n * 2 * MB)

    @COMMON_SETTINGS
    @given(st.lists(st.tuples(st.booleans(), SIZES,
                              st.integers(min_value=0, max_value=10_000)),
                    max_size=60))
    def test_lookups_match_brute_force_after_every_step(self, steps):
        allocator = GMLakeAllocator(GpuDevice(capacity=192 * MB),
                                    GMLakeConfig(max_spool_blocks=3))
        live = []
        for is_alloc, size, free_index in steps:
            if is_alloc or not live:
                try:
                    live.append(allocator.malloc(size))
                except OutOfMemoryError:
                    pass
            else:
                allocator.free(live.pop(free_index % len(live)))
            assert_inactive_lookups_match_brute_force(allocator)
        allocator.check_invariants()


class TestCachingProperties:
    @COMMON_SETTINGS
    @given(st.lists(STEP, max_size=60))
    def test_invariants_under_arbitrary_interleaving(self, steps):
        allocator = CachingAllocator(GpuDevice(capacity=2 * GB))
        live, live_bytes = replay(allocator, steps)
        allocator.check_invariants()
        assert allocator.active_bytes == live_bytes
        assert allocator.reserved_bytes >= allocator.active_bytes

    @COMMON_SETTINGS
    @given(st.lists(STEP, max_size=50))
    def test_empty_cache_after_free_all(self, steps):
        allocator = CachingAllocator(GpuDevice(capacity=2 * GB))
        live, _ = replay(allocator, steps)
        for alloc in live:
            allocator.free(alloc)
        allocator.empty_cache()
        assert allocator.device.used_memory == 0
        allocator.check_invariants()

    @COMMON_SETTINGS
    @given(st.lists(STEP, max_size=40))
    def test_live_pointers_unique(self, steps):
        allocator = CachingAllocator(GpuDevice(capacity=2 * GB))
        live, _ = replay(allocator, steps)
        ptrs = [alloc.ptr for alloc in live]
        assert len(ptrs) == len(set(ptrs))


class TestCrossAllocatorEquivalence:
    @COMMON_SETTINGS
    @given(st.lists(STEP, max_size=40))
    def test_gmlake_reserved_at_most_caching_plus_rounding(self, steps):
        """On identical OOM-free sequences GMLake never reserves more
        than the caching allocator beyond chunk-rounding slack."""
        caching = CachingAllocator(GpuDevice(capacity=4 * GB))
        gmlake = GMLakeAllocator(GpuDevice(capacity=4 * GB))
        live_c, _ = replay(caching, steps)
        live_g, _ = replay(gmlake, steps)
        if len(live_c) != len(live_g):
            return  # an OOM diverged the sequences; not comparable
        n_allocs = caching.stats().malloc_count
        rounding_slack = (n_allocs + 1) * 2 * MB + 20 * MB
        assert gmlake.peak_reserved_bytes <= (
            caching.peak_reserved_bytes + rounding_slack
        )

    @COMMON_SETTINGS
    @given(st.lists(STEP, max_size=30))
    def test_vmm_naive_reserved_equals_active(self, steps):
        allocator = VmmNaiveAllocator(GpuDevice(capacity=2 * GB))
        replay(allocator, steps)
        assert allocator.reserved_bytes == allocator.active_bytes


# ----------------------------------------------------------------------
# One fuzz for every allocator the registry knows
# ----------------------------------------------------------------------
PICK = st.integers(min_value=0, max_value=10_000)
RUN_LENGTH = st.integers(min_value=1, max_value=10)
OPS = st.lists(st.one_of(
    st.tuples(st.just("malloc"),
              st.one_of(st.integers(1, 1 * MB), st.integers(1, 64 * MB))),
    # A request for the block just freed, all the device has left and a
    # little more, which only a release of cached memory can supply:
    # the size at which release-and-retry decides the outcome.
    st.tuples(st.just("malloc_to_fill"), st.integers(1, 2 * MB)),
    st.tuples(st.just("malloc_run"),
              st.sampled_from([300, 64 * KB, 1 * MB, 3 * MB, 12 * MB]),
              RUN_LENGTH),
    # A transient on both sides of caching's 1 MB pool boundary and of
    # gmlake's 2 MB chunk.
    st.tuples(st.just("malloc_free"),
              st.sampled_from([300, 64 * KB, 1 * MB, 1 * MB + 1,
                               2 * MB - 1, 2 * MB, 3 * MB])),
    st.tuples(st.just("free"), PICK),
    st.tuples(st.just("free_run"), PICK, RUN_LENGTH),
    st.tuples(st.just("empty_cache")),
), min_size=8, max_size=20)
RUN_OPS = ("malloc_run", "free_run", "malloc_free")


def _apply(op, args, allocator, live, via):
    """One fuzz step on one allocator, its run operations taken from
    the class ``via``; returns the bytes it freed."""
    if op == "malloc":
        try:
            live.append(allocator.malloc(*args))
        except OutOfMemoryError:
            pass
    elif op == "malloc_run":
        live += via.malloc_run(allocator, *args)
    elif op == "malloc_free":
        try:
            via.malloc_free(allocator, *args)
        except OutOfMemoryError:
            pass
    elif op == "empty_cache":
        allocator.empty_cache()
    elif live:
        # Counted from the newest: Hypothesis favours small picks, and
        # freeing recent blocks is what leaves the free tails a release
        # can give back.
        start = (len(live) - 1 - args[0]) % len(live)
        stop = start + (args[1] if op == "free_run" else 1)
        batch = live[start:stop]
        del live[start:stop]
        if op == "free":
            allocator.free(*batch)
        else:
            via.free_run(allocator, batch)
        return sum(a.rounded_size for a in batch)
    return 0


class TestEveryRegisteredAllocator:
    """Each ``allocator`` component at its defaults, on a device small
    enough that OOM and release-and-retry are part of the sequence.
    A new allocator joins by registering: nothing here names one."""

    @pytest.mark.parametrize("name", component_names("allocator"))
    @given(capacity_mb=st.sampled_from([64, 128, 256]), ops=OPS)
    def test_invariants_and_runs_under_pressure(self, name, capacity_mb, ops):
        def build():
            return resolve("allocator", name,
                           GpuDevice(capacity=capacity_mb * MB))

        allocator, live = build(), []
        cls = type(allocator)
        # An allocator with run operations of its own gets a twin that
        # is driven by the loops of single calls that *define* them.
        twin, twin_live = None, []
        if any(getattr(cls, op) is not getattr(BaseAllocator, op)
               for op in RUN_OPS):
            twin = build()
        freed = 0  # bytes the last free returned
        for op, *args in ops:
            if op == "malloc_to_fill":
                op = "malloc"
                args = [freed + allocator.device.free_memory + args[0]]
            freed = _apply(op, args, allocator, live, cls) or freed
            allocator.check_invariants()
            if twin is not None:
                _apply(op, args, twin, twin_live, BaseAllocator)
                assert live == twin_live  # pointers, sizes and ids
                assert allocator._next_id == twin._next_id
                assert allocator.stats() == twin.stats()
                assert (allocator.device.clock.now_us
                        == twin.device.clock.now_us)
        allocator.free_run(live)
        allocator.empty_cache()
        allocator.check_invariants()
        assert allocator.device.used_memory == 0
