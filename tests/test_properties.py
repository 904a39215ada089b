"""Property-based tests: allocator correctness under arbitrary request
sequences (hypothesis drives alloc/free interleavings), and a guard
that the nightly CI job reruns every module using hypothesis."""

import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from reference import definition
from repro.allocators import CachingAllocator, VmmNaiveAllocator
from repro.allocators.base import BaseAllocator
from repro.api import component_names, resolve
from repro.core import GMLakeAllocator, GMLakeConfig
from repro.errors import OutOfMemoryError
from repro.gpu.device import GpuDevice
from repro.obs import AllocatorTraceObserver, TraceRecorder
from repro.sim.engine import ReplaySession
from repro.sim.timeline import TimelineRecorder
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

    scan_key = lambda p: (-p.size, p.sblock_refs, p.id)
    assert free_p == sorted(free_p, key=scan_key)
    for skip in (None, *spool):
        assert spool.lru_inactive(skip=skip) is min(
            (s for s in free_s if s is not skip),
            key=lambda s: (s.last_used, s.size, s.id), default=None)

    sizes = {b.size for pool in (ppool, spool) for b in pool}
    for size in sizes | {max(sizes, default=0) + 2 * MB, 1}:
        assert ppool.inactive_above(size) is max(
            (p for p in free_p if p.size > size), key=scan_key, default=None)
        assert list(ppool.inactive_from(size)) == sorted(
            (p for p in free_p if p.size <= size), key=scan_key)
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
TRANSIENT_SIZES = st.sampled_from([300, 64 * KB, 1 * MB, 1 * MB + 1,
                                   2 * MB - 1, 2 * MB, 3 * MB])
#: The clock time of a decode step between two workspace ops; not a
#: binary fraction, so adds made out of order round differently.
STEP_US = 0.1
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
    st.tuples(st.just("malloc_free"), TRANSIENT_SIZES),
    # A quiet decode run's workspace: n of them, each after a step.
    st.tuples(st.just("malloc_free_repeat"), TRANSIENT_SIZES, RUN_LENGTH),
    st.tuples(st.just("free"), PICK),
    st.tuples(st.just("free_run"), PICK, RUN_LENGTH),
    st.tuples(st.just("empty_cache")),
), min_size=8, max_size=20)
RUN_OPS = ("malloc_run", "free_run", "malloc_free", "transient_repeat")


def _apply(op, args, allocator, live, via):
    """One fuzz step on one allocator, its run operations taken from
    ``via`` (run op name -> function); returns the bytes it freed."""
    if op == "malloc":
        try:
            live.append(allocator.malloc(*args))
        except OutOfMemoryError:
            pass
    elif op == "malloc_run":
        live += via["malloc_run"](allocator, *args)
    elif op == "malloc_free":
        try:
            via["malloc_free"](allocator, *args)
        except OutOfMemoryError:
            pass
    elif op == "malloc_free_repeat":
        _malloc_free_repeat(allocator, *args, via)
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
            via["free_run"](allocator, batch)
        return sum(a.rounded_size for a in batch)
    return 0


def _malloc_free_repeat(allocator, size, n, via):
    """``n`` rounds of a step on the clock and ``malloc_free(size)``, as
    a quiet decode run makes them.  A ``transient_repeat`` answer
    ``(pairs, adds)`` stands for up to ``pairs`` rounds, made as their
    clock adds and one ``note_transients``; the round after them makes
    the call, and the allocator is asked again.  ``pairs`` is exactly
    half the hooks every observer ignores (0 with one to go: the round
    makes the call).  A ``None`` answer (not a repeating hit, or an
    observer that ignores no pair) must have changed nothing, and
    every round after it makes the call."""
    clock = allocator.device.clock

    def call():
        clock.advance(STEP_US)
        try:
            via["malloc_free"](allocator, size)
        except OutOfMemoryError:
            pass

    done = 0
    while done < n:
        before = _ledger(allocator), _free_blocks(allocator)
        answer = via["transient_repeat"](allocator, size)
        if answer is None:
            assert (_ledger(allocator), _free_blocks(allocator)) == before
            break
        pairs, adds = answer
        observers = allocator._observers
        assert pairs == (min(o.idle_events() for o in observers) // 2
                         if observers else sys.maxsize)
        repeats = min(pairs, n - done)
        for _ in range(repeats):
            clock.advance(STEP_US)
            for us in adds:
                clock.advance(us)
        if repeats:
            allocator.note_transients(size, repeats)
        done += repeats
        if done < n:
            call()
            done += 1
    for _ in range(n - done):
        call()


class TestEveryRegisteredAllocator:
    """Each ``allocator`` component at its defaults, on a device small
    enough that OOM and release-and-retry are part of the sequence.
    A new allocator joins by registering: nothing here names one."""

    @pytest.mark.parametrize("name", component_names("allocator"))
    @given(capacity_mb=st.sampled_from([64, 128, 256]), ops=OPS)
    def test_invariants_and_runs_under_pressure(self, name, capacity_mb, ops):
        _fuzz(name, capacity_mb, ops, observed=False)

    @pytest.mark.parametrize("name", component_names("allocator"))
    @given(capacity_mb=st.sampled_from([64, 128, 256]), ops=OPS,
           every=st.integers(1, 5), timeline=st.booleans())
    def test_observed_twin_sees_what_the_loop_shows(self, name, capacity_mb,
                                                    ops, every, timeline):
        """An observer does not send the run operations back to the
        loop; it sees the loop's events, at the loop's state.  A trace
        observer sampling one hook in ``every`` lets repeated
        transients skip the hooks between its samples; a timeline
        beside it acts on every hook, so then none is skipped."""
        _fuzz(name, capacity_mb, ops, observed=(every, timeline))


def _held(allocator):
    """``allocator`` and every allocator it holds, directly or one
    object down."""
    held = [allocator]
    for value in vars(allocator).values():
        for inner in (value, *getattr(value, "__dict__", {}).values()):
            if isinstance(inner, BaseAllocator) and inner not in held:
                held.append(inner)
    return held


def _ledger(allocator):
    """What a run operation and its loop must agree on, by ``==``: ids,
    stats and clock of ``allocator`` and of every allocator it holds (a
    delegate's counters count too)."""
    return ([(a._next_id, a.stats()) for a in _held(allocator)],
            allocator.device.clock.now_us)


def _free_blocks(allocator):
    """The cached free-block counts of the allocators that keep them."""
    return [a.free_block_count() for a in _held(allocator)
            if hasattr(a, "free_block_count")]


def _fuzz(name, capacity_mb, ops, observed):
    """Drive ``ops`` on allocator ``name``, checking its invariants
    after each, against a twin whose run operations are the loops of
    single calls that *define* them (every allocator has one: the
    shipped ``malloc_free`` asks for a cached fit).  ``observed``
    is ``(every, timeline)``: both sides carry an
    ``AllocatorTraceObserver`` sampling one event in ``every`` and,
    with ``timeline``, a ``TimelineRecorder`` sampling every event."""
    def build():
        return resolve("allocator", name, GpuDevice(capacity=capacity_mb * MB))

    allocator, live = build(), []
    cls = type(allocator)
    shipped = {op: getattr(cls, op) for op in RUN_OPS}
    loops = {op: definition(cls, op) for op in RUN_OPS}
    assert loops == {op: definition(BaseAllocator, op) for op in RUN_OPS}, (
        f"{cls.__name__} has a run op with no entry in tests/reference.py")
    twin, twin_live = build(), []
    if observed:
        every, timeline = observed

        def watch(a):
            trace = TraceRecorder()
            a.add_observer(AllocatorTraceObserver(
                trace, ReplaySession(a), every=every))
            if not timeline:
                return trace.events, []
            return trace.events, a.add_observer(
                TimelineRecorder(a, every=1)).points

        seen = [watch(a) for a in (allocator, twin)]
    freed = 0  # bytes the last free returned
    for op, *args in ops:
        if op == "malloc_to_fill":
            op = "malloc"
            args = [freed + allocator.device.phys.free + args[0]]
        freed = _apply(op, args, allocator, live, shipped) or freed
        allocator.check_invariants()
        _apply(op, args, twin, twin_live, loops)
        assert live == twin_live  # pointers, sizes and ids
        assert _ledger(allocator) == _ledger(twin)
        if observed:
            assert seen[0] == seen[1]
    allocator.free_run(live)
    allocator.empty_cache()
    allocator.check_invariants()
    assert allocator.device.used_memory == 0


class TestNightlyProfileCoversEveryPropertyModule:
    """The nightly CI job reruns the Hypothesis suites with a deeper
    example budget; a property module it does not name only ever gets
    the per-PR budget."""

    def test_every_hypothesis_module_runs_nightly(self):
        tests = Path(__file__).resolve().parent
        ci = (tests.parent / ".github" / "workflows" / "ci.yml").read_text(
            encoding="utf-8")
        job = ci[ci.index("\n  nightly-hypothesis:"):]
        job = job[:re.search(r"\n  \S", job[1:]).start() + 1]
        nightly = set(re.findall(r"tests/(test_\w+\.py)", job))
        uses = {path.name for path in tests.glob("test_*.py")
                if re.search(r"^\s*(from|import) hypothesis\b",
                             path.read_text(encoding="utf-8"), re.M)}
        assert uses, "no module imports hypothesis"
        assert uses <= nightly, (
            f"add {sorted(uses - nightly)} to the nightly-hypothesis job")
