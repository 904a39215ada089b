"""Driver-contract tests for the simulated CUDA VMM API."""

import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import PerCallVmm, chunk_view
from repro.errors import (
    CudaError,
    CudaInvalidAddressError,
    CudaInvalidValueError,
    CudaOutOfMemoryError,
)
from repro.gpu.device import GpuDevice
from repro.gpu.phys import PhysicalMemory
from repro.testing import FlakyDevice
from repro.units import GB, MB


@pytest.fixture
def device():
    return GpuDevice(capacity=1 * GB)


@pytest.fixture
def vmm(device):
    return device.vmm


class TestReserve:
    def test_reserve_returns_address(self, vmm):
        va = vmm.mem_address_reserve(4 * MB)
        assert va > 0

    def test_reserve_counts_calls_and_time(self, vmm, device):
        t0 = device.clock.now_us
        vmm.mem_address_reserve(4 * MB)
        assert vmm.counters.reserve_calls == 1
        assert device.clock.now_us > t0

    def test_address_free_requires_no_mappings(self, vmm):
        va = vmm.mem_address_reserve(2 * MB)
        handle = vmm.mem_create(2 * MB)
        vmm.mem_map(va, 0, handle)
        with pytest.raises(CudaInvalidValueError):
            vmm.mem_address_free(va)

    def test_address_free_unknown_va(self, vmm):
        with pytest.raises(CudaInvalidAddressError):
            vmm.mem_address_free(0xDEAD)


class TestCreate:
    def test_create_commits_physical(self, vmm, device):
        vmm.mem_create(4 * MB)
        assert device.used_memory == 4 * MB

    def test_create_requires_granularity(self, vmm):
        with pytest.raises(CudaInvalidValueError):
            vmm.mem_create(3 * MB)

    def test_create_rejects_zero(self, vmm):
        with pytest.raises(CudaInvalidValueError):
            vmm.mem_create(0)

    def test_create_oom(self, vmm):
        with pytest.raises(CudaOutOfMemoryError):
            vmm.mem_create(2 * GB)


class TestMap:
    def test_map_within_reservation(self, vmm):
        va = vmm.mem_address_reserve(4 * MB)
        h1 = vmm.mem_create(2 * MB)
        h2 = vmm.mem_create(2 * MB)
        vmm.mem_map(va, 0, h1)
        vmm.mem_map(va, 2 * MB, h2)
        assert vmm.is_fully_mapped(va, 4 * MB)

    def test_map_beyond_reservation_rejected(self, vmm):
        va = vmm.mem_address_reserve(2 * MB)
        handle = vmm.mem_create(2 * MB)
        with pytest.raises(CudaInvalidAddressError):
            vmm.mem_map(va, 2 * MB, handle)

    def test_overlapping_map_rejected(self, vmm):
        va = vmm.mem_address_reserve(4 * MB)
        h1 = vmm.mem_create(2 * MB)
        h2 = vmm.mem_create(2 * MB)
        vmm.mem_map(va, 0, h1)
        with pytest.raises(CudaInvalidValueError):
            vmm.mem_map(va, 0, h2)

    def test_map_to_unreserved_va_rejected(self, vmm):
        handle = vmm.mem_create(2 * MB)
        with pytest.raises(CudaInvalidAddressError):
            vmm.mem_map(0xBEEF, 0, handle)

    def test_same_chunk_mappable_at_multiple_vas(self, vmm):
        """The aliasing property GMLake's stitching relies on."""
        handle = vmm.mem_create(2 * MB)
        va1 = vmm.mem_address_reserve(2 * MB)
        va2 = vmm.mem_address_reserve(2 * MB)
        vmm.mem_map(va1, 0, handle)
        vmm.mem_map(va2, 0, handle)
        assert vmm.is_fully_mapped(va1, 2 * MB)
        assert vmm.is_fully_mapped(va2, 2 * MB)

    def test_mappings_at_reports_layout(self, vmm):
        va = vmm.mem_address_reserve(4 * MB)
        h1 = vmm.mem_create(2 * MB)
        vmm.mem_map(va, 2 * MB, h1)
        assert vmm.mappings_at(va) == [(2 * MB, 2 * MB, h1)]


class TestSetAccess:
    def test_set_access_over_mapped_range(self, vmm):
        va = vmm.mem_address_reserve(4 * MB)
        for offset in (0, 2 * MB):
            vmm.mem_map(va, offset, vmm.mem_create(2 * MB))
        vmm.mem_set_access(va, 0, 4 * MB)
        assert vmm.counters.set_access_calls == 2  # one per chunk

    def test_set_access_over_hole_rejected(self, vmm):
        va = vmm.mem_address_reserve(4 * MB)
        vmm.mem_map(va, 0, vmm.mem_create(2 * MB))
        with pytest.raises(CudaInvalidAddressError):
            vmm.mem_set_access(va, 0, 4 * MB)

    def test_set_access_unknown_va(self, vmm):
        with pytest.raises(CudaInvalidAddressError):
            vmm.mem_set_access(0x123, 0, 2 * MB)


class TestUnmapRelease:
    def test_unmap_releases_physical_after_release(self, vmm, device):
        va = vmm.mem_address_reserve(2 * MB)
        handle = vmm.mem_create(2 * MB)
        vmm.mem_map(va, 0, handle)
        vmm.mem_release(handle)  # mapping still holds the chunk
        assert device.used_memory == 2 * MB
        vmm.mem_unmap(va, 0, 2 * MB)
        assert device.used_memory == 0

    def test_release_before_unmap_order_is_safe(self, vmm, device):
        """Either teardown order frees the chunk exactly once."""
        va = vmm.mem_address_reserve(2 * MB)
        handle = vmm.mem_create(2 * MB)
        vmm.mem_map(va, 0, handle)
        vmm.mem_unmap(va, 0, 2 * MB)
        assert device.used_memory == 2 * MB  # creation ref remains
        vmm.mem_release(handle)
        assert device.used_memory == 0

    def test_unmap_nothing_rejected(self, vmm):
        va = vmm.mem_address_reserve(2 * MB)
        with pytest.raises(CudaInvalidValueError):
            vmm.mem_unmap(va, 0, 2 * MB)

    @pytest.mark.parametrize("offset, size", [(0, 4 * MB), (4 * MB, 4 * MB)])
    def test_unmap_refuses_a_range_that_cuts_a_mapping(self, vmm, offset,
                                                       size):
        # cuMemUnmap takes whole mappings: [0, 4 MB) ends inside the 4 MB
        # chunk at 2 MB, [4 MB, 8 MB) starts inside it.  Nothing is
        # unmapped, not even the mappings the range does contain.
        va = vmm.mem_address_reserve(8 * MB)
        for at, chunk in ((0, 2 * MB), (2 * MB, 4 * MB), (6 * MB, 2 * MB)):
            vmm.mem_map(va, at, vmm.mem_create(chunk))
        layout, clock = vmm.mappings_at(va), vmm._clock.now_us
        with pytest.raises(CudaInvalidValueError):
            vmm.mem_unmap(va, offset, size)
        assert vmm.mappings_at(va) == layout
        assert vmm._clock.now_us == clock and vmm.counters.unmap_calls == 0

    def test_aliased_chunk_survives_one_unmap(self, vmm, device):
        handle = vmm.mem_create(2 * MB)
        va1 = vmm.mem_address_reserve(2 * MB)
        va2 = vmm.mem_address_reserve(2 * MB)
        vmm.mem_map(va1, 0, handle)
        vmm.mem_map(va2, 0, handle)
        vmm.mem_release(handle)
        vmm.mem_unmap(va1, 0, 2 * MB)
        assert device.used_memory == 2 * MB
        vmm.mem_unmap(va2, 0, 2 * MB)
        assert device.used_memory == 0

    def test_full_lifecycle_restores_device(self, vmm, device):
        va = vmm.mem_address_reserve(8 * MB)
        handles = []
        for offset in range(0, 8 * MB, 2 * MB):
            handle = vmm.mem_create(2 * MB)
            handles.append(handle)
            vmm.mem_map(va, offset, handle)
        vmm.mem_set_access(va, 0, 8 * MB)
        vmm.mem_unmap(va, 0, 8 * MB)
        for handle in handles:
            vmm.mem_release(handle)
        vmm.mem_address_free(va)
        assert device.used_memory == 0
        assert device.vaspace.live_count == 0


class TestRuntime:
    def test_cuda_malloc_free_cycle(self, device):
        runtime = device.runtime
        ptr = runtime.cuda_malloc(100 * MB)
        assert device.used_memory == 100 * MB
        assert runtime.size_of(ptr) == 100 * MB
        runtime.cuda_free(ptr)
        assert device.used_memory == 0

    def test_cuda_free_unknown_rejected(self, device):
        with pytest.raises(CudaInvalidAddressError):
            device.runtime.cuda_free(0x42)

    def test_cuda_malloc_oom(self, device):
        with pytest.raises(CudaOutOfMemoryError):
            device.runtime.cuda_malloc(2 * GB)

    def test_runtime_and_vmm_share_physical_budget(self, device):
        device.runtime.cuda_malloc(512 * MB)
        device.vmm.mem_create(256 * MB)
        assert device.used_memory == 768 * MB
        with pytest.raises(CudaOutOfMemoryError):
            device.vmm.mem_create(512 * MB)

    def test_counters_and_clock_advance(self, device):
        t0 = device.clock.now_us
        ptr = device.runtime.cuda_malloc(2 * MB)
        device.runtime.cuda_free(ptr)
        assert device.runtime.counters.malloc_calls == 1
        assert device.runtime.counters.free_calls == 1
        assert device.clock.now_us > t0

    def test_driver_time_accumulates(self, device):
        ptr = device.runtime.cuda_malloc(2 * MB)
        device.runtime.cuda_free(ptr)
        device.vmm.mem_create(2 * MB)
        assert device.driver_time_us() > 0


# ----------------------------------------------------------------------
# Sequence oracle: the one-pass sequences against one call at a time
# (reference.PerCallVmm)
# ----------------------------------------------------------------------
def vmm_state(device):
    """Everything the two VMMs must agree on, compared by ``==``."""
    vmm, phys, vaspace = device.vmm, device.phys, device.vaspace
    return {
        "now_us": device.clock.now_us,
        "counters": vmm.counters.snapshot(),
        "mappings": chunk_view(vmm),
        "phys": (phys.committed, phys._next_handle,
                 {h: (c.size, c.refcount, c.released)
                  for h, c in phys.chunks().items()}),
        "vaspace": (vaspace._next, vaspace.total_reserved,
                    {va: r.size for va, r in vaspace._reservations.items()}),
    }


def _outcome(device, name, args):
    """``device.vmm.name(*args)``: ``("ok", result)`` or the exception's
    class name and ``None``."""
    try:
        return "ok", getattr(device.vmm, name)(*args)
    except CudaError as exc:
        return type(exc).__name__, None


class VmmTwins:
    """Two devices, one on :class:`CudaVmm` and one on
    :class:`PerCallVmm`; every call goes to both."""

    def __init__(self, capacity, make=GpuDevice):
        self.make = functools.partial(make, capacity=capacity)
        self.fast = self.make()
        self.ref = self.reference()
        self.log = []  # every call the reference was made
        self.refused = None  # the last refusal, on a replay of the log
        self.vas = []  # every reserved address, live or freed

    def reference(self):
        device = self.make()
        device.vmm = PerCallVmm(device.phys, device.vaspace, device.clock,
                                device.latency)
        return device

    def call(self, name, *args):
        """Run ``name(*args)`` on both sides: the same result or the
        same exception class, then the same state; returns the outcome.

        A refused ``back`` or ``alias`` checks its whole range or every
        handle first and touches no chunk, where the reference fails at
        the first bad call, after the calls before it.  On the way there
        a ``back`` may run out of memory instead, or, if its range runs
        past the reservation, be refused for an overlap first.  So the
        reference meets such a call on a replay of the log
        (:attr:`refused`), and is then made what the refusal leaves: a
        ``back`` nothing, an ``alias`` its reservation."""
        before = vmm_state(self.fast)
        kind, result = _outcome(self.fast, name, args)
        if name in ("back", "alias") and kind not in (
                "ok", "CudaOutOfMemoryError"):
            allowed = {kind}
            if name == "back":
                allowed.add("CudaOutOfMemoryError")
                if kind == "CudaInvalidAddressError":
                    allowed.add("CudaInvalidValueError")
            self.refused = self.reference()
            for logged in self.log:
                _outcome(self.refused, *logged)
            assert _outcome(self.refused, name, args)[0] in allowed, (
                name, args)
            after = vmm_state(self.fast)
            assert after["phys"] == before["phys"]  # none made or retained
            if name == "back":
                assert after == before
                return kind
            self.log.append(("mem_address_reserve", (len(args[0]) * args[1],)))
            self.vas.append(_outcome(self.ref, *self.log[-1])[1])
        else:
            self.log.append((name, args))
            assert (kind, result) == _outcome(self.ref, name, args), (
                name, args)
            if kind == "ok" and name in ("mem_address_reserve", "alias"):
                self.vas.append(result)
        assert vmm_state(self.fast) == vmm_state(self.ref)
        return kind

    def handles(self):
        """Every handle issued so far, live or destroyed."""
        return list(range(1, self.ref.phys._next_handle))

    def va(self, i):
        """For most ``i`` a live reservation, one with mappings if
        ``i < 60``; otherwise a freed or a never-reserved address."""
        tables = self.ref.vmm._mappings
        live = [va for va in self.vas if va in tables]
        mapped = [va for va in live if tables[va]]
        for choice, below in ((mapped, 60), (live, 90), (self.vas, 95)):
            if choice and i < below:
                return choice[i % len(choice)]
        return 0xBAD0

    def frontier(self, va):
        """Where the last mapping at ``va`` ends (0 if none)."""
        maps = self.ref.vmm._mappings.get(va)
        return maps[-1].end if maps else 0

    def span(self, va, offset, units):
        """``units`` granules, or up to the end of the reservation."""
        reservation = self.ref.vaspace._reservations.get(va)
        if units >= 0 or reservation is None:
            return abs(units) * U
        return reservation.size - offset

    def cuts(self, va, offset, size):
        """True if ``[offset, offset+size)`` cuts a mapping at ``va``."""
        return any(m.offset < edge < m.end
                   for m in self.ref.vmm._mappings.get(va) or []
                   for edge in (offset, offset + size))


U = 2 * MB  # the granularity; fuzzed offsets and sizes are multiples
VA = st.integers(0, 99)  # see VmmTwins.va
AT = st.integers(-1, 7)  # granules; -1: back / map at the frontier, else 0
RANGE_OP = st.sampled_from(["mem_unmap", "mem_set_access"])
BACK = st.tuples(st.just("back"), VA, AT, st.integers(-1, 5),
                 st.sampled_from([U, 2 * U]))
# From the frontier to the end of the reservation: a back that fits.
GROW = st.tuples(st.just("back"), VA, st.just(-1), st.just(-1),
                 st.sampled_from([U, 2 * U]))
# From one mapped chunk to the end of another: a range that ends
# inside a record, as an arena's trim does.
CHUNKS = st.tuples(st.just("chunks"), VA, st.integers(0, 99),
                   st.integers(0, 99), RANGE_OP)
VMM_STEP = st.one_of(  # (op, va index, ...); back weighted up
    BACK, GROW, GROW,
    st.tuples(st.just("alias"), VA,
              st.lists(st.integers(0, 99), min_size=1, max_size=16),
              st.sampled_from([U, 2 * U]), st.integers(0, 4),
              st.booleans()),
    st.tuples(st.just("unmap"), VA, AT, st.integers(-1, 6)),
    st.tuples(st.just("unmap"), VA, st.just(0), st.just(-1)),
    st.tuples(st.just("set_access"), VA, AT, st.integers(-1, 6)),
    CHUNKS, CHUNKS,
    # Half a granule off: a range that cuts a chunk.
    st.tuples(st.just("cut"), VA, AT, st.integers(0, 6), RANGE_OP),
    st.tuples(st.just("map"), VA, AT, st.integers(0, 99)),
    st.tuples(st.just("release"), VA, st.integers(0, 99)),
    st.tuples(st.just("create"), VA, st.sampled_from([U, 2 * U, 3 * MB])),
    st.tuples(st.just("free"), VA),
    st.tuples(st.just("reserve"), VA, st.integers(1, 8)),
)


def _pick(seq, i, default):
    return seq[i % len(seq)] if seq else default


class TestSequencesMatchOneCallAtATime:
    """Random driver traffic on small devices, where ``back`` runs out
    of memory mid-range or on a create a fault injector fails, ``alias``
    re-maps released and repeated chunks and ranges are refused for
    every reason the driver has."""

    @given(capacity_units=st.integers(3, 12),
           reserved=st.lists(st.integers(1, 8), min_size=1, max_size=3),
           steps=st.lists(VMM_STEP, min_size=12, max_size=40),
           fail_on=st.just(()) | st.lists(st.integers(1, 24), min_size=1,
                                          max_size=3))
    def test_same_state_after_every_call(self, capacity_units, reserved,
                                         steps, fail_on):
        # A fault injector replaces ``create``, which turns off the
        # doomed-back shortcut: draw a plain device as often.
        make = (functools.partial(FlakyDevice, fail_on=fail_on)
                if fail_on else GpuDevice)
        twins = VmmTwins(capacity_units * U, make=make)
        for units in reserved:
            twins.call("mem_address_reserve", units * U)
        for op, i, *args in steps:
            va = twins.va(i)
            if op in ("back", "map"):
                at = twins.frontier(va) if args[0] < 0 else args[0] * U
            elif op in ("unmap", "set_access", "cut"):
                at = max(args[0], 0) * U
            if op == "reserve":
                twins.call("mem_address_reserve", args[0] * U)
            elif op == "create":
                twins.call("mem_create", args[0])
            elif op == "back":
                units, chunk = args[1:]
                twins.call("back", va, at, twins.span(va, at, units), chunk)
            elif op == "alias":
                picks, chunk, spoil, repeat = args
                live = [h for h, c in twins.ref.phys.chunks().items()
                        if c.size == chunk]
                chosen = [_pick(live, p, None) for p in picks]
                if repeat:  # the first handle again, next to itself
                    chosen.insert(1, chosen[0])
                if spoil == 0:  # one handle becomes one no chunk has
                    chosen[picks[0] % len(chosen)] = 10 ** 6
                if None not in chosen:
                    twins.call("alias", chosen, chunk)
            elif op == "map":
                twins.call("mem_map", va, at,
                           _pick(twins.handles(), args[1], 10 ** 6))
            elif op in ("unmap", "set_access", "chunks", "cut"):
                if op == "chunks":
                    mapped = (twins.ref.vmm.mappings_at(va)
                              if va in twins.ref.vmm._mappings else [])
                    if not mapped:
                        continue
                    first, last = sorted(_pick(mapped, p, None)
                                         for p in args[:2])
                    at, size = first[0], last[0] + last[1] - first[0]
                    name = args[2]
                elif op == "cut":
                    at, size, name = at + MB, args[1] * U, args[2]
                else:
                    size = twins.span(va, at, args[1])
                    name = f"mem_{op}"
                if name == "mem_unmap" and twins.cuts(va, at, size):
                    before = vmm_state(twins.fast)
                    with pytest.raises(CudaInvalidValueError):
                        twins.fast.vmm.mem_unmap(va, at, size)
                    assert vmm_state(twins.fast) == before
                else:
                    twins.call(name, va, at, size)
            elif op == "release":
                twins.call("mem_release",
                           _pick(twins.handles(), args[0], 10 ** 6))
            else:
                twins.call("mem_address_free", va)


class TestSequenceCases:
    """Named cases of the oracle above."""

    @pytest.mark.parametrize("fits", [0, 2, 3])
    def test_back_runs_out_at_first_middle_and_last_chunk(self, fits):
        twins = VmmTwins(8 * U)
        for _ in range(8 - fits):
            twins.call("mem_create", U)
        twins.call("mem_address_reserve", 4 * U)
        before = vmm_state(twins.fast)
        assert twins.call("back", twins.vas[-1], 0, 4 * U, U) == (
            "CudaOutOfMemoryError")
        after = vmm_state(twins.fast)
        assert after["mappings"] == before["mappings"]
        assert after["phys"][0] == before["phys"][0] == (8 - fits) * U
        assert after["counters"]["create_calls"] == 9  # the last one failed
        assert after["counters"]["unmap_calls"] == fits

    def test_back_grows_behind_existing_mappings(self):
        # How an expandable arena grows: at its mapped frontier.
        twins = VmmTwins(16 * U)
        twins.call("mem_address_reserve", 8 * U)
        va = twins.vas[-1]
        assert twins.call("back", va, 0, 2 * U, U) == "ok"
        assert twins.call("back", va, 2 * U, 3 * U, U) == "ok"
        assert twins.fast.vmm.is_fully_mapped(va, 5 * U)

    @pytest.mark.parametrize("capacity, at, units, error", [
        (16, 4, 2, "CudaInvalidValueError"),  # over the mapping at 4U
        (16, 5, 4, "CudaInvalidAddressError"),  # past the reservation
        (6, 5, 4, "CudaInvalidAddressError"),  # ... with room for one chunk
        (16, 4, 5, "CudaInvalidAddressError"),  # both
    ], ids=["overlap", "past-end", "past-end-full", "overlap-past-end"])
    def test_refused_back_creates_no_chunk(self, capacity, at, units,
                                           error):
        # The reference creates and maps the chunks before the refused
        # one; on the full device it runs out of memory on the way, and
        # over the mapping it is refused for the overlap.
        twins = VmmTwins(capacity * U)
        twins.call("mem_address_reserve", 8 * U)
        va = twins.vas[-1]
        assert twins.call("back", va, 0, 5 * U, U) == "ok"
        assert twins.call("back", va, at * U, units * U, U) == error
        assert twins.refused.vmm.counters.create_calls > 5
        assert twins.fast.vmm.counters.create_calls == 5

    @pytest.mark.parametrize("lo, hi", [(0, 2), (2, 6), (1, 4), (3, 4)])
    def test_a_range_inside_one_back_splits_its_record(self, lo, hi):
        # One record of six chunks; an arena's trim is (2, 6).
        twins = VmmTwins(16 * U)
        twins.call("mem_address_reserve", 6 * U)
        va = twins.vas[-1]
        assert twins.call("back", va, 0, 6 * U, U) == "ok"
        assert twins.call("mem_set_access", va, lo * U + MB,
                          (hi - lo) * U - 2 * MB) == "ok"
        assert twins.call("mem_unmap", va, lo * U, (hi - lo) * U) == "ok"
        assert twins.call("back", va, lo * U, (hi - lo) * U, U) == "ok"
        assert twins.call("mem_unmap", va, 0, hi * U) == "ok"
        assert len(twins.fast.vmm.mappings_at(va)) == 6 - hi

    def test_an_unmap_that_cuts_a_chunk_of_a_record_is_refused(self):
        twins = VmmTwins(16 * U)
        twins.call("mem_address_reserve", 6 * U)
        va = twins.vas[-1]
        assert twins.call("back", va, 0, 6 * U, 2 * U) == "ok"
        before = vmm_state(twins.fast)
        for offset, size in ((U, 2 * U), (2 * U, 3 * U), (U, 4 * U)):
            with pytest.raises(CudaInvalidValueError):
                twins.fast.vmm.mem_unmap(va, offset, size)
            assert vmm_state(twins.fast) == before
        assert twins.call("mem_unmap", va, 2 * U, 2 * U) == "ok"

    def test_alias_maps_a_repeated_handle_twice(self):
        twins = VmmTwins(8 * U)
        twins.call("mem_create", U)
        twins.call("mem_create", U)
        h1, h2 = twins.handles()
        assert twins.call("alias", [h1, h2, h1], U) == "ok"
        assert twins.fast.phys.get(h1).refcount == 3

    def test_alias_charges_every_map_before_any_access(self):
        # 4 MB latencies are not short binary fractions: the order of
        # the adds shows in the clock's last bits from about ten chunks.
        twins = VmmTwins(8 * U)
        twins.call("mem_create", 2 * U)
        twins.call("mem_create", 2 * U)
        assert twins.call("alias", [1, 2] * 8, 2 * U) == "ok"

    def test_alias_over_a_released_but_mapped_chunk(self):
        twins = VmmTwins(8 * U)
        twins.call("mem_address_reserve", 2 * U)
        assert twins.call("back", twins.vas[-1], 0, 2 * U, U) == "ok"
        h1, h2 = twins.handles()
        twins.call("mem_release", h1)
        assert twins.call("alias", [h2, h1], U) == "ok"
        assert twins.fast.phys.get(h1).released
        assert twins.call("mem_unmap", twins.vas[0], 0, 2 * U) == "ok"
        assert twins.fast.phys.get(h1).refcount == 1

    def test_alias_of_a_dead_handle_is_refused_by_both(self):
        twins = VmmTwins(8 * U)
        twins.call("mem_create", U)
        h1 = twins.handles()[0]
        twins.call("mem_release", h1)
        assert twins.call("alias", [h1], U) == "CudaInvalidValueError"

    def test_alias_refuses_a_chunk_of_another_size(self, vmm):
        small, large = vmm.mem_create(2 * MB), vmm.mem_create(4 * MB)
        with pytest.raises(CudaInvalidValueError):
            vmm.alias([small, large], 2 * MB)
        with pytest.raises(CudaInvalidValueError):
            vmm.alias([small], 4 * MB)


class TestDoomedBacks:
    """A ``back`` whose range exceeds the free memory is answered by
    counting, not carving: the same clock, counters, handles, peak and
    error as the reference's create, map and roll back of each chunk."""

    @staticmethod
    def doomed(twins, va, offset, units, chunk):
        """``back`` on both sides, which both refuse with the same
        out-of-memory error and leave in the same state."""
        errors = []
        for device in (twins.fast, twins.ref):
            with pytest.raises(CudaOutOfMemoryError) as exc:
                device.vmm.back(va, offset, units * U, chunk)
            errors.append((exc.value.requested, exc.value.free,
                           exc.value.total))
        assert errors[0] == errors[1]
        assert vmm_state(twins.fast) == vmm_state(twins.ref)
        return errors[0]

    def test_no_chunk_fits(self):
        # One granule free, two-granule chunks: the first create fails,
        # so nothing is unmapped or released.
        twins = VmmTwins(8 * U)
        twins.call("mem_create", 7 * U)
        twins.call("mem_address_reserve", 8 * U)
        assert self.doomed(twins, twins.vas[-1], 0, 4, 2 * U) == (
            2 * U, U, 8 * U)
        counters = twins.fast.vmm.counters
        assert (counters.create_calls, counters.map_calls,
                counters.unmap_calls, counters.release_calls) == (2, 0, 0, 0)

    def test_all_but_the_last_chunk_fit(self):
        # 4 MB latencies are not short binary fractions: here, adding
        # the four creates before the four maps shows in the clock's
        # last bits.
        twins = VmmTwins(8 * U)
        twins.call("mem_address_reserve", 10 * U)
        assert self.doomed(twins, twins.vas[-1], 0, 10, 2 * U) == (
            2 * U, 0, 8 * U)
        phys = twins.fast.phys
        assert phys._next_handle == 5 and phys.live_chunk_count == 0

    def test_after_a_partial_back_at_another_offset(self):
        twins = VmmTwins(12 * U)
        twins.call("mem_address_reserve", 16 * U)
        va = twins.vas[-1]
        assert twins.call("back", va, 8 * U, 3 * U, U) == "ok"
        assert twins.call("back", va, 12 * U, 4 * U, U) == "ok"
        # Five granules are free for eight: the five mapped and rolled
        # back would sit ahead of every mapping already in the table.
        assert self.doomed(twins, va, 0, 8, U) == (U, 0, 12 * U)
        assert twins.fast.vmm.mappings_at(va)[0][0] == 8 * U

    def test_a_misaligned_chunk_is_refused_before_any_spend(self):
        twins = VmmTwins(4 * U)
        twins.call("mem_address_reserve", 8 * U)
        before = vmm_state(twins.fast)
        for device in (twins.fast, twins.ref):
            with pytest.raises(CudaInvalidValueError):
                device.vmm.back(twins.vas[-1], 0, 6 * MB, 3 * MB)
            assert vmm_state(device) == before

    def test_makes_no_chunk(self, monkeypatch):
        calls = []
        create = PhysicalMemory.create
        monkeypatch.setattr(PhysicalMemory, "create",
                            lambda phys, size: calls.append(size)
                            or create(phys, size))
        device = GpuDevice(capacity=4 * U)
        va = device.vmm.mem_address_reserve(8 * U)
        with pytest.raises(CudaOutOfMemoryError):
            device.vmm.back(va, 0, 8 * U, U)
        assert calls == [] and device.vmm.counters.create_calls == 5

    def test_a_flaky_device_fails_its_listed_create(self):
        # The back is doomed (ten chunks, four fit) but the second
        # create is the one that fails: both sides carve to it.
        twins = VmmTwins(8 * MB, make=functools.partial(FlakyDevice,
                                                        fail_on=[2]))
        twins.call("mem_address_reserve", 20 * MB)
        assert self.doomed(twins, twins.vas[-1], 0, 10, U) == (
            U, 6 * MB, 8 * MB)
        assert twins.fast.vmm.counters.create_calls == 2
        # Nothing was kept: a back of the whole device fits.
        assert twins.call("back", twins.vas[-1], 0, 8 * MB, U) == "ok"


def test_release_refs_is_a_loop_of_release_ref():
    sides = [PhysicalMemory(capacity=8 * U) for _ in range(2)]
    for phys in sides:
        h1, h2, h3 = (phys.create(U) for _ in range(3))
        phys.retain(h1, h2, h3, h1)
        phys.release(h2)
        phys.release_refs([h1])
    dead = 10 ** 6
    batch, loop = sides
    with pytest.raises(CudaInvalidValueError) as batched:
        batch.release_refs([h2, h1, dead, h3])
    with pytest.raises(CudaInvalidValueError) as looped:
        for handle in (h2, h1, dead, h3):
            loop.release_refs((handle,))
    assert str(batched.value) == str(looped.value)
    assert {h: (c.refcount, c.released) for h, c in batch.chunks().items()} == {
        h: (c.refcount, c.released) for h, c in loop.chunks().items()} == {
        h1: (1, False), h3: (2, False)}
    assert batch.committed == loop.committed == 2 * U
