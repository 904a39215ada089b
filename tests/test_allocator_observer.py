"""Tests for the allocator event-hook interface and its subscribers."""

import pytest

from repro.allocators.base import AllocatorObserver
from repro.allocators.caching import CachingAllocator
from repro.analysis import PeakMemoryObserver
from repro.api import resolve_allocator
from repro.core.allocator import GMLakeAllocator
from repro.errors import OutOfMemoryError
from repro.gpu.device import GpuDevice
from repro.sim.engine import AllocationRecorder, run_trace
from repro.sim.timeline import TimelineRecorder
from repro.units import GB, MB
from repro.workloads import TrainingWorkload
from repro.workloads.request import Op, Trace, TraceEvent


class RecordingObserver(AllocatorObserver):
    def __init__(self):
        self.events = []

    def on_alloc(self, allocator, allocation):
        self.events.append(("alloc", allocation.size))

    def on_free(self, allocator, allocation):
        self.events.append(("free", allocation.size))

    def on_empty_cache(self, allocator):
        self.events.append(("empty_cache", None))

    def on_oom(self, allocator, size, error):
        self.events.append(("oom", size))


class TestObserverHooks:
    def test_alloc_free_events(self):
        allocator = CachingAllocator(GpuDevice(capacity=1 * GB))
        observer = allocator.add_observer(RecordingObserver())
        a = allocator.malloc(10 * MB)
        allocator.free(a)
        assert observer.events == [("alloc", 10 * MB), ("free", 10 * MB)]

    def test_empty_cache_event_fires_through_subclass_impl(self):
        # empty_cache is implemented by subclasses via _empty_cache_impl;
        # the notification must fire for all of them.
        for allocator in (CachingAllocator(GpuDevice(capacity=1 * GB)),
                          GMLakeAllocator(GpuDevice(capacity=1 * GB))):
            observer = allocator.add_observer(RecordingObserver())
            allocator.free(allocator.malloc(10 * MB))
            allocator.empty_cache()
            assert ("empty_cache", None) in observer.events

    def test_oom_event_carries_size(self):
        allocator = CachingAllocator(GpuDevice(capacity=32 * MB))
        observer = allocator.add_observer(RecordingObserver())
        with pytest.raises(OutOfMemoryError):
            allocator.malloc(64 * MB)
        assert observer.events == [("oom", 64 * MB)]

    def test_hooks_fire_after_bookkeeping(self):
        seen = []

        class StatsObserver(AllocatorObserver):
            def on_alloc(self, allocator, allocation):
                seen.append(allocator.active_bytes)

        allocator = CachingAllocator(GpuDevice(capacity=1 * GB))
        allocator.add_observer(StatsObserver())
        allocator.malloc(10 * MB)
        assert seen and seen[0] >= 10 * MB

    def test_remove_observer(self):
        allocator = CachingAllocator(GpuDevice(capacity=1 * GB))
        observer = allocator.add_observer(RecordingObserver())
        allocator.remove_observer(observer)
        allocator.remove_observer(observer)  # idempotent
        allocator.malloc(10 * MB)
        assert observer.events == []

    def test_multiple_observers(self):
        allocator = CachingAllocator(GpuDevice(capacity=1 * GB))
        first = allocator.add_observer(RecordingObserver())
        second = allocator.add_observer(RecordingObserver())
        allocator.malloc(10 * MB)
        assert len(first.events) == len(second.events) == 1


class TestTimelineRecorder:
    def test_samples_every_n_events(self):
        allocator = CachingAllocator(GpuDevice(capacity=1 * GB))
        recorder = allocator.add_observer(TimelineRecorder(allocator, every=2))
        live = [allocator.malloc(5 * MB) for _ in range(4)]
        for allocation in live:
            allocator.free(allocation)
        assert len(recorder.points) == 4  # 8 events / every=2
        assert all(p.reserved_bytes >= p.active_bytes >= 0
                   for p in recorder.points)

    def test_oom_and_empty_cache_always_sampled(self):
        allocator = CachingAllocator(GpuDevice(capacity=32 * MB))
        recorder = allocator.add_observer(
            TimelineRecorder(allocator, every=1000))
        allocator.free(allocator.malloc(4 * MB))
        allocator.empty_cache()
        with pytest.raises(OutOfMemoryError):
            allocator.malloc(64 * MB)
        assert len(recorder.points) == 2  # the cliffs, despite every=1000

    def test_bad_every(self):
        allocator = CachingAllocator(GpuDevice(capacity=1 * GB))
        with pytest.raises(ValueError):
            TimelineRecorder(allocator, every=0)

    def test_run_trace_timeline_via_observer(self):
        trace = Trace(meta={"global_batch": 1})
        trace.iter_start(0)
        for i in range(6):
            trace.alloc(f"t{i}", 5 * MB)
        for i in range(6):
            trace.free(f"t{i}")
        trace.iter_end(0)
        trace.compute_us_per_iter = [100.0]
        allocator = CachingAllocator(GpuDevice(capacity=1 * GB))
        result = run_trace(allocator, trace, record_timeline=True,
                           timeline_every=4)
        # 12 alloc/free events / 4 + the final sample.
        assert len(result.timeline) == 4
        # The recorder detached at the end of the replay.
        assert allocator._observers == []


class TestPeakMemoryObserver:
    def test_captures_report_at_peak(self):
        allocator = CachingAllocator(GpuDevice(capacity=1 * GB))
        observer = allocator.add_observer(PeakMemoryObserver())
        a = allocator.malloc(100 * MB)
        b = allocator.malloc(200 * MB)
        allocator.free(b)
        allocator.free(a)
        assert observer.at_peak is not None
        assert observer.at_peak.reserved_bytes >= 300 * MB
        assert observer.at_oom is None

    def test_min_growth_throttles_report_builds(self):
        allocator = CachingAllocator(GpuDevice(capacity=2 * GB))
        calls = []

        class CountingObserver(PeakMemoryObserver):
            def _maybe_snapshot(self, alloc):
                before = self.at_peak
                super()._maybe_snapshot(alloc)
                if self.at_peak is not before:
                    calls.append(1)

        observer = allocator.add_observer(CountingObserver(min_growth=100 * MB))
        for _ in range(20):
            allocator.malloc(25 * MB)  # 500 MB monotone ramp
        # ~500 MB growth / 100 MB granularity, not one build per alloc.
        assert 1 <= len(calls) <= 6
        assert observer.at_peak.reserved_bytes >= 400 * MB

    def test_exact_mode_with_zero_min_growth(self):
        allocator = CachingAllocator(GpuDevice(capacity=1 * GB))
        observer = allocator.add_observer(PeakMemoryObserver(min_growth=0))
        allocator.malloc(100 * MB)
        allocator.malloc(100 * MB)
        assert observer.at_peak.reserved_bytes >= 200 * MB

    def test_captures_report_at_first_oom(self):
        allocator = CachingAllocator(GpuDevice(capacity=64 * MB))
        observer = allocator.add_observer(PeakMemoryObserver())
        allocator.malloc(40 * MB)
        with pytest.raises(OutOfMemoryError):
            allocator.malloc(100 * MB)
        assert observer.at_oom is not None
        assert observer.oom_requested == 100 * MB
        assert observer.at_oom.reserved_bytes >= 40 * MB


class TestAllocationRecorder:
    @pytest.mark.parametrize("name", ["caching", "gmlake", "expandable"])
    def test_every_run_operation_is_recorded(self, name):
        """Run operations make their per-call hooks once a recorder is
        attached: the repeated transient is never vouched for, and a
        run is recorded call by call."""
        allocator = resolve_allocator(name, GpuDevice(capacity=4 * GB))
        allocator.free(allocator.malloc(64 * MB))  # a cached block
        recorder = allocator.add_observer(AllocationRecorder())
        assert allocator.transient_repeat(MB) is None
        allocator.malloc_free(MB)
        allocator.free_run(allocator.malloc_run(2 * MB, 4))
        events = recorder.trace.events
        assert [(e.op, e.size) for e in events] == (
            [(Op.ALLOC, MB), (Op.FREE, 0)]
            + [(Op.ALLOC, 2 * MB)] * 4 + [(Op.FREE, 0)] * 4)
        recorder.trace.validate()

    def test_a_refused_run_is_not_counted(self):
        """Unobserved, a doomed run on a full device is counted in
        closed form; recorded, it is left to the calls."""
        def full_device():
            allocator = CachingAllocator(GpuDevice(capacity=256 * MB))
            allocator.malloc(200 * MB)
            return allocator

        assert full_device().refuse_run(64 * MB, 2, 1) == 0
        allocator = full_device()
        allocator.add_observer(AllocationRecorder())
        assert allocator.refuse_run(64 * MB, 2, 1) is None

    def test_recording_a_replay_gives_back_its_stream(self):
        trace = TrainingWorkload("gpt-2", batch_size=2, strategies="R",
                                 iterations=2).build_trace()
        allocator = resolve_allocator("gmlake", GpuDevice())
        recorder = allocator.add_observer(AllocationRecorder())
        run_trace(allocator, trace)
        names = {}
        for event in trace.events:
            if event.op is Op.ALLOC:
                names[event.tensor] = f"a{len(names) + 1}"
        assert recorder.trace.events == [
            TraceEvent(e.op, names[e.tensor], e.size) for e in trace.events
            if e.op in (Op.ALLOC, Op.FREE)]
