"""Tests for the trace replay engine, metrics and timeline."""

import pytest

from repro.api import resolve_allocator
from repro.gpu.device import GpuDevice
from repro.sim import (
    mem_reduction_ratio,
    render_timeline,
    run_trace,
    run_workload,
)
from repro.sim.engine import ReplaySession
from repro.sim.metrics import compare_results
from repro.sim.timeline import TimelinePoint, downsample
from repro.units import GB, MB
from repro.workloads import TrainingWorkload
from repro.workloads.request import Trace


def tiny_trace():
    trace = Trace(meta={"global_batch": 4})
    trace.iter_start(0)
    trace.alloc("a", 10 * MB)
    trace.alloc("b", 20 * MB)
    trace.free("a")
    trace.free("b")
    trace.iter_end(0)
    trace.iter_start(1)
    trace.alloc("c", 30 * MB)
    trace.free("c")
    trace.iter_end(1)
    trace.compute_us_per_iter = [1000.0, 1000.0]
    return trace


class TestRunTrace:
    def test_basic_replay(self):
        device = GpuDevice(capacity=1 * GB)
        result = run_trace(resolve_allocator("caching", device), tiny_trace())
        assert result.iterations_completed == 2
        assert result.peak_active_bytes == 30 * MB
        assert not result.oom

    def test_compute_time_advances_clock(self):
        device = GpuDevice(capacity=1 * GB)
        result = run_trace(resolve_allocator("caching", device), tiny_trace())
        assert result.total_time_s >= 0.002  # two 1 ms iterations

    def test_oom_is_recorded_not_raised(self):
        device = GpuDevice(capacity=32 * MB)
        trace = Trace(meta={"global_batch": 1})
        trace.iter_start(0)
        trace.alloc("huge", 64 * MB)
        trace.iter_end(0)
        trace.compute_us_per_iter = [1.0]
        result = run_trace(resolve_allocator("gmlake", device), trace)
        assert result.oom
        assert result.oom_iteration == 0
        assert result.iterations_completed == 0

    def test_unknown_free_raises(self):
        device = GpuDevice(capacity=1 * GB)
        trace = Trace()
        trace.free("ghost")
        with pytest.raises(ValueError):
            run_trace(resolve_allocator("caching", device), trace)

    def test_timeline_recording(self):
        device = GpuDevice(capacity=1 * GB)
        result = run_trace(
            resolve_allocator("caching", device), tiny_trace(),
            record_timeline=True, timeline_every=1,
        )
        assert len(result.timeline) >= 5
        assert all(p.reserved_bytes >= p.active_bytes >= 0
                   for p in result.timeline)

    def test_throughput_uses_steady_state(self):
        device = GpuDevice(capacity=1 * GB)
        result = run_trace(resolve_allocator("caching", device), tiny_trace())
        assert result.throughput_samples_per_s > 0

    def test_utilization_properties(self):
        device = GpuDevice(capacity=1 * GB)
        result = run_trace(resolve_allocator("caching", device), tiny_trace())
        assert 0.0 < result.utilization_ratio <= 1.0
        assert result.fragmentation_ratio == pytest.approx(
            1 - result.utilization_ratio
        )

    def test_summary_line(self):
        device = GpuDevice(capacity=1 * GB)
        result = run_trace(resolve_allocator("gmlake", device), tiny_trace())
        assert "gmlake" in result.summary()


class TestSessionRuns:
    """``try_alloc_run`` / ``free_run`` / ``try_malloc_free`` are
    ``try_alloc`` / ``free`` per name, for any allocator (gmlake
    inherits the run loops)."""

    @pytest.mark.parametrize("allocator", ["caching", "gmlake"])
    def test_run_equals_singles(self, allocator):
        sessions = [ReplaySession(resolve_allocator(
            allocator, GpuDevice(capacity=64 * MB))) for _ in range(2)]
        names = [f"t{i}" for i in range(30)]
        got = sessions[0].try_alloc_run(names, 3 * MB)
        singles = 0
        for name in names:
            if not sessions[1].try_alloc(name, 3 * MB):
                break
            singles += 1
        assert 0 < got == singles < len(names)
        sessions[0].free_run(names[:got:2])
        for name in names[:got:2]:
            sessions[1].free(name)
        a, b = sessions
        assert list(a.live) == list(b.live)
        assert a.live_bytes == b.live_bytes
        assert a.clock.now_us == b.clock.now_us
        assert a.allocator.stats() == b.allocator.stats()

    @pytest.mark.parametrize("allocator", ["caching", "gmlake"])
    def test_transient_equals_alloc_then_free(self, allocator):
        a, b = [ReplaySession(resolve_allocator(
            allocator, GpuDevice(capacity=64 * MB))) for _ in range(2)]
        for session in (a, b):
            session.alloc("kv", 50 * MB)
        # A new segment, a cached fit, 10 MB that fits, 20 MB that cannot.
        for size, fits in [(64_000, True), (300_000, True),
                           (10 * MB, True), (20 * MB, False)]:
            before = a.clock.now_us
            assert a.try_malloc_free(size) is fits
            assert b.try_alloc("ws", size) is fits
            if fits:
                b.free("ws")
            assert a.clock.now_us == b.clock.now_us > before  # time is spent
            assert a.allocator.stats() == b.allocator.stats()
            assert list(a.live) == list(b.live) == ["kv"]
            assert a.live_bytes == b.live_bytes
        a.allocator.check_invariants()

    def test_name_already_live_is_rejected_before_allocating(self):
        session = ReplaySession(resolve_allocator("caching", GpuDevice()))
        session.alloc("a", MB)
        with pytest.raises(ValueError, match="'a' allocated twice"):
            session.try_alloc_run(["b", "a"], MB)
        assert list(session.live) == ["a"]

    def test_unknown_name_stops_the_run_where_free_would(self):
        session = ReplaySession(resolve_allocator("caching", GpuDevice()))
        session.try_alloc_run(["a", "b", "c"], MB)
        with pytest.raises(ValueError, match="unknown tensor 'ghost'"):
            session.free_run(["a", "ghost", "c"])
        assert list(session.live) == ["b", "c"]
        assert session.allocator.live_allocation_count == 2


class TestRunWorkload:
    def test_end_to_end(self):
        workload = TrainingWorkload("opt-1.3b", batch_size=2, iterations=2)
        result = run_workload(workload, "caching")
        assert result.iterations_completed == 2
        assert result.meta["model"] == "opt-1.3b"

    def test_custom_capacity(self):
        workload = TrainingWorkload("opt-1.3b", batch_size=2, iterations=2)
        result = run_workload(workload, "caching", capacity=8 * GB)
        assert result.oom  # 1.3B full fine-tune cannot fit 8 GB


class TestMetrics:
    def test_mem_reduction_ratio(self):
        assert mem_reduction_ratio([100, 100], [80, 60]) == pytest.approx(0.3)

    def test_mem_reduction_empty(self):
        assert mem_reduction_ratio([], []) == 0.0

    def test_comparison_row(self):
        device_a = GpuDevice(capacity=1 * GB)
        device_b = GpuDevice(capacity=1 * GB)
        base = run_trace(resolve_allocator("caching", device_a), tiny_trace())
        gml = run_trace(resolve_allocator("gmlake", device_b), tiny_trace())
        row = compare_results("tiny", base, gml)
        assert row.label == "tiny"
        assert isinstance(row.reserved_saving_gb, float)
        assert row.throughput_ratio is not None
        assert set(row.as_dict()) >= {"workload", "saving (GB)"}


class TestTimelineRendering:
    def test_downsample_limits_points(self):
        points = [TimelinePoint(float(i), i, i * 2) for i in range(1000)]
        assert len(downsample(points, 50)) == 50

    def test_downsample_keeps_short_series(self):
        points = [TimelinePoint(0.0, 1, 2)]
        assert downsample(points, 50) == points

    def test_render_contains_curves(self):
        points = [
            TimelinePoint(float(i), i * 10 * MB, i * 15 * MB) for i in range(100)
        ]
        art = render_timeline(points, width=40, height=8, capacity=2 * GB)
        assert "#" in art and "-" in art

    def test_render_empty(self):
        assert "empty" in render_timeline([])

    def test_downsample_bad_count(self):
        with pytest.raises(ValueError):
            downsample([], 0)
