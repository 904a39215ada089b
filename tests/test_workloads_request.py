"""Tests for the trace event model."""

import pytest

from repro.units import MB
from repro.workloads.request import Op, Trace, TraceEvent


def subset_iterations(trace, n):
    """A copy of ``trace`` truncated after ``n`` iterations (setup
    events included)."""
    out = Trace(meta=dict(trace.meta),
                compute_us_per_iter=trace.compute_us_per_iter[:n])
    done = 0
    for event in trace.events:
        out.events.append(event)
        if event.op is Op.ITER_END:
            done += 1
            if done >= n:
                break
    return out


def simple_trace():
    trace = Trace()
    trace.iter_start(0)
    trace.alloc("a", 10 * MB)
    trace.alloc("b", 20 * MB)
    trace.free("a")
    trace.iter_end(0)
    trace.iter_start(1)
    trace.alloc("c", 5 * MB)
    trace.free("b")
    trace.free("c")
    trace.iter_end(1)
    return trace


class TestBuilder:
    def test_alloc_free_events(self):
        trace = simple_trace()
        kinds = [e.op for e in trace]
        assert kinds.count(Op.ALLOC) == 3
        assert kinds.count(Op.FREE) == 3

    def test_zero_size_alloc_rejected(self):
        with pytest.raises(ValueError):
            Trace().alloc("x", 0)

    def test_len_counts_all_events(self):
        assert len(simple_trace()) == 10


class TestValidate:
    def test_valid_trace_passes(self):
        simple_trace().validate()

    def test_double_alloc_rejected(self):
        trace = Trace()
        trace.alloc("x", 1 * MB)
        trace.alloc("x", 1 * MB)
        with pytest.raises(ValueError):
            trace.validate()

    def test_free_unknown_rejected(self):
        trace = Trace()
        trace.free("ghost")
        with pytest.raises(ValueError):
            trace.validate()

    def test_nested_iterations_rejected(self):
        trace = Trace()
        trace.iter_start(0)
        trace.iter_start(1)
        with pytest.raises(ValueError):
            trace.validate()

    def test_unclosed_iteration_rejected(self):
        trace = Trace()
        trace.iter_start(0)
        with pytest.raises(ValueError):
            trace.validate()

    def test_end_without_start_rejected(self):
        trace = Trace()
        trace.events.append(TraceEvent(Op.ITER_END, "0"))
        with pytest.raises(ValueError):
            trace.validate()


class TestStats:
    def test_counts(self):
        stats = simple_trace().stats()
        assert stats.n_allocs == 3
        assert stats.n_frees == 3
        assert stats.n_iterations == 2

    def test_mean_size(self):
        stats = simple_trace().stats()
        assert stats.mean_alloc_bytes == pytest.approx(35 * MB / 3)

    def test_peak_live(self):
        stats = simple_trace().stats()
        assert stats.peak_live_bytes == 30 * MB  # a + b live together

    def test_empty_trace(self):
        stats = Trace().stats()
        assert stats.n_allocs == 0
        assert stats.mean_alloc_bytes == 0.0

    def test_str_mentions_counts(self):
        assert "3 allocations" in str(simple_trace().stats())


class TestSubset:
    def test_subset_truncates_iterations(self):
        trace = simple_trace()
        trace.compute_us_per_iter = [100.0, 200.0]
        sub = subset_iterations(trace, 1)
        assert sub.stats().n_iterations == 1
        assert sub.compute_us_per_iter == [100.0]

    def test_subset_keeps_meta(self):
        trace = simple_trace()
        trace.meta["model"] = "test"
        assert subset_iterations(trace, 1).meta["model"] == "test"
