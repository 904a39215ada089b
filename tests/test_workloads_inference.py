"""Tests for the serving trace (a recording of the serving simulator)
and ZeRO stages 1/2."""

import pytest

from repro.sim import run_workload
from repro.api import resolve_allocator
from repro.serve import PoissonArrivals, ServingConfig, ServingSimulator
from repro.sim.engine import AllocationRecorder, run_trace
from repro.gpu.device import GpuDevice
from repro.units import A100_80GB, MB
from repro.workloads import Op, TrainingWorkload, ZeroConfig, get_model
from repro.workloads.inference import kv_bytes


class TestKvBytes:
    def test_formula(self):
        model = get_model("opt-1.3b")
        assert kv_bytes(model, 100) == 2 * 24 * 100 * 2048 * 2

    def test_scales_with_seq(self):
        model = get_model("opt-13b")
        assert kv_bytes(model, 200) == 2 * kv_bytes(model, 100)


def record(model, n_requests, seed=0, allocator="caching",
           capacity=A100_80GB, max_batch=16, kv_cache="chunked"):
    """Serve ``n_requests`` all at once with FCFS and record the
    allocator stream; returns (the run's result, the trace)."""
    simulator = ServingSimulator(
        model, allocator=allocator, capacity=capacity, kv_cache=kv_cache,
        config=ServingConfig(max_batch=max_batch, queue_timeout_s=1e6))
    recorder = simulator.allocator.add_observer(AllocationRecorder())
    stream = PoissonArrivals(rate_per_s=1000).generate(n_requests, seed=seed)
    return simulator.run(stream), recorder.trace


class TestServingTrace:
    def test_trace_validates(self):
        _, trace = record("opt-1.3b", 50)
        trace.validate()

    def test_all_requests_served_and_freed(self):
        result, trace = record("opt-1.3b", 40, max_batch=8)
        assert result.completed == 40
        live = {}
        for event in trace.events:
            if event.op is Op.ALLOC:
                live[event.tensor] = event.size
            else:
                del live[event.tensor]
        # Only the weights stay live at the end.
        assert list(live.values()) == [get_model("opt-1.3b").weight_bytes]
        assert trace.stats().peak_live_bytes > get_model("opt-1.3b").weight_bytes

    def test_deterministic(self):
        _, a = record("opt-1.3b", 30, seed=5)
        _, b = record("opt-1.3b", 30, seed=5)
        assert [(e.op, e.tensor, e.size) for e in a.events] == [
            (e.op, e.tensor, e.size) for e in b.events
        ]

    def test_seed_changes_lengths(self):
        _, a = record("opt-1.3b", 30, seed=1)
        _, b = record("opt-1.3b", 30, seed=2)
        assert a.stats().total_alloc_bytes != b.stats().total_alloc_bytes

    @pytest.mark.parametrize("kv_cache", ["chunked", "paged?block_tokens=16"])
    @pytest.mark.parametrize("allocator", ["caching", "gmlake", "expandable"])
    def test_replay_reproduces_the_run(self, allocator, kv_cache):
        """Replaying a recording on a fresh device with the same
        allocator makes the run's calls again, so it ends at the run's
        peaks and malloc count."""
        result, trace = record("opt-1.3b", 30, seed=3, allocator=allocator,
                               kv_cache=kv_cache)
        replay = run_trace(resolve_allocator(allocator, GpuDevice()), trace)
        assert not replay.oom
        assert replay.peak_active_bytes == result.stats.peak_active_bytes
        assert replay.peak_reserved_bytes == result.stats.peak_reserved_bytes
        assert replay.malloc_count == result.stats.malloc_count

    def test_a_run_that_meets_an_oom_is_not_recorded(self):
        """Under pressure the simulator preempts on OOM; the recorder
        refuses, since the stream would carry the allocator's own
        decisions."""
        model = get_model("opt-1.3b")
        with pytest.raises(RuntimeError, match="OOM"):
            record(model, 40, capacity=model.weight_bytes + 200 * MB)

    def test_gmlake_beats_caching_on_serving_churn(self):
        """Never-repeating KV sizes are the worst case for size caching;
        stitching still wins on reserved memory."""
        _, trace = record("opt-6.7b", 120, seed=3)
        base = run_trace(resolve_allocator("caching", GpuDevice()), trace)
        gml = run_trace(resolve_allocator("gmlake", GpuDevice()), trace)
        assert not base.oom and not gml.oom
        assert gml.utilization_ratio >= base.utilization_ratio
        assert gml.utilization_ratio > 0.9


class TestZeroStages:
    def test_stage_properties(self):
        stage1 = ZeroConfig(n_gpus=4, stage=1)
        stage2 = ZeroConfig(n_gpus=4, stage=2)
        stage3 = ZeroConfig(n_gpus=4, stage=3)
        assert stage1.shards_optimizer and not stage1.shards_grads
        assert stage2.shards_grads and not stage2.shards_params
        assert stage3.shards_params

    def test_single_gpu_never_shards(self):
        config = ZeroConfig(n_gpus=1, stage=3)
        assert not config.shards_optimizer

    def test_stage_memory_ordering(self):
        """Higher ZeRO stages hold strictly less persistent memory."""
        peaks = {}
        for stage in (0, 1, 2, 3):
            workload = TrainingWorkload("opt-1.3b", batch_size=2, n_gpus=4,
                                        strategies="R", iterations=2,
                                        zero_stage=stage)
            peaks[stage] = workload.build_trace().stats().peak_live_bytes
        assert peaks[1] < peaks[0]
        assert peaks[2] < peaks[1]
        assert peaks[3] < peaks[2]

    def test_stage2_has_no_gathers(self):
        workload = TrainingWorkload("opt-1.3b", batch_size=2, n_gpus=4,
                                    iterations=1, zero_stage=2)
        trace = workload.build_trace()
        assert not any(".f.g" in e.tensor for e in trace.events)

    def test_invalid_stage_rejected(self):
        with pytest.raises(ValueError):
            ZeroConfig(n_gpus=2, stage=5)

    def test_stage_override_threading(self):
        workload = TrainingWorkload("opt-1.3b", batch_size=2, n_gpus=4,
                                    iterations=1, zero_stage=1)
        assert workload.zero.stage == 1
        result = run_workload(workload, "gmlake")
        assert not result.oom
