"""Tests for the discrete-event serving simulator.

The headline behaviors: online admission with live allocator state,
chunked KV growth, and — the paper's serving argument — OOM leading to
preemption + requeue + eventual completion instead of job failure.
"""

import pytest

from reference import observe
from repro.serve import (
    PoissonArrivals,
    ReplayArrivals,
    ServingConfig,
    ServingSimulator,
    SloConfig,
    run_serving,
)
from repro.serve.request import RequestState, ServeRequest
from repro.units import MB
from repro.workloads import get_model


def make_request(req_id, arrival, prompt, output):
    return ServeRequest(req_id=req_id, arrival_s=arrival,
                        prompt_tokens=prompt, output_tokens=output)


def light_stream(n=20, rate=2.0, seed=0):
    return PoissonArrivals(rate_per_s=rate).generate(n, seed=seed)


class TestHappyPath:
    def test_all_complete_under_light_load(self):
        result = run_serving(light_stream(), "opt-1.3b", allocator="gmlake")
        assert result.completed == 20
        assert result.rejected == 0
        assert result.preemptions == 0
        for r in result.requests:
            assert r.state is RequestState.FINISHED
            assert r.tokens_done == r.output_tokens
            assert r.ttft_s > 0
            assert r.latency_s >= r.ttft_s

    def test_timestamps_are_ordered(self):
        result = run_serving(light_stream(), "opt-1.3b")
        for r in result.requests:
            assert r.arrival_s <= r.admitted_s <= r.first_token_s \
                <= r.finished_s <= result.makespan_s

    def test_deterministic(self):
        a = run_serving(light_stream(seed=3), "opt-1.3b", allocator="caching")
        b = run_serving(light_stream(seed=3), "opt-1.3b", allocator="caching")
        assert [(r.finished_s, r.tokens_done) for r in a.requests] \
            == [(r.finished_s, r.tokens_done) for r in b.requests]
        assert a.makespan_s == b.makespan_s

    def test_weights_stay_resident(self):
        model = get_model("opt-1.3b")
        result = run_serving(light_stream(n=5), model, allocator="caching")
        assert result.stats.active_bytes >= model.weight_bytes

    def test_report_totals(self):
        result = run_serving(light_stream(), "opt-1.3b")
        report = result.report(SloConfig(ttft_s=60.0, tpot_s=60.0))
        assert report.n_requests == 20
        assert report.completed == 20
        assert report.slo_attainment == 1.0
        assert report.goodput_req_s == pytest.approx(
            report.throughput_req_s)
        assert report.p50_latency_s <= report.p95_latency_s \
            <= report.p99_latency_s


class TestBatchAndGrowth:
    def test_batch_cap_respected(self):
        config = ServingConfig(max_batch=2)
        simulator = ServingSimulator("opt-1.3b", allocator="gmlake",
                                     config=config)
        requests = [make_request(i, 0.0, 64, 64) for i in range(8)]
        result = simulator.run(requests)
        assert result.completed == 8
        # With a cap of 2 the batch drains pairwise: later requests'
        # first tokens appear strictly after earlier ones finish work.
        firsts = sorted(r.first_token_s for r in result.requests)
        assert firsts[2] > firsts[0]

    def test_smaller_chunks_mean_more_reallocs(self):
        def mallocs(chunk_tokens):
            simulator = ServingSimulator(
                "opt-1.3b", allocator="native",
                kv_cache=f"chunked?chunk_tokens={chunk_tokens}")
            result = simulator.run(
                [make_request(0, 0.0, 256, 512)])
            return result.stats.malloc_count

        assert mallocs(128) > mallocs(4096)

    def test_kv_capacity_covers_context(self):
        simulator = ServingSimulator("opt-1.3b", allocator="gmlake",
                                     kv_cache="chunked?chunk_tokens=128")
        result = simulator.run([make_request(0, 0.0, 200, 300)])
        request = result.requests[0]
        assert request.finished
        # 501 tokens in 128-token chunks: admitted with 256, grown by
        # re-allocation to 384 and then 512, each growth a copy.
        metrics = simulator.kv.metrics
        assert metrics.kv_allocs == metrics.kv_frees == 3
        assert metrics.grow_copy_bytes > 0


class TestRejection:
    def test_timeout_rejects_queued_requests(self):
        # One giant batch slot: everyone else waits and times out.
        config = ServingConfig(max_batch=1, queue_timeout_s=0.5)
        simulator = ServingSimulator("opt-1.3b", allocator="gmlake",
                                     config=config)
        requests = [make_request(i, 0.0, 1024, 1024) for i in range(4)]
        result = simulator.run(requests)
        timed_out = [r for r in result.requests
                     if r.reject_reason == "timeout"]
        assert timed_out
        assert result.completed >= 1
        assert all(r.rejected_s is not None for r in timed_out)

    def test_too_large_request_rejected_not_fatal(self):
        model = get_model("opt-1.3b")
        capacity = model.weight_bytes + 300 * MB
        simulator = ServingSimulator(model, allocator="gmlake",
                                     capacity=capacity)
        requests = [
            make_request(0, 0.0, 2048, 1024),  # KV can never fit
            make_request(1, 0.2, 64, 32),      # one 50 MB chunk
        ]
        result = simulator.run(requests)
        by_id = {r.req_id: r for r in result.requests}
        assert by_id[0].reject_reason == "too-large"
        assert by_id[1].finished


class TestPreemption:
    """The acceptance-criteria path: OOM -> preempt -> requeue ->
    eventual completion, never a trace failure."""

    def _pressure_cooker(self, allocator="gmlake"):
        model = get_model("opt-1.3b")
        # Weights + ~870 MB of KV headroom: two growing requests
        # collide mid-decode and one must be preempted.
        capacity = model.weight_bytes + 900 * MB
        config = ServingConfig(max_batch=4, queue_timeout_s=600.0)
        simulator = ServingSimulator(model, allocator=allocator,
                                     capacity=capacity, config=config,
                                     scheduler="fcfs")
        requests = [
            make_request(0, 0.0, 1024, 800),
            make_request(1, 0.01, 1024, 800),
        ]
        return simulator.run(requests)

    def test_oom_preempts_and_requeues(self):
        result = self._pressure_cooker()
        assert result.preemptions >= 1
        preempted = [r for r in result.requests if r.preemptions > 0]
        assert preempted

    def test_preempted_requests_eventually_complete(self):
        result = self._pressure_cooker()
        for r in result.requests:
            assert r.state is RequestState.FINISHED
            assert r.tokens_done == r.output_tokens

    def test_preemption_under_caching_allocator_too(self):
        result = self._pressure_cooker(allocator="caching")
        assert all(r.finished for r in result.requests)

    def test_thrashing_request_is_rejected_not_looped(self):
        """max_preemptions bounds the retry storm."""
        model = get_model("opt-1.3b")
        capacity = model.weight_bytes + 900 * MB
        config = ServingConfig(max_batch=4, queue_timeout_s=600.0,
                               max_preemptions=0)
        simulator = ServingSimulator(model, allocator="gmlake",
                                     capacity=capacity, config=config,
                                     scheduler="fcfs")
        requests = [
            make_request(0, 0.0, 1024, 800),
            make_request(1, 0.01, 1024, 800),
        ]
        result = simulator.run(requests)
        # The run still terminates, with every request resolved.
        for r in result.requests:
            assert r.finished or r.reject_reason == "preempted-out"


class TestStepWorkspaceIsTheTwoCalls:
    """The decode step's ``malloc_free`` against ``BaseAllocator``'s
    malloc-then-free (the registry's allocator-runs group): same
    requests, same allocator, same clock and, traced, the same trace."""

    @staticmethod
    def _scenario(allocator, kv_cache, headroom, n, rate, traced=False):
        model = get_model("opt-1.3b")
        return lambda trace, gauges: run_serving(
            light_stream(n=n, rate=rate, seed=5), model, allocator=allocator,
            kv_cache=kv_cache, capacity=model.weight_bytes + headroom,
            scheduler="fcfs",
            config=ServingConfig(max_batch=8, queue_timeout_s=600.0),
            trace=trace if traced else None)

    # Each stream preempts (some workspaces find no cached fit), and a
    # workspace the cache serves sets the active peak: a shortcut that
    # skips the peak's ratchet changes `stats`.
    GMLAKE = ("gmlake", "chunked", 700 * MB, 10, 4.0)

    @pytest.mark.parametrize("scenario", [
        GMLAKE, ("caching", "paged?block_tokens=16", 1500 * MB, 30, 8.0)],
        ids=["gmlake-chunked", "caching-paged"])
    def test_same_run_with_the_loop_patched_back(self, scenario):
        fast = observe(self._scenario(*scenario))
        assert fast.result.preemptions > 0
        loop = observe(self._scenario(*scenario), slow=("allocator-runs",))
        assert loop.seen == fast.seen

    def test_same_trace_with_the_loop_patched_back(self):
        """An attached trace sees every workspace's alloc and free."""
        serve = self._scenario(*self.GMLAKE, traced=True)
        fast = observe(serve, memory_every=1)
        loop = observe(serve, slow=("allocator-runs",), memory_every=1)
        assert loop.seen == fast.seen


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_batch": 0},
        {"queue_timeout_s": 0.0},
        {"max_preemptions": -1},
    ])
    def test_bad_configs_rejected(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            ServingConfig(**kwargs)

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            ServingSimulator("opt-175b")

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(KeyError):
            ServingSimulator("opt-1.3b", scheduler="lottery")


class TestTimelineAndReplayArrivals:
    def test_replayed_arrivals_serve_in_order(self):
        stream = ReplayArrivals([0.0, 0.5, 1.0]).generate(3, seed=0)
        result = run_serving(stream, "opt-1.3b")
        assert result.completed == 3
        assert result.makespan_s >= 1.0
