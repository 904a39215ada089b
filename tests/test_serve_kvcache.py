"""Tests for the KV-cache memory models (chunked vs. paged).

The acceptance-critical invariants: block accounting never leaks on
preempt/requeue, fixed-seed runs are byte-identical, and on a
fragmentation-heavy workload the paged layout's peak memory never
exceeds the chunked layout's under the splitting caching allocator.
"""

import dataclasses

import pytest

from repro.api import (
    ComponentSpec,
    ExperimentSpec,
    ServingSpec,
    SpecError,
    component_names,
    iter_components,
    resolve,
    run,
)
from repro.serve import (
    PoissonArrivals,
    ServingConfig,
    ServingSimulator,
    run_serving,
)
from repro.serve.request import ServeRequest
from repro.units import GB, MB
from repro.workloads import get_model
from repro.workloads.inference import ServingWorkload, kv_bytes


def make_request(req_id, arrival, prompt, output):
    return ServeRequest(req_id=req_id, arrival_s=arrival,
                        prompt_tokens=prompt, output_tokens=output)


def churn_stream(n=40, rate=2.0, seed=1):
    return PoissonArrivals(rate_per_s=rate).generate(n, seed=seed)


class TestKVCacheSpec:
    def test_registry_names(self):
        assert component_names("kv-cache") == ["chunked", "paged", "paged-shared"]
        for info in iter_components("kv-cache"):
            assert info.name in component_names("kv-cache")
            assert info.params

    def test_parse_round_trip(self):
        spec = ComponentSpec.parse("paged?block_tokens=32", "kv-cache")
        assert spec.name == "paged"
        assert spec.params == {"block_tokens": 32}
        assert ComponentSpec.parse(spec.spec_string(), "kv-cache") == spec
        assert ComponentSpec.from_dict(spec.to_dict(), "kv-cache") == spec

    def test_bare_name(self):
        assert ComponentSpec.parse("chunked", "kv-cache").spec_string() == "chunked"

    def test_unknown_model_rejected(self):
        with pytest.raises(SpecError, match="unknown KV-cache"):
            ComponentSpec.parse("slab?block_tokens=16", "kv-cache")

    def test_unknown_param_rejected(self):
        with pytest.raises(SpecError, match="no parameter"):
            ComponentSpec.parse("paged?page_mb=2", "kv-cache")

    def test_ill_typed_param_rejected(self):
        with pytest.raises(SpecError, match="bad value"):
            ComponentSpec.parse("paged?block_tokens=tiny", "kv-cache")

    def test_non_positive_param_rejected(self):
        with pytest.raises(SpecError, match=">= 1"):
            ComponentSpec.parse("paged?block_tokens=0", "kv-cache")

    def test_chunked_granularity_comes_from_the_spec(self):
        model = get_model("opt-1.3b")
        assert resolve("kv-cache", "chunked", model).chunk_tokens == 256
        pinned = resolve("kv-cache", "chunked?chunk_tokens=64", model)
        assert pinned.chunk_tokens == 64

    def test_model_instance_passes_through(self):
        model = get_model("opt-1.3b")
        kv = resolve("kv-cache", "paged", model)
        assert resolve("kv-cache", kv, model) is kv

    def test_model_instance_cannot_be_reused_across_runs(self):
        """A bound model carries per-run metrics; rebinding must fail
        loudly instead of leaking the first run's counters."""
        model = get_model("opt-1.3b")
        kv = resolve("kv-cache", "paged", model)
        ServingSimulator(model, allocator="caching", kv_cache=kv)
        with pytest.raises(ValueError, match="already bound"):
            ServingSimulator(model, allocator="gmlake", kv_cache=kv)


class TestPagedAccounting:
    """Block accounting never leaks — on finish, preempt or reject."""

    def _pressure_cooker(self, kv_cache="paged?block_tokens=64"):
        model = get_model("opt-1.3b")
        # Each request peaks at ~365 MB of KV (1824 tokens at ~12.6 MB
        # per 64-token block); 600 MB of headroom holds one but not
        # two, so the growing requests collide mid-decode and one must
        # be preempted.  (Chunked needs less pressure because a growth
        # re-alloc transiently doubles a request's footprint; paged
        # never does, so the pool has to be genuinely full.)
        capacity = model.weight_bytes + 600 * MB
        config = ServingConfig(max_batch=4, queue_timeout_s=600.0)
        simulator = ServingSimulator(model, allocator="caching",
                                     capacity=capacity, config=config,
                                     scheduler="fcfs", kv_cache=kv_cache)
        requests = [
            make_request(0, 0.0, 1024, 800),
            make_request(1, 0.01, 1024, 800),
        ]
        return simulator, simulator.run(requests)

    def test_preemption_happens_and_everyone_finishes(self):
        _, result = self._pressure_cooker()
        assert result.preemptions >= 1
        assert all(r.finished for r in result.requests)

    def test_no_block_leak_after_preempt_and_requeue(self):
        simulator, result = self._pressure_cooker()
        kv = simulator.kv
        assert result.preemptions >= 1
        assert kv.live_requests == 0
        assert kv.live_blocks == 0
        assert kv.live_kv_bytes == 0
        assert kv.metrics.kv_allocs == kv.metrics.kv_frees
        # Only the resident weights survive the run in the session.
        assert set(simulator.session.live) == {"weights"}

    def test_no_leak_under_chunked_either(self):
        simulator, result = self._pressure_cooker(kv_cache="chunked")
        kv = simulator.kv
        assert result.preemptions >= 1
        assert kv.live_requests == 0
        assert kv.live_kv_bytes == 0
        assert kv.metrics.kv_allocs == kv.metrics.kv_frees
        assert set(simulator.session.live) == {"weights"}

    def test_too_large_request_rolls_back_partial_block_table(self):
        model = get_model("opt-1.3b")
        # Room for the weights plus only a handful of blocks: the giant
        # request OOMs mid-table and must give every block back.
        capacity = model.weight_bytes + 8 * kv_bytes(model, 64)
        simulator = ServingSimulator(model, allocator="caching",
                                     capacity=capacity,
                                     kv_cache="paged?block_tokens=64")
        requests = [
            make_request(0, 0.0, 2048, 512),  # needs ~40 blocks: impossible
            make_request(1, 0.2, 64, 32),     # 2 blocks: fits
        ]
        result = simulator.run(requests)
        by_id = {r.req_id: r for r in result.requests}
        assert by_id[0].reject_reason == "too-large"
        assert by_id[1].finished
        assert simulator.kv.live_blocks == 0
        assert simulator.kv.live_requests == 0

    def test_capacity_tracks_block_table(self):
        simulator = ServingSimulator("opt-1.3b", allocator="gmlake",
                                     kv_cache="paged?block_tokens=16")
        result = simulator.run([make_request(0, 0.0, 100, 60)])
        request = result.requests[0]
        assert request.finished
        # 100 + 60 = 160 tokens fit exactly in 10 sixteen-token blocks.
        assert simulator.kv.metrics.peak_blocks == 10


class TestDeterminism:
    """Fixed seed => byte-identical serving results and KV metrics."""

    @pytest.mark.parametrize("kv_cache", ["chunked", "paged?block_tokens=16"])
    def test_metrics_byte_identical(self, kv_cache):
        def once():
            return run_serving(churn_stream(seed=7), "opt-1.3b",
                               allocator="caching", capacity=4 * GB,
                               scheduler="memory-aware", kv_cache=kv_cache)

        a, b = once(), once()
        assert dataclasses.asdict(a.kv_metrics) == dataclasses.asdict(b.kv_metrics)
        assert [(r.finished_s, r.tokens_done, r.preemptions)
                for r in a.requests] == \
               [(r.finished_s, r.tokens_done, r.preemptions)
                for r in b.requests]
        assert a.makespan_s == b.makespan_s
        assert a.stats.peak_reserved_bytes == b.stats.peak_reserved_bytes


class TestChunkedVsPaged:
    """The head-to-head ordering the bench asserts, in miniature."""

    def _serve(self, kv_cache):
        # Fragmentation-heavy: heavy-tailed lengths churning a tight
        # pool under the splitting caching allocator.
        return run_serving(churn_stream(n=40, rate=2.0, seed=1), "opt-1.3b",
                           allocator="caching", capacity=4 * GB,
                           config=ServingConfig(max_batch=16,
                                                queue_timeout_s=30.0),
                           scheduler="memory-aware", kv_cache=kv_cache)

    def test_paged_peak_memory_never_exceeds_chunked(self):
        chunked = self._serve("chunked")
        paged = self._serve("paged?block_tokens=16")
        assert chunked.completed == paged.completed == 40
        assert paged.peak_reserved_bytes <= chunked.peak_reserved_bytes

    def test_fragmentation_moves_from_pool_to_cache(self):
        chunked = self._serve("chunked")
        paged = self._serve("paged?block_tokens=16")
        # Cache-level waste: paged's block tails are far tighter than
        # chunked's 256-token chunk tails.
        assert (paged.kv_metrics.internal_frag_ratio
                < chunked.kv_metrics.internal_frag_ratio)
        # Growth never copies under paged KV; chunked always re-allocs.
        assert paged.kv_metrics.grow_copy_bytes == 0
        assert chunked.kv_metrics.grow_copy_bytes > 0

    def test_offline_trace_paged_variant(self):
        chunked = ServingWorkload("opt-1.3b", n_requests=30, seed=3)
        paged = ServingWorkload("opt-1.3b", n_requests=30, seed=3,
                                kv_cache="paged?block_tokens=16")
        trace = paged.build_trace()
        trace.validate()
        assert trace.meta["kv_cache"] == "paged?block_tokens=16"
        model = get_model("opt-1.3b")
        kv_sizes = {e.size for e in trace.events
                    if e.tensor.startswith("kv") and e.op.value == "alloc"}
        # The pool only ever sees one KV allocation size.
        assert kv_sizes == {kv_bytes(model, 16)}
        # The chunked trace sees many (never-repeating) sizes.
        chunked_sizes = {e.size for e in chunked.build_trace().events
                         if e.tensor.startswith("kv") and e.op.value == "alloc"}
        assert len(chunked_sizes) > 5

    def test_bad_offline_kv_cache_rejected(self):
        with pytest.raises(SpecError):
            ServingWorkload("opt-1.3b", kv_cache="radix")


class TestClusterAggregation:
    def test_fleet_kv_metrics_merge_across_replicas(self):
        from repro.serve import run_serving_cluster

        result = run_serving_cluster(
            churn_stream(n=30, rate=6.0, seed=2), "opt-1.3b",
            n_replicas=2, allocator="caching", capacity=4 * GB,
            kv_cache="paged?block_tokens=16")
        merged = result.kv_metrics
        assert merged is not None
        assert merged.kv_cache == "paged"
        assert merged.kv_allocs == sum(
            r.kv_metrics.kv_allocs for r in result.replicas)
        assert merged.util_samples == sum(
            r.kv_metrics.util_samples for r in result.replicas)
        assert 0.0 <= merged.internal_frag_ratio < 1.0

    def test_shared_model_instance_rejected(self):
        from repro.serve import run_serving_cluster

        model = get_model("opt-1.3b")
        with pytest.raises(ValueError, match="own model"):
            run_serving_cluster(churn_stream(n=4), model, n_replicas=2,
                                kv_cache=resolve("kv-cache", "paged", model))


class TestExperimentSpecIntegration:
    def test_serving_spec_validates_kv_cache(self):
        with pytest.raises(SpecError):
            ServingSpec(kv_cache="radix?x=1")

    def test_serve_mode_round_trips_and_runs(self):
        spec = ExperimentSpec(
            mode="serve",
            allocators=["caching"],
            capacity=4 * GB,
            serving=ServingSpec(model="opt-1.3b", n_requests=10,
                                rate_per_s=4.0,
                                kv_cache="paged?block_tokens=16"),
        )
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone.serving.kv_cache == "paged?block_tokens=16"
        results = run(clone)
        assert len(results) == 1
        assert results[0].extras()["kv_cache"] == "paged"
        assert results[0].extras()["completed"] == 10
