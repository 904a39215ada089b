"""Disaggregated prefill/decode serving and cross-replica KV migration.

Covers the ``repro.serve.disagg`` subsystem end to end: phase-split
correctness (per-phase waits, merged lifecycles), the migration ledger
(``migrated_bytes`` billed on both ends, no KV parcel leaked or
stranded mid-flight, rollback on rejection), per-fleet autoscaling and
observability (fleet gauges, ``migrate_out``/``migrate_in`` trace
spans that survive Chrome-trace validation), the ``ServingSpec.disagg``
JSON surface, and — the load-bearing invariant — that a colocated run
is bit-for-bit untouched by the disagg machinery existing or having
run in the same process.
"""

import pytest

from repro import api
from repro.api import SpecError
from repro.obs import GaugeSampler, TraceRecorder, validate_chrome_trace
from repro.serve import (
    LengthSampler,
    PoissonArrivals,
    ServingConfig,
    TierHierarchy,
    WeightedFairScheduler,
    run_serving,
    run_serving_cluster,
    run_serving_disagg,
)
from repro.serve.disagg import DisaggServingResult
from repro.serve.kvcache import ChunkedKVCache
from repro.units import GB
from repro.workloads.models import get_model

from tests.test_equivalence_goldens import _request_digest, serving_digest

MODEL = "opt-1.3b"


def _stream(n=40, rate=4.0, seed=0, mean_prompt=512, mean_output=256):
    lengths = LengthSampler(mean_prompt=mean_prompt,
                            mean_output=mean_output)
    return PoissonArrivals(rate_per_s=rate).generate(n, lengths, seed=seed)


def _run(n=40, **kw):
    kw.setdefault("capacity", 8 * GB)
    return run_serving_disagg(_stream(n), MODEL, **kw)


class TestDisaggRun:
    def test_everything_completes_and_migrates(self):
        result = _run(prefill_replicas=2, decode_replicas=2)
        assert isinstance(result, DisaggServingResult)
        assert result.completed == 40
        assert result.rejected == 0
        # Every multi-token request's KV crossed the wire exactly once,
        # and nothing is still in flight at the end.
        multi = sum(1 for r in result.requests if r.output_tokens > 1)
        assert result.migrations == multi
        assert result.pending_imports == 0

    def test_migration_billed_on_both_ends(self):
        result = _run(prefill_replicas=1, decode_replicas=1)
        exported = sum(r.kv_metrics.migrated_bytes
                       for r in result.prefill_results)
        imported = sum(r.kv_metrics.migrated_bytes
                       for r in result.decode_results)
        assert exported > 0
        # A completed run imports every byte it exported; the merged
        # total is both directions, like swapped_bytes.
        assert imported == exported
        assert result.migrated_bytes == exported + imported
        assert result.kv_metrics.migrated_bytes == result.migrated_bytes

    def test_per_phase_wait_attribution(self):
        result = _run(prefill_replicas=1, decode_replicas=1)
        for request in result.requests:
            if not request.finished:
                continue
            assert request.prefill_wait_s is not None
            assert request.prefill_wait_s >= 0.0
            if request.output_tokens > 1:
                assert request.decode_wait_s is not None
                assert request.decode_wait_s >= 0.0
            # TTFT is entirely a prefill-side quantity: the first token
            # is emitted by the prefill clone's admission.
            assert request.first_token_s is not None
            assert request.first_token_s <= (request.finished_s
                                             or float("inf"))
        report = result.report()
        assert report.prefill_wait_s >= 0.0
        assert report.decode_wait_s >= 0.0
        assert report.migrated_mb > 0.0
        assert report.as_row()["migrated (MB)"] == round(
            report.migrated_mb, 1)

    def test_replica_ids_are_global(self):
        result = _run(prefill_replicas=2, decode_replicas=3)
        prefill_ids = {r.replica_id for r in result.prefill_results}
        decode_ids = {r.replica_id for r in result.decode_results}
        assert prefill_ids == {0, 1}
        assert decode_ids == {2, 3, 4}
        for request in result.requests:
            if request.finished and request.output_tokens > 1:
                assert request.replica in decode_ids

    def test_interconnect_speed_orders_makespans(self):
        """A faster link never makes the run slower (same workload)."""
        slow = _run(interconnect="pcie?gb_per_s=2")
        fast = _run(interconnect="nvlink?gb_per_s=600&latency_us=1")
        assert fast.makespan_s <= slow.makespan_s
        assert slow.migrated_bytes == fast.migrated_bytes

    def test_extras_and_summary_surface(self):
        result = _run(prefill_replicas=2, decode_replicas=1,
                      interconnect="nvlink")
        extras = result.extras()
        assert extras["prefill_replicas"] == 2
        assert extras["decode_replicas"] == 1
        assert extras["interconnect"] == "nvlink"
        assert extras["migrations"] == result.migrations
        assert extras["migrated_mb"] > 0
        assert result.summary().startswith("2P+1D over nvlink:")

    def test_streaming_report_matches_exact_counts(self):
        result = _run()
        exact = result.report()
        streaming = result.report(streaming=True)
        assert streaming.completed == exact.completed
        assert streaming.migrated_mb == exact.migrated_mb
        assert streaming.prefill_wait_s == pytest.approx(
            exact.prefill_wait_s)
        assert streaming.decode_wait_s == pytest.approx(
            exact.decode_wait_s)


class TestNoKvLeak:
    def _assert_no_leak(self, result):
        assert result.pending_imports == 0
        metrics = result.kv_metrics
        assert metrics.kv_allocs == metrics.kv_frees
        for request in result.requests:
            assert request.finished or request.rejected

    def test_clean_run_leaks_nothing(self, assert_offload_drained):
        self._assert_no_leak(_run(prefill_replicas=2, decode_replicas=2))
        assert_offload_drained()

    def test_preemption_during_decode_rolls_back_cleanly(
            self, assert_offload_drained):
        """A tight decode fleet preempts mid-stream; every exported KV
        parcel is still either imported or dropped with its request."""
        result = run_serving_disagg(
            _stream(n=30, rate=6.0, mean_prompt=1500, mean_output=900),
            MODEL, prefill_replicas=2, decode_replicas=1,
            capacity=4 * GB,
            config=ServingConfig(max_batch=8, queue_timeout_s=3.0),
        )
        assert result.preemptions > 0 or result.rejected > 0
        self._assert_no_leak(result)
        assert_offload_drained()

    def test_rejection_regime_leaks_nothing(self, assert_offload_drained):
        """Timeouts at both fleets: rejected requests' in-flight KV is
        forgotten, not stranded."""
        result = run_serving_disagg(
            _stream(n=40, rate=12.0, mean_prompt=1200, mean_output=600),
            MODEL, prefill_replicas=1, decode_replicas=1,
            capacity=4 * GB,
            config=ServingConfig(max_batch=4, queue_timeout_s=1.0),
        )
        assert result.rejected > 0
        self._assert_no_leak(result)
        assert_offload_drained()


class TestDisaggComposesWithOffload:
    """A decode replica under memory pressure: KV arrives over the
    wire, then the replica's own offload construction (swap, tiers)
    takes over.  The constants are this 2P+2D run's observables at the
    commit before the import wrapper and the prefill subclass were
    folded into the one preemption policy."""

    RECOMPUTE_DIGEST = "af6c1c37f20a9f16dc6c24e2fb081f7f"
    SWAP_DIGEST = "072c2a23e81caa3d09d0e96667bfc9dd"
    MIGRATED_BYTES = 14193524736  # 24 parcels, billed once per direction

    def _pressured(self, **kw):
        trace = TraceRecorder()
        result = run_serving_disagg(
            _stream(n=24, rate=6.0, mean_prompt=1500, mean_output=900),
            MODEL, prefill_replicas=2, decode_replicas=2,
            allocator="caching", capacity=4 * GB, trace=trace,
            config=ServingConfig(max_batch=8, queue_timeout_s=30.0), **kw)
        assert sum(r.preemptions for r in result.prefill_results) == 0
        assert result.migrations == 24
        assert result.pending_imports == 0
        assert result.migrated_bytes == self.MIGRATED_BYTES
        # One crossing per request: a preempted decode request comes
        # back from wherever its replica parked it, never from the wire.
        for kind in ("migrate_out", "migrate_in"):
            crossed = [e.req_id for e in trace.events if e.kind == kind]
            assert len(crossed) == len(set(crossed)) == 24
        return result

    def test_swap_after_import(self, assert_offload_drained):
        result = self._pressured(preemption="swap")
        assert result.preemption_name == "swap"
        assert sum(r.preemptions for r in result.decode_results) == 54
        assert _request_digest(result.requests) == self.SWAP_DIGEST
        metrics = result.kv_metrics
        assert metrics.swapped_bytes == 43184553984
        assert metrics.preempt_copy_bytes == 365494272
        assert not metrics.demoted_bytes and not metrics.promoted_bytes
        assert_offload_drained()

    def test_tiers_too_small_to_park_degrade_to_recompute(
            self, assert_offload_drained):
        """``dram?gb=0.05`` holds no victim of this stream, so every
        eviction falls back to drop-and-re-prefill."""
        result = self._pressured(memory_tiers="dram?gb=0.05")
        assert result.preemption_name == "tiered"
        assert sum(r.preemptions for r in result.decode_results) == 57
        assert _request_digest(result.requests) == self.RECOMPUTE_DIGEST
        metrics = result.kv_metrics
        assert metrics.preempt_copy_bytes == 21946761216
        assert metrics.swapped_bytes == 0
        assert not metrics.demoted_bytes and not metrics.promoted_bytes
        assert_offload_drained()

    def test_unbounded_dram_after_import_matches_swap(
            self, assert_offload_drained):
        """The composed form of ``test_unbounded_dram_hierarchy_matches_
        legacy_swap``.  Before the fold the import wrapper hid the
        policy from the simulator's type test, so a decode replica
        ignored ``memory_tiers`` when preempting (this run digested as
        ``RECOMPUTE_DIGEST`` with an empty tier ledger)."""
        result = self._pressured(memory_tiers="dram?gb=0")
        assert result.preemption_name == "tiered"
        assert _request_digest(result.requests) == self.SWAP_DIGEST
        metrics = result.kv_metrics
        assert metrics.demoted_bytes == metrics.promoted_bytes \
            == {"dram": 43184553984 // 2}
        assert metrics.swapped_bytes == 0
        assert_offload_drained()


class TestColocatedByteIdentity:
    def test_colocated_unchanged_by_disagg_running_first(self):
        """The golden invariant, in-process: a colocated run digests
        identically whether or not a disagg run happened before it —
        the disagg machinery shares no mutable state with the
        single-replica path."""
        def colocated():
            return serving_digest(run_serving(
                _stream(), MODEL, allocator="gmlake", capacity=8 * GB))

        before = colocated()
        _run(prefill_replicas=2, decode_replicas=2)
        after = colocated()
        assert before == after

    def test_colocated_report_has_no_migration(self):
        result = run_serving(_stream(), MODEL, allocator="gmlake",
                             capacity=8 * GB)
        assert result.kv_metrics.migrated_bytes == 0
        report = result.report()
        assert report.migrated_mb == 0.0
        assert report.prefill_wait_s == 0.0
        assert report.decode_wait_s == 0.0
        assert "migrated_mb" not in result.extras()


class TestAutoscalingAndGauges:
    def test_per_fleet_autoscaling_series(self):
        gauges = GaugeSampler(0.5)
        result = run_serving_disagg(
            _stream(n=60, rate=8.0), MODEL,
            prefill_replicas=3, decode_replicas=3,
            capacity=8 * GB,
            autoscaler="queue-depth?high=2000&low=200",
            gauges=gauges,
        )
        assert result.autoscaler_name == "queue-depth"
        # Each fleet carries its own size series, tagged by name.
        assert result.prefill_fleet_points
        assert result.decode_fleet_points
        assert result.prefill_fleet_points == gauges.fleet_series("prefill")
        assert result.decode_fleet_points == gauges.fleet_series("decode")
        for points, fleet_size in ((result.prefill_fleet_points, 3),
                                   (result.decode_fleet_points, 3)):
            for _, active in points:
                assert 1 <= active <= fleet_size

    def test_gauge_points_merge_all_replicas(self):
        gauges = GaugeSampler(0.5)
        result = _run(prefill_replicas=2, decode_replicas=2,
                      gauges=gauges)
        replicas = {p.replica for p in result.gauge_points}
        assert replicas == {0, 1, 2, 3}


class TestDisaggTrace:
    def _traced(self, **kw):
        trace = TraceRecorder()
        result = _run(trace=trace, **kw)
        return trace, result

    def test_migrate_events_recorded(self):
        trace, result = self._traced()
        outs = [e for e in trace.events if e.kind == "migrate_out"]
        ins = [e for e in trace.events if e.kind == "migrate_in"]
        assert len(outs) == result.migrations
        assert len(ins) == result.migrations
        for event in outs + ins:
            assert event.args["bytes"] > 0
            assert event.args["us"] > 0

    def test_chrome_trace_validates_with_migrating_spans(self):
        trace, _ = self._traced(prefill_replicas=2, decode_replicas=2)
        assert validate_chrome_trace(trace.chrome_trace()) > 0
        names = {span["name"] for span in trace.spans()}
        assert "migrating" in names

    def test_fleet_tagged_autoscale_counters(self):
        trace = TraceRecorder()
        run_serving_disagg(
            _stream(n=60, rate=8.0), MODEL,
            prefill_replicas=2, decode_replicas=2, capacity=8 * GB,
            autoscaler="queue-depth?high=2000&low=200", trace=trace,
        )
        counters = {e["name"] for e in trace.chrome_trace()["traceEvents"]
                    if e.get("ph") == "C"}
        assert "active replicas (prefill)" in counters
        assert "active replicas (decode)" in counters


class TestRunnerValidation:
    def test_fleet_sizes_validated(self):
        with pytest.raises(ValueError, match="at least one replica"):
            _run(prefill_replicas=0)
        with pytest.raises(ValueError, match="at least one replica"):
            _run(decode_replicas=0)

    def test_shared_component_instances_rejected(self):
        with pytest.raises(ValueError, match="spec string"):
            _run(kv_cache=ChunkedKVCache(get_model(MODEL)))
        with pytest.raises(ValueError, match="spec string"):
            _run(preemption=api.resolve("preemption", "recompute"))

    @pytest.mark.parametrize("runner", [run_serving_cluster,
                                        run_serving_disagg])
    def test_shared_scheduler_instance_rejected(self, runner):
        """A ``wfq`` instance carries virtual times: replica 1 would
        inherit replica 0's."""
        with pytest.raises(ValueError, match="own scheduler"):
            runner(_stream(4), MODEL,
                   scheduler=WeightedFairScheduler("t0:2,t1:1"))

    @pytest.mark.parametrize("runner", [run_serving_cluster,
                                        run_serving_disagg])
    def test_shared_tier_hierarchy_rejected(self, runner):
        """A built hierarchy binds to one replica's clock."""
        with pytest.raises(ValueError, match="own hierarchy"):
            runner(_stream(4), MODEL,
                   memory_tiers=TierHierarchy(["dram?gb=1"]))


class TestServingSpecDisagg:
    def _spec(self, **disagg):
        return api.ExperimentSpec(
            mode="serve", allocators=["gmlake"], capacity=6 * GB,
            serving=api.ServingSpec(
                model=MODEL, rate_per_s=4.0, n_requests=20,
                disagg=dict(disagg) if disagg else
                {"prefill_replicas": 1, "decode_replicas": 1},
            ),
        )

    def test_json_round_trip(self):
        spec = self._spec(prefill_replicas=2, decode_replicas=3,
                          interconnect="nvlink?gb_per_s=300")
        clone = api.ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.serving.disagg.prefill_replicas == 2
        assert clone.serving.disagg.decode_replicas == 3
        assert clone.serving.disagg.interconnect \
            == "nvlink?gb_per_s=300.0"

    def test_parse_time_validation(self):
        with pytest.raises(SpecError, match="replicas"):
            api.DisaggSpec(prefill_replicas=0)
        with pytest.raises(SpecError, match="replicas"):
            api.DisaggSpec(decode_replicas=-1)
        with pytest.raises(SpecError):
            api.DisaggSpec(interconnect="hypertransport")
        with pytest.raises(SpecError):
            self._spec(interconnect="nvlink?gb_per_s=0")

    def test_disagg_excludes_replicas(self):
        with pytest.raises(SpecError, match="disagg"):
            api.ServingSpec(replicas=2,
                            disagg={"prefill_replicas": 1,
                                    "decode_replicas": 1})

    def test_autoscaler_allowed_under_disagg(self):
        spec = api.ServingSpec(
            autoscaler="queue-depth?high=100&low=10",
            disagg={"prefill_replicas": 2, "decode_replicas": 2})
        assert spec.disagg.prefill_replicas == 2

    def test_api_run_routes_to_disagg(self):
        results = api.run(self._spec(prefill_replicas=1,
                                     decode_replicas=1))
        assert len(results) == 1
        result = results[0]
        assert result.mode == "serve-disagg"
        assert isinstance(result.raw, DisaggServingResult)
        extras = result.extras()
        assert extras["prefill_replicas"] == 1
        assert extras["decode_replicas"] == 1
        assert "prefill_wait_s" in extras
        assert "decode_wait_s" in extras
        assert extras["migrated_mb"] > 0
