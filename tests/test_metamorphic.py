"""Metamorphic tests for the serving simulator.

Instead of asserting absolute numbers, each test perturbs one input of
a fixed-seed run along an axis with a known direction and checks the
output moves the right way (or doesn't move at all):

- **rate → 0**: an arbitrarily slow arrival stream never rejects,
  times out or preempts — each request has the machine to itself;
- **capacity ↑**: growing the device never decreases goodput or
  completions on the identical stream;
- **sharing off ≡ baseline**: with no request declaring a prefix, the
  ref-counted paged path replays byte-identically to the committed
  pre-refactor golden (the `serve/caching-paged-memaware-mmpp`
  scenario digest, floats and request lifecycles included);
- **weight scaling**: WFQ weights ``t0:4,t1:2`` produce the very same
  schedule as ``t0:2,t1:1`` — only ratios matter — down to identical
  request-lifecycle digests;
- **faults off ≡ baseline**: passing ``faults="none", retry="none"``
  explicitly replays byte-identically to the committed pre-fault
  golden digest;
- **tiers off ≡ baseline**: passing ``memory_tiers=""`` explicitly
  replays byte-identically to the committed pre-tier golden digest;
- **infinite-bandwidth DRAM ≥ recompute**: a free-transfer offload
  tier can only help — goodput and completions never fall below the
  recompute-only run on the identical stream;
- **mttr → 0**: vanishing repair times recover the no-fault fleet's
  completions (and nearly its goodput);
- **retry budget ↑**: at light load a larger crash-retry budget never
  completes fewer requests;
- **uncoupled fleet ≡ its shards**: without crash windows or hedging
  no request can cross replicas, so a fleet's per-request digest is
  the digest of each dispatched shard served alone — whether the fleet
  loop drains each replica in one pick or ticks once per pick.
"""

import functools
import json
from pathlib import Path

import pytest

from reference import observe
from repro.serve import (
    LengthSampler,
    MMPPArrivals,
    MultiTenantArrivals,
    PoissonArrivals,
    ServingConfig,
    ServingSimulator,
    dispatch_requests,
    run_serving,
    run_serving_cluster,
)
from repro.units import GB
from repro.workloads.inference import DECODE_TOKENS_PER_S
from test_equivalence_goldens import (
    SCENARIOS,
    _request_digest,
    serving_digest,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "hotpath_goldens.json"

MODEL = "opt-1.3b"


def _serve(stream, capacity=6 * GB, scheduler="memory-aware",
           timeout_s=60.0, max_batch=16, **kw):
    return run_serving(
        stream, MODEL, allocator="caching", capacity=capacity,
        scheduler=scheduler, kv_cache="paged?block_tokens=16",
        config=ServingConfig(max_batch=max_batch,
                             queue_timeout_s=timeout_s), **kw)


class TestRateToZero:
    def test_trickle_arrivals_never_reject_or_preempt(self):
        """At a vanishing arrival rate every request runs alone on an
        otherwise idle machine: nothing can queue long enough to time
        out, and nothing contends for KV memory."""
        stream = PoissonArrivals(rate_per_s=0.01).generate(20, seed=5)
        report = _serve(stream, capacity=4 * GB, timeout_s=5.0).report()
        assert report.completed == 20
        assert report.rejected == 0
        assert report.preemptions == 0

    def test_trickle_holds_under_prefix_sharing_too(self):
        stream = MultiTenantArrivals(
            tenants=4, rate_per_s=0.01, shared_prefix_tokens=256,
        ).generate(20, seed=5)
        result = run_serving(
            stream, MODEL, allocator="caching", capacity=4 * GB,
            kv_cache="paged-shared",
            config=ServingConfig(max_batch=16, queue_timeout_s=5.0))
        report = result.report()
        assert report.completed == 20
        assert report.rejected == 0
        assert report.preemptions == 0


class TestCapacityMonotonicity:
    def test_more_memory_never_hurts_goodput(self):
        """The identical arrival stream (regenerated per run — the
        simulator mutates requests) on a growing device: completions
        and goodput are non-decreasing in capacity."""
        completions, goodputs = [], []
        for capacity in (4 * GB, 6 * GB, 8 * GB):
            stream = PoissonArrivals(rate_per_s=6.0).generate(60, seed=7)
            report = _serve(stream, capacity=capacity, timeout_s=10.0,
                            max_batch=32).report()
            completions.append(report.completed)
            goodputs.append(report.goodput_req_s)
        assert completions == sorted(completions)
        assert goodputs == sorted(goodputs)

    def test_more_memory_never_hurts_multi_tenant_goodput(self):
        completions = []
        for capacity in (4 * GB, 8 * GB):
            stream = MultiTenantArrivals(
                tenants=4, rate_per_s=8.0, shared_prefix_tokens=256,
            ).generate(60, seed=7)
            result = run_serving(
                stream, MODEL, allocator="caching", capacity=capacity,
                kv_cache="paged-shared", scheduler="wfq",
                config=ServingConfig(max_batch=32, queue_timeout_s=10.0))
            completions.append(result.report().completed)
        assert completions == sorted(completions)


class TestSharingOffIsByteIdentical:
    def test_paged_golden_unchanged_by_refactor(self):
        """The ref-count refactor of ``PagedKVCache`` must be invisible
        when nothing shares: re-run the committed paged golden scenario
        and compare the full digest — counters, float timings and the
        MD5 over every request lifecycle."""
        goldens = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        name = "serve/caching-paged-memaware-mmpp"
        assert SCENARIOS[name]() == goldens[name]

    def test_shared_cache_without_prefixes_matches_plain_paged(self):
        """paged-shared degenerates to paged when no request declares
        a prefix: identical request lifecycles, identical KV ledger."""
        digests, ledgers = [], []
        for kv_cache in ("paged?block_tokens=16",
                         "paged-shared?block_tokens=16"):
            stream = PoissonArrivals(rate_per_s=6.0).generate(50, seed=11)
            result = run_serving(
                stream, MODEL, allocator="caching", capacity=4 * GB,
                scheduler="memory-aware", kv_cache=kv_cache,
                config=ServingConfig(max_batch=16, queue_timeout_s=60.0))
            digests.append(_request_digest(result.requests))
            m = result.kv_metrics
            ledgers.append((m.kv_allocs, m.kv_frees, m.peak_kv_bytes,
                            m.peak_blocks, m.preempt_copy_bytes))
        assert digests[0] == digests[1]
        assert ledgers[0] == ledgers[1]


class TestWeightScaleInvariance:
    def _run(self, weights):
        stream = MultiTenantArrivals(
            tenants=2, rate_per_s=10.0, shared_prefix_tokens=0,
        ).generate(60, seed=13)
        return run_serving(
            stream, MODEL, allocator="caching", capacity=6 * GB,
            scheduler=f"wfq?weights={weights}",
            kv_cache="paged?block_tokens=16",
            config=ServingConfig(max_batch=4, queue_timeout_s=10.0))

    def test_scaled_weights_schedule_identically(self):
        baseline = self._run("t0:2,t1:1")
        scaled = self._run("t0:4,t1:2")
        assert (_request_digest(baseline.requests)
                == _request_digest(scaled.requests))

    def test_duplicate_identical_weights_collapse(self):
        baseline = self._run("t0:2,t1:1")
        duplicated = self._run("t0:2,t1:1,t0:2")
        assert (_request_digest(baseline.requests)
                == _request_digest(duplicated.requests))


class TestFaultsOffIsByteIdentical:
    def test_explicit_none_matches_committed_golden(self):
        """``faults="none", retry="none"`` must be the identity: the
        committed pre-fault golden scenario replays to the same full
        digest — counters, float timings and the MD5 over every
        request lifecycle — with the gates passed explicitly."""
        goldens = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        arrivals = MMPPArrivals(rate_calm_per_s=4.0, rate_burst_per_s=16.0,
                                mean_dwell_s=10.0)
        stream = arrivals.generate(
            100, LengthSampler(mean_prompt=512, mean_output=256), seed=0)
        result = run_serving(
            stream, MODEL, allocator="caching", capacity=8 * GB,
            scheduler="memory-aware", kv_cache="paged?block_tokens=16",
            faults="none", retry="none")
        assert serving_digest(result) \
            == goldens["serve/caching-paged-memaware-mmpp"]


class TestTiersOffIsByteIdentical:
    def test_explicit_empty_tiers_match_committed_golden(self):
        """``memory_tiers=""`` must be the identity: the committed
        pre-tier golden scenario replays to the same full digest —
        counters, float timings and the MD5 over every request
        lifecycle — with the gate passed explicitly."""
        goldens = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        arrivals = MMPPArrivals(rate_calm_per_s=4.0, rate_burst_per_s=16.0,
                                mean_dwell_s=10.0)
        stream = arrivals.generate(
            100, LengthSampler(mean_prompt=512, mean_output=256), seed=0)
        result = run_serving(
            stream, MODEL, allocator="caching", capacity=8 * GB,
            scheduler="memory-aware", kv_cache="paged?block_tokens=16",
            memory_tiers="")
        assert serving_digest(result) \
            == goldens["serve/caching-paged-memaware-mmpp"]


class TestTierLimits:
    def _run(self, memory_tiers):
        stream = PoissonArrivals(rate_per_s=8.0).generate(60, seed=7)
        return run_serving(
            stream, MODEL, allocator="caching", capacity=3 * GB,
            scheduler="memory-aware", kv_cache="paged?block_tokens=16",
            config=ServingConfig(max_batch=32, queue_timeout_s=60.0),
            memory_tiers=memory_tiers)

    def test_free_transfers_never_hurt_goodput(self):
        """An unbounded DRAM tier with (near-)infinite bandwidth and
        vanishing setup latency makes offload preemption free:
        restoration costs ~nothing where recompute re-runs prefill, so
        completions and goodput can only improve."""
        recompute = self._run("").report()
        free = self._run(
            "dram?gb=0&gb_per_s=1e9&latency_us=1e-9").report()
        assert free.completed >= recompute.completed
        assert free.goodput_req_s >= recompute.goodput_req_s
        assert recompute.preemptions > 0     # the axis actually engaged


class TestFaultLimits:
    def _fleet(self, faults, retry):
        stream = PoissonArrivals(rate_per_s=4.0).generate(80, seed=7)
        return run_serving_cluster(
            stream, MODEL, n_replicas=2, allocator="caching",
            capacity=6 * GB, scheduler="memory-aware",
            kv_cache="paged?block_tokens=16", faults=faults, retry=retry)

    def test_mttr_to_zero_recovers_no_fault_completions(self):
        """Crashes with vanishing repair times are harmless blips: the
        fleet completes exactly what the fault-free fleet completes,
        and gives up almost none of its goodput re-running the
        interrupted work."""
        clean = self._fleet("none", "none").report()
        blips = self._fleet("replica-crash?mtbf_s=5&mttr_s=1e-6",
                            "budget?max=8").report()
        assert blips.completed == clean.completed
        assert blips.failed == 0
        assert blips.goodput_req_s >= 0.95 * clean.goodput_req_s

    def test_bigger_retry_budget_never_completes_fewer(self):
        """At light load (retries add no meaningful contention and the
        crash schedule is a pure function of the seed, not the load) a
        larger retry budget can only rescue more crash victims."""
        completions = []
        for budget in (1, 2, 4):
            report = self._fleet("replica-crash?mtbf_s=10&mttr_s=3",
                                 f"budget?max={budget}").report()
            completions.append(report.completed)
        assert completions == sorted(completions)


@pytest.mark.parametrize("retry", ["none", "budget?max=2"])
@pytest.mark.parametrize("faults", ["none", "straggler?slowdown=3&prob=0.2"])
class TestUncoupledFleetIsItsShards:
    """Neither a straggler nor a retry budget lets a request change
    replica, so these fleets are independent partitions."""

    N_REPLICAS = 3
    REPLICA = dict(allocator="caching", capacity=3 * GB,
                   scheduler="memory-aware",
                   kv_cache="paged?block_tokens=16")

    @staticmethod
    def _stream():
        return PoissonArrivals(rate_per_s=16.0).generate(120, seed=3)

    def _replicas(self, faults, retry):
        """The fleet's simulators and the shards its front-end deals."""
        shards = dispatch_requests(
            self._stream(), self.N_REPLICAS,
            drain_tokens_per_s=DECODE_TOKENS_PER_S)
        sims = [ServingSimulator(MODEL, replica_id=i, faults=faults,
                                 retry=retry, **self.REPLICA)
                for i in range(self.N_REPLICAS)]
        return sims, shards

    @classmethod
    def fleet(cls, faults, retry):
        """The fleet, as a ``reference.observe`` scenario."""
        def serve(trace, gauges):
            fleet = run_serving_cluster(
                cls._stream(), MODEL, n_replicas=cls.N_REPLICAS,
                faults=faults, retry=retry, **cls.REPLICA)
            assert fleet.preemptions > 0     # the fleet is under pressure
            return fleet
        return serve

    def test_fleet_equals_each_shard_served_alone(self, faults, retry):
        sims, shards = self._replicas(faults, retry)
        alone = [request for sim, shard in zip(sims, shards)
                 for request in sim.run(shard).requests]
        assert (_request_digest(alone)
                == _request_digest(_shipped(faults, retry).result.requests))

    def test_loop_choice_is_a_speed_choice_only(self, faults, retry):
        """Ticked once per pick (the registry's fleet-loop group)
        instead of drained in one pick per replica, an uncoupled fleet
        replays to the very same run."""
        assert (observe(self.fleet(faults, retry), slow=("fleet-loop",)).seen
                == _shipped(faults, retry).seen)


@functools.cache
def _shipped(faults, retry):
    """The fleet as shipped, observed once for both tests above."""
    return observe(TestUncoupledFleetIsItsShards.fleet(faults, retry))
