"""Preemption policies: recompute equivalence and swap accounting.

The ``recompute`` policy must be *byte-identical* to the simulator's
pre-refactor inlined behaviour (also pinned by the pre-refactor golden
fixtures in ``test_equivalence_goldens.py``); ``swap`` must charge
PCIe both ways, account ``swapped_bytes``, and never leak host-side
ledger entries.
"""

import warnings
from types import SimpleNamespace

import pytest

from repro.api import ComponentSpec, SpecError, resolve
from repro.gpu.device import GpuDevice
from repro.gpu.latency import LatencyModel
from repro.serve import (
    DramTier,
    KVCacheMetrics,
    NvlinkInterconnect,
    PcieInterconnect,
    PoissonArrivals,
    ServingConfig,
    ServingSimulator,
    run_serving,
)
from repro.units import GB, MB


def _pressure_stream(n=100, rate=8.0, seed=0):
    return PoissonArrivals(rate_per_s=rate).generate(n, seed=seed)


def _run(preemption, *, allocator="caching", capacity=6 * GB, n=100,
         rate=8.0, seed=0, kv_cache="chunked", scheduler="fcfs"):
    return run_serving(
        _pressure_stream(n=n, rate=rate, seed=seed), "opt-1.3b",
        allocator=allocator, capacity=capacity, scheduler=scheduler,
        kv_cache=kv_cache, preemption=preemption,
        config=ServingConfig(max_batch=16, queue_timeout_s=30.0))


def _swap_link(policy):
    """The interconnect pricing a swap policy's (private) host tier."""
    (host,) = policy.hierarchy.tiers
    return host.interconnect


def _digest(result):
    """Every simulated metric, exact (floats included)."""
    metrics = result.kv_metrics
    return {
        "requests": [
            (r.req_id, r.state.name, r.tokens_done, r.preemptions,
             repr(r.admitted_s), repr(r.first_token_s), repr(r.finished_s),
             repr(r.rejected_s), r.reject_reason)
            for r in result.requests
        ],
        "makespan": repr(result.makespan_s),
        "peaks": (result.peak_active_bytes, result.peak_reserved_bytes),
        "kv": (metrics.kv_allocs, metrics.kv_frees, metrics.peak_kv_bytes,
               metrics.grow_copy_bytes, metrics.preempt_copy_bytes,
               metrics.swapped_bytes),
    }


class TestResolve:
    def test_names(self):
        assert resolve("preemption", "recompute").name == "recompute"
        assert resolve("preemption", "swap").name == "swap"

    def test_instance_passes_through(self):
        policy = resolve("preemption", "swap")
        assert resolve("preemption", policy) is policy

    def test_spec_params(self):
        policy = ComponentSpec.parse(
            "swap?interconnect=pcie?gb_per_s=12", "preemption").build()
        assert _swap_link(policy).gb_per_s == 12.0
        # The pre-interconnect spelling fails at parse time.
        for legacy in ("swap?gb_per_s=12", "swap?pcie_gb_per_s=12",
                       "swap?pcie_latency_us=5"):
            with pytest.raises(SpecError, match="no parameter"):
                ComponentSpec.parse(legacy, "preemption")

    def test_rebind_rejected(self):
        """A policy carries per-run state, so one simulator only."""
        policy = resolve("preemption", "swap")
        ServingSimulator("opt-1.3b", allocator="caching",
                         preemption=policy)
        with pytest.raises(ValueError, match="already bound"):
            ServingSimulator("opt-1.3b", allocator="caching",
                             preemption=policy)


class TestRecomputeIsByteIdentical:
    """`preemption="recompute"` reproduces the default path exactly."""

    @pytest.mark.parametrize("allocator,kv_cache,capacity,n", [
        ("caching", "chunked", 6 * GB, 100),
        ("gmlake", "chunked", 6 * GB, 100),
        # Paged KV needs a genuinely full pool to preempt (growth never
        # transiently doubles), hence the tighter device; there 30
        # requests preempt 12 times.
        ("caching", "paged?block_tokens=16", int(3.4 * GB), 30),
    ])
    def test_explicit_recompute_equals_default(self, allocator, kv_cache,
                                               capacity, n):
        default = _run("recompute", allocator=allocator, kv_cache=kv_cache,
                       capacity=capacity, n=n)
        explicit = _run(resolve("preemption", "recompute", None),
                        allocator=allocator, kv_cache=kv_cache,
                        capacity=capacity, n=n)
        assert default.preemptions > 0  # the regime actually preempts
        assert _digest(default) == _digest(explicit)

    def test_recompute_swaps_nothing(self):
        result = _run("recompute")
        assert result.kv_metrics.swapped_bytes == 0
        assert result.preemption_name == "recompute"


class TestSwap:
    def test_swap_moves_bytes_both_ways(self, assert_offload_drained):
        result = _run("swap")
        assert_offload_drained()
        assert result.preemptions > 0
        assert result.preemption_name == "swap"
        swapped = result.kv_metrics.swapped_bytes
        assert swapped > 0
        # Every request that came back was swapped out once and in
        # once, so the total is even in units of per-request KV sizes
        # — at minimum, out-bytes never exceed in-bytes by more than
        # the requests still parked (none after a finished run).
        assert result.kv_metrics.preempt_copy_bytes == 0  # no recompute cost

    def test_swap_charges_pcie_time(self):
        """Swap-out delays the clock relative to a free-only eviction
        at the same event sequence — makespans must differ once any
        preemption happened."""
        recompute = _run("recompute")
        swap = _run("swap")
        assert recompute.preemptions > 0 and swap.preemptions > 0
        assert recompute.makespan_s != swap.makespan_s

    def test_no_leaked_ledger_entries(self, assert_offload_drained):
        simulator = ServingSimulator(
            "opt-1.3b", allocator="caching", capacity=6 * GB,
            scheduler="fcfs", preemption="swap",
            config=ServingConfig(max_batch=16, queue_timeout_s=30.0))
        simulator.run(_pressure_stream())
        assert_offload_drained()
        assert simulator.kv.live_requests == 0

    def test_rejected_request_forgets_host_copy(self,
                                                assert_offload_drained):
        """A swapped-out request that is rejected from the queue
        (timeout or preempted-out) must drop its host-side ledger
        entry."""
        from repro.serve import LengthSampler

        lengths = LengthSampler(mean_prompt=1500, mean_output=900)
        stream = PoissonArrivals(rate_per_s=6.0).generate(30, lengths, seed=0)
        simulator = ServingSimulator(
            "opt-1.3b", allocator="caching", capacity=4 * GB,
            scheduler="fcfs", preemption="swap",
            config=ServingConfig(max_batch=8, queue_timeout_s=3.0,
                                 max_preemptions=2))
        result = simulator.run(stream)
        assert_offload_drained()
        assert any(r.rejected for r in result.requests)

    def test_doomed_victim_pays_no_pcie(self):
        """A victim whose preemption budget is already exhausted is
        rejected, not offloaded — no PCIe charge, no swapped bytes."""
        from repro.serve import LengthSampler

        lengths = LengthSampler(mean_prompt=1500, mean_output=900)
        stream = PoissonArrivals(rate_per_s=6.0).generate(30, lengths, seed=0)
        result = run_serving(
            stream, "opt-1.3b", allocator="caching", capacity=4 * GB,
            scheduler="fcfs", preemption="swap",
            config=ServingConfig(max_batch=8, queue_timeout_s=30.0,
                                 max_preemptions=0))
        assert result.preemptions > 0
        assert any(r.reject_reason == "preempted-out"
                   for r in result.requests)
        assert result.kv_metrics.swapped_bytes == 0
        # The discarded KV still lands in the recompute-style discard
        # ledger, so cross-policy copy comparisons stay honest.
        assert result.kv_metrics.preempt_copy_bytes > 0

    def test_bandwidth_scales_transfer_cost(self):
        """Halving PCIe bandwidth makes the same swap traffic slower
        (a longer makespan) without changing what was moved."""
        fast = _run("swap?interconnect=pcie?gb_per_s=48")
        slow = _run("swap?interconnect=pcie?gb_per_s=2")
        assert fast.kv_metrics.swapped_bytes > 0
        assert slow.makespan_s > fast.makespan_s

    def test_pcie_transfer_model(self):
        latency = GpuDevice().latency
        pcie = PcieInterconnect()
        base = pcie.transfer_us(0, latency)
        assert base == latency.pcie_latency_us
        one_gb = pcie.transfer_us(1 * GB, latency)
        assert one_gb == pytest.approx(
            latency.pcie_latency_us + 1e6 / latency.pcie_gb_per_s)
        # Override halves the bandwidth -> doubles the payload term.
        half = resolve("interconnect",
                       f"pcie?gb_per_s={latency.pcie_gb_per_s / 2}")
        slow = half.transfer_us(256 * MB, latency)
        fast = pcie.transfer_us(256 * MB, latency)
        assert (slow - base) == pytest.approx(2 * (fast - base))


class TestSwapPcieParamShim:
    """Swap's link is an ``interconnect`` component (the ``pcie_*``
    parameters it replaced are gone: ``TestResolve.test_spec_params``)."""

    def test_new_path_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            policy = resolve("preemption", "swap?interconnect=pcie?gb_per_s=12")
        assert isinstance(_swap_link(policy), PcieInterconnect)
        assert _swap_link(policy).gb_per_s == 12.0

    def test_legacy_pricing_is_byte_identical(self):
        """An explicit link prices exactly like the inline formula the
        ``pcie_*`` parameters used (and the bare default exactly like
        the device latency model)."""
        latency = LatencyModel()
        size = 1 << 30
        policy = ComponentSpec(
            "swap", {"interconnect": "pcie?gb_per_s=12&latency_us=5"}, "preemption").build()
        assert _swap_link(policy).transfer_us(size, latency) \
            == 5.0 + size / (12.0 * (1 << 30)) * 1e6
        bare = resolve("preemption", "swap")
        assert _swap_link(bare).transfer_us(size, latency) \
            == PcieInterconnect().transfer_us(size, latency)

    def test_other_interconnects_plug_in(self):
        policy = resolve("preemption", "swap?interconnect=nvlink?gb_per_s=300")
        assert isinstance(_swap_link(policy), NvlinkInterconnect)
        assert _swap_link(policy).gb_per_s == 300.0


class TestSwapIsOneHostTier:
    """``swap`` is :class:`~repro.serve.OffloadPreemption` over one
    unbounded host-DRAM tier priced by the spec's interconnect, with
    the byte ledger kept in the scalar ``swapped_bytes`` counter."""

    def test_hierarchy_is_one_unbounded_dram_tier(self):
        policy = resolve("preemption", "swap")
        assert len(policy.hierarchy.tiers) == 1
        host = policy.hierarchy.tiers[0]
        assert isinstance(host, DramTier)
        assert host.capacity_bytes == float("inf")
        assert isinstance(host.interconnect, PcieInterconnect)

    def test_legacy_params_reach_the_tier_link(self):
        """The nested spec string's bandwidth prices the host tier; the
        latency it leaves unset stays the device's."""
        policy = resolve("preemption", "swap?interconnect=pcie?gb_per_s=12")
        latency = LatencyModel()
        size = 1 << 30
        assert policy.hierarchy.tiers[0].transfer_us(size, latency) \
            == latency.pcie_latency_us + size / (12.0 * (1 << 30)) * 1e6

    def test_account_keeps_the_legacy_ledger(self):
        """Bytes moved by swap land in ``swapped_bytes`` only — the
        per-tier demoted/promoted dicts stay empty, so pre-tier swap
        configurations read byte-identically."""
        metrics = KVCacheMetrics(kv_cache="paged")
        policy = resolve("preemption", "swap")
        policy._sim = SimpleNamespace(kv=SimpleNamespace(metrics=metrics))
        policy._account("dram", 1024, restore=False)
        policy._account("dram", 512, restore=True)
        assert metrics.swapped_bytes == 1536
        assert metrics.demoted_bytes == {}
        assert metrics.promoted_bytes == {}
