"""Tests for the tiered KV memory hierarchy (``repro.serve.memtier``).

Four layers:

- unit tests for the ``memory-tier`` registry entries and the
  hierarchy spec mini-DSL (aliases, check hooks, comma parsing);
- mechanics tests for :class:`TierHierarchy`: first-fit placement in
  tier order, spill to deeper tiers, rejection when everything is
  full, promote/discard bookkeeping, label de-duplication and
  transfer pricing through the tier's interconnect;
- a hypothesis ``RuleBasedStateMachine`` driving random
  demote/promote/discard traffic and checking the residency ledger
  after every step: **every item is resident in exactly one tier**,
  per-tier usage equals the sum of its residents, capacities are
  never exceeded, and a drained hierarchy leaks nothing;
- the subsystem end-to-end: ``memory_tiers`` on :func:`run_serving`
  builds the default preemption policy over the hierarchy, parks
  victims in the hierarchy, restores them on re-admission, and the
  degenerate unbounded-DRAM hierarchy replays **byte-identically** to
  legacy swap preemption (same request lifecycles, same total bytes
  moved).
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.api import ComponentSpec, SpecError, component_names, resolve
from repro.gpu.device import GpuDevice
from repro.gpu.latency import LatencyModel
from repro.serve import (
    CxlTier,
    DramTier,
    NvmeTier,
    PcieInterconnect,
    PoissonArrivals,
    ServingConfig,
    OffloadPreemption,
    TierHierarchy,
    parse_memory_tiers,
    resolve_memory_tiers,
    run_serving,
    run_serving_cluster,
)
from repro.units import GB
from test_equivalence_goldens import _request_digest

MB = 1 << 20


class TestTierRegistry:
    def test_registered_names(self):
        assert set(component_names("memory-tier")) == {"dram", "cxl", "nvme"}
        names = component_names("memory-tier", include_aliases=True)
        for alias in ("host", "flash", "ssd"):
            assert alias in names

    def test_aliases_resolve_to_canonical_classes(self):
        assert isinstance(ComponentSpec.parse("host", "memory-tier").build(), DramTier)
        assert isinstance(ComponentSpec.parse("flash", "memory-tier").build(), NvmeTier)
        assert isinstance(ComponentSpec.parse("ssd", "memory-tier").build(), NvmeTier)

    def test_defaults_materialize(self):
        dram = ComponentSpec.parse("dram", "memory-tier").build()
        assert dram.gb == 64.0
        assert dram.capacity_bytes == 64 * GB
        cxl = ComponentSpec.parse("cxl", "memory-tier").build()
        assert (cxl.gb, cxl.gb_per_s, cxl.latency_us) == (256.0, 40.0, 1.0)

    def test_zero_gb_means_unbounded(self):
        tier = ComponentSpec.parse("dram?gb=0", "memory-tier").build()
        assert tier.capacity_bytes == float("inf")

    def test_negative_params_rejected(self):
        for bad in ("dram?gb=-1", "cxl?gb_per_s=-2", "nvme?latency_us=-3"):
            with pytest.raises(SpecError, match=">= 0"):
                ComponentSpec.parse(bad, "memory-tier")

    def test_link_conflicts_with_explicit_figures(self):
        with pytest.raises(SpecError, match="not both"):
            ComponentSpec.parse("dram?link=pcie&gb_per_s=12", "memory-tier")

    def test_bad_link_spec_rejected(self):
        with pytest.raises(SpecError, match="link"):
            ComponentSpec.parse("dram?link=warp-drive", "memory-tier")

    def test_link_prices_transfers(self):
        tier = ComponentSpec.parse(
            "dram?gb=64&link=nvlink?gb_per_s=300", "memory-tier").build()
        latency = LatencyModel()
        assert tier.transfer_us(GB, latency) \
            == tier.interconnect.transfer_us(GB, latency)

    def test_bare_dram_prices_like_device_pcie(self):
        """gb_per_s/latency_us default to 0 — the device-latency
        sentinel — so a bare dram tier prices exactly as swap always
        has."""
        tier = ComponentSpec.parse("dram", "memory-tier").build()
        latency = LatencyModel()
        assert tier.transfer_us(GB, latency) \
            == PcieInterconnect().transfer_us(GB, latency)


class TestHierarchyParsing:
    def test_empty_string_is_no_tiering(self):
        assert parse_memory_tiers("") == []
        assert parse_memory_tiers("  ") == []
        for none in ("", "  ", None, []):
            hierarchy = resolve_memory_tiers(none)
            assert isinstance(hierarchy, TierHierarchy)
            assert hierarchy.tiers == [] and hierarchy.spec_strings() == []
            # Recompute over no tiers keeps its name.
            assert resolve("preemption", "recompute", hierarchy).name \
                == "recompute"

    def test_comma_list_parses_in_order(self):
        specs = parse_memory_tiers("dram?gb=64, cxl?gb=256 ,nvme")
        assert [s.info.name for s in specs] == ["dram", "cxl", "nvme"]

    def test_resolve_accepts_many_shapes(self):
        from_string = resolve_memory_tiers("dram?gb=64,cxl")
        from_specs = resolve_memory_tiers(parse_memory_tiers("dram?gb=64,cxl"))
        from_instances = resolve_memory_tiers(
            [DramTier(gb=64.0), CxlTier()])
        for hierarchy in (from_string, from_specs, from_instances):
            assert isinstance(hierarchy, TierHierarchy)
            assert hierarchy.labels == ["dram", "cxl"]
        assert resolve_memory_tiers(from_string) is from_string

    def test_empty_hierarchy_holds_nothing(self):
        hierarchy = bound_hierarchy()
        assert hierarchy.demote("kvreq1", 1) is None  # no tier has room
        assert hierarchy.promote("kvreq1") is None
        assert not hierarchy.holds("kvreq1")
        assert hierarchy.drained and hierarchy.resident_bytes == 0

    def test_duplicate_tier_labels_deduplicate(self):
        hierarchy = TierHierarchy(["dram?gb=1", "dram?gb=2"])
        assert hierarchy.labels == ["dram", "dram1"]

    def test_spec_strings_round_trip(self):
        hierarchy = TierHierarchy(["dram?gb=64", "cxl"])
        strings = hierarchy.spec_strings()
        assert strings == ["dram?gb=64",
                           "cxl?gb=256&gb_per_s=40&latency_us=1"]
        again = TierHierarchy(strings)
        assert again.spec_strings() == strings


def bound_hierarchy(*tiers):
    hierarchy = TierHierarchy(list(tiers))
    hierarchy.bind(None, GpuDevice())
    return hierarchy


class TestHierarchyMechanics:
    def test_first_fit_in_tier_order(self):
        hierarchy = bound_hierarchy(f"dram?gb={2 * MB / GB}", "cxl?gb=1")
        label, us = hierarchy.demote("a", MB)
        assert label == "dram" and us > 0
        assert hierarchy.tier_of("a") == "dram"
        assert hierarchy.used_bytes == {"dram": MB, "cxl": 0}

    def test_spills_to_deeper_tier_when_full(self):
        hierarchy = bound_hierarchy(f"dram?gb={2 * MB / GB}", "cxl?gb=1")
        assert hierarchy.demote("a", 2 * MB)[0] == "dram"
        assert hierarchy.demote("b", MB)[0] == "cxl"

    def test_returns_none_when_everything_is_full(self):
        hierarchy = bound_hierarchy(f"dram?gb={MB / GB}",
                                    f"cxl?gb={MB / GB}")
        assert hierarchy.demote("a", MB) is not None
        assert hierarchy.demote("b", MB) is not None
        assert hierarchy.demote("c", MB) is None
        assert hierarchy.resident_items == 2

    def test_promote_returns_from_landing_tier(self):
        hierarchy = bound_hierarchy(f"dram?gb={MB / GB}", "cxl?gb=1")
        hierarchy.demote("a", MB)
        hierarchy.demote("b", MB)            # spilled to cxl
        label, size, us = hierarchy.promote("b")
        assert (label, size) == ("cxl", MB) and us > 0
        assert not hierarchy.holds("b")
        assert hierarchy.used_bytes["cxl"] == 0

    def test_promote_missing_is_none(self):
        hierarchy = bound_hierarchy("dram?gb=1")
        assert hierarchy.promote("ghost") is None

    def test_double_demote_raises(self):
        hierarchy = bound_hierarchy("dram?gb=1")
        hierarchy.demote("a", MB)
        with pytest.raises(ValueError, match="already resident"):
            hierarchy.demote("a", MB)

    def test_discard_frees_without_transfer(self):
        hierarchy = bound_hierarchy("dram?gb=1")
        hierarchy.demote("a", MB)
        hierarchy.discard("a")
        hierarchy.discard("a")               # idempotent
        assert hierarchy.drained

    def test_deep_tier_pricing_uses_its_own_link(self):
        cxl = CxlTier(gb=1.0, gb_per_s=40.0, latency_us=1.0)
        hierarchy = bound_hierarchy(cxl)
        _, us = hierarchy.demote("a", GB)
        assert us == pytest.approx(
            PcieInterconnect(gb_per_s=40.0, latency_us=1.0).transfer_us(
                GB, LatencyModel()))


class TierResidencyMachine(RuleBasedStateMachine):
    """Random demote/promote/discard traffic over a bounded two-tier
    hierarchy; the residency ledger must balance after every step."""

    def __init__(self):
        super().__init__()
        self.hierarchy = bound_hierarchy(
            f"dram?gb={4 * MB / GB}", f"cxl?gb={8 * MB / GB}")
        self.caps = [4 * MB, 8 * MB]
        self.resident = {}   # name -> (label, size) shadow model
        self.next_id = 0

    @rule(blocks=st.integers(1, 3))
    def demote_new(self, blocks):
        size = blocks * MB
        name = f"item{self.next_id}"
        self.next_id += 1
        placed = self.hierarchy.demote(name, size)
        used = {label: 0 for label in self.hierarchy.labels}
        for label, item_size in self.resident.values():
            used[label] += item_size
        fits = [label for label, cap in zip(self.hierarchy.labels, self.caps)
                if used[label] + size <= cap]
        if placed is None:
            # Rejected only when genuinely nothing fits.
            assert not fits
            assert not self.hierarchy.holds(name)
        else:
            label, us = placed
            # First fit: the shallowest tier with room wins.
            assert label == fits[0]
            assert us > 0
            self.resident[name] = (label, size)

    @rule(pick=st.integers(0, 10 ** 6))
    def promote_one(self, pick):
        if not self.resident:
            return
        name = sorted(self.resident)[pick % len(self.resident)]
        label, size = self.resident.pop(name)
        got_label, got_size, us = self.hierarchy.promote(name)
        assert (got_label, got_size) == (label, size)
        assert us > 0

    @rule(pick=st.integers(0, 10 ** 6))
    def discard_one(self, pick):
        if not self.resident:
            return
        name = sorted(self.resident)[pick % len(self.resident)]
        del self.resident[name]
        self.hierarchy.discard(name)

    @invariant()
    def check_ledger(self):
        used = {label: 0 for label in self.hierarchy.labels}
        for name, (label, size) in self.resident.items():
            # Every shadow item is resident in exactly the tier the
            # shadow says (and residency is single-homed by dict shape).
            assert self.hierarchy.tier_of(name) == label
            used[label] += size
        assert self.hierarchy.used_bytes == used
        assert self.hierarchy.resident_items == len(self.resident)
        for label, cap in zip(self.hierarchy.labels, self.caps):
            assert used[label] <= cap

    def teardown(self):
        for name in sorted(self.resident):
            self.hierarchy.promote(name)
        self.resident.clear()
        assert self.hierarchy.drained


TestTierResidencyFuzz = TierResidencyMachine.TestCase
TestTierResidencyFuzz.settings = settings(
    max_examples=25, stateful_step_count=40)


def _serve(n=60, **kw):
    stream = PoissonArrivals(rate_per_s=8.0).generate(n, seed=7)
    return run_serving(
        stream, "opt-1.3b", allocator="caching", capacity=3 * GB,
        scheduler="memory-aware", kv_cache="paged?block_tokens=16",
        config=ServingConfig(max_batch=32, queue_timeout_s=60.0), **kw)


#: The benchmark's ``fleet_chaos`` replica and tiers, at a fifth of its
#: request count.
_CHAOS_TIERS = "dram?gb=0.2,cxl?gb=16&gb_per_s=40&latency_us=1"
_CHAOS_REPLICA = dict(
    allocator="caching", capacity=3 * GB, scheduler="memory-aware",
    kv_cache="paged?block_tokens=16",
    config=ServingConfig(max_batch=32, queue_timeout_s=30.0))


class TestServingEndToEnd:
    def test_recompute_wraps_into_tiered_preemption(
            self, assert_offload_drained):
        result = _serve(memory_tiers="dram?gb=64")
        assert_offload_drained()
        assert result.preemption_name == "tiered"
        assert result.memory_tiers == "dram?gb=64"
        assert result.report().preemptions > 0
        demoted = result.kv_metrics.demoted_bytes
        promoted = result.kv_metrics.promoted_bytes
        assert demoted and set(demoted) == {"dram"}
        # Every demoted victim either promoted back or was forgotten;
        # here the run drains, so the ledgers match.
        assert promoted.get("dram", 0) <= demoted["dram"]
        extras = result.extras()
        assert extras["memory_tiers"] == "dram?gb=64"
        assert extras["demoted_mb"] > 0

    def test_explicit_swap_with_tiers_is_an_error(self):
        with pytest.raises(ValueError, match="generalizes swap"):
            _serve(memory_tiers="dram?gb=64", preemption="swap")

    def test_no_tiers_leaves_recompute_untouched(self):
        result = _serve(memory_tiers="")
        assert result.preemption_name == "recompute"
        assert result.memory_tiers == ""
        assert not result.kv_metrics.demoted_bytes
        assert "memory_tiers" not in result.extras()

    def test_unbounded_dram_hierarchy_matches_legacy_swap(
            self, assert_offload_drained):
        """Swap is the degenerate two-tier case: one unbounded DRAM
        tier over the device's PCIe link.  The same stream under
        ``memory_tiers="dram?gb=0"`` and under ``preemption="swap"``
        must produce identical request lifecycles, and the per-tier
        ledger must total exactly the legacy swapped-bytes ledger."""
        tiered = _serve(memory_tiers="dram?gb=0")
        swap = _serve(preemption="swap")
        assert _request_digest(tiered.requests) \
            == _request_digest(swap.requests)
        moved = (sum(tiered.kv_metrics.demoted_bytes.values())
                 + sum(tiered.kv_metrics.promoted_bytes.values()))
        assert moved == swap.kv_metrics.swapped_bytes
        assert swap.kv_metrics.demoted_bytes == {}
        assert_offload_drained()

    def test_full_tiers_fall_back_to_recompute(self, assert_offload_drained):
        """A hierarchy too small for any victim's KV can never park
        anything: the run degrades to recompute semantics (identical
        request lifecycles), with an empty tier ledger."""
        tiny = _serve(memory_tiers=f"dram?gb={1 / GB}")
        plain = _serve()
        assert _request_digest(tiny.requests) \
            == _request_digest(plain.requests)
        assert not tiny.kv_metrics.demoted_bytes
        assert_offload_drained()

    def test_multi_tier_fleet_drains(self, assert_offload_drained):
        """Victims spill past a small DRAM tier into CXL on every
        replica of a fault-free fleet, and all of it comes back."""
        result = run_serving_cluster(
            PoissonArrivals(rate_per_s=32.0).generate(200, seed=0),
            "opt-1.3b", n_replicas=4, memory_tiers=_CHAOS_TIERS,
            **_CHAOS_REPLICA)
        assert set(result.kv_metrics.demoted_bytes) == {"dram", "cxl"}
        assert_offload_drained()

    @pytest.mark.xfail(strict=True, reason=(
        "crash failover strands demoted KV: ServingSimulator._crash_poll "
        "re-routes PREEMPTED queued requests to other replicas without "
        "preemption.forget, so their bytes never leave the crashed "
        "replica's tiers (docs/robustness.md, known issues).  The fix "
        "moves fleet_chaos's digests and lands together with a "
        "re-recorded benchmarks/perf/reference.json."))
    def test_crash_failover_conserves_tier_bytes(
            self, assert_offload_drained):
        """Bytes conserved across HBM + tiers: after a *completed* run
        every tier is empty, crashes included."""
        result = run_serving_cluster(
            PoissonArrivals(rate_per_s=32.0).generate(200, seed=0),
            "opt-1.3b", n_replicas=4, memory_tiers=_CHAOS_TIERS,
            faults="replica-crash?mtbf_s=15&mttr_s=5", retry="budget?max=3",
            **_CHAOS_REPLICA)
        assert result.retries > 0 and result.preemptions > 0
        assert all(r.finished or r.rejected for r in result.requests)
        assert_offload_drained()

    def test_gauges_sample_tier_residency(self):
        from repro.obs import GaugeSampler

        gauges = GaugeSampler(0.5)
        result = _serve(memory_tiers="dram?gb=64", gauges=gauges)
        assert result.report().preemptions > 0
        assert any(p.kv_tier_bytes > 0 for p in gauges.points)

    def test_trace_records_tier_events(self):
        from repro.obs import TraceRecorder

        recorder = TraceRecorder()
        result = _serve(memory_tiers="dram?gb=64", trace=recorder)
        assert result.report().preemptions > 0
        kinds = {event.kind for event in recorder.events}
        assert "kv_demote" in kinds and "kv_promote" in kinds
        assert "kv_tier" in kinds
        trace = recorder.chrome_trace()
        names = {event["name"] for event in trace["traceEvents"]}
        assert "tier KV (MB)" in names


class TestTieredPreemptionUnit:
    def test_swap_is_a_single_unbounded_dram_tier(self):
        policy = resolve("preemption", "swap")
        # The same class as recompute and tiered: one policy, three
        # constructions.
        assert type(policy) is OffloadPreemption
        assert type(resolve("preemption", "recompute")) is OffloadPreemption
        assert len(policy.hierarchy.tiers) == 1
        host = policy.hierarchy.tiers[0]
        assert isinstance(host, DramTier)
        assert host.capacity_bytes == float("inf")

    def test_policy_instance_binds_once(self):
        hierarchy = TierHierarchy(["dram?gb=64"])
        policy = resolve("preemption", "recompute", hierarchy)
        assert type(policy) is OffloadPreemption and policy.name == "tiered"
        _serve(preemption=policy)
        with pytest.raises(ValueError, match="already bound"):
            _serve(preemption=policy)
