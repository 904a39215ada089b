"""Swap preemption survives as a shim over the memory-tier subsystem."""

import pytest

from repro.gpu.latency import LatencyModel
from repro.serve import SwapPreemption, resolve_preemption


class TestSwapIsTieredShim:
    """Since the memory-tier subsystem landed, ``swap`` is a shim over
    :class:`TieredPreemption`: one unbounded host-DRAM tier priced by
    the policy's interconnect, with the byte ledger redirected into the
    legacy ``swapped_bytes`` counter."""

    def test_swap_subclasses_tiered(self):
        from repro.serve import TieredPreemption

        assert issubclass(SwapPreemption, TieredPreemption)

    def test_hierarchy_is_one_unbounded_dram_tier(self):
        from repro.serve import DramTier

        policy = resolve_preemption("swap")
        assert len(policy.hierarchy.tiers) == 1
        host = policy.hierarchy.tiers[0]
        assert isinstance(host, DramTier)
        assert host.capacity_bytes == float("inf")
        # The tier prices through the very interconnect instance the
        # legacy surface exposes — one link, two views.
        assert host.interconnect is policy.interconnect

    def test_legacy_params_reach_the_tier_link(self):
        with pytest.warns(DeprecationWarning):
            policy = SwapPreemption(pcie_gb_per_s=12.0, pcie_latency_us=5.0)
        latency = LatencyModel()
        size = 1 << 30
        assert policy.hierarchy.tiers[0].transfer_us(size, latency) \
            == 5.0 + size / (12.0 * (1 << 30)) * 1e6

    def test_account_keeps_the_legacy_ledger(self):
        """Bytes moved by swap land in ``swapped_bytes`` only — the
        per-tier demoted/promoted dicts stay empty, so pre-tier swap
        configurations read byte-identically."""
        from repro.serve import KVCacheMetrics

        class FakeKV:
            metrics = KVCacheMetrics(kv_cache="paged")

        policy = resolve_preemption("swap")
        policy._account(FakeKV, "dram", 1024, restore=False)
        policy._account(FakeKV, "dram", 512, restore=True)
        assert FakeKV.metrics.swapped_bytes == 1536
        assert FakeKV.metrics.demoted_bytes == {}
        assert FakeKV.metrics.promoted_bytes == {}

    def test_swapped_out_requests_mirrors_parked(self):
        policy = resolve_preemption("swap")
        assert policy.swapped_out_requests == policy.parked_requests == 0
