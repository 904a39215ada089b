"""Swap preemption is the one offload policy over a private host tier."""

from types import SimpleNamespace

from repro.gpu.latency import LatencyModel
from repro.api import resolve
from repro.serve import KVCacheMetrics


class TestSwapIsTieredShim:
    """``swap`` is :class:`~repro.serve.OffloadPreemption` over one
    unbounded host-DRAM tier priced by the spec's interconnect, with
    the byte ledger kept in the scalar ``swapped_bytes`` counter."""

    def test_hierarchy_is_one_unbounded_dram_tier(self):
        from repro.serve import DramTier, PcieInterconnect

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
