"""Shared fixtures and hypothesis profiles for the test suite.

Hypothesis settings live here, not per-file: every property test runs
under the ``ci`` profile (no deadline — CI machines stall; printed
reproduction blobs — a shrunk failure must be replayable from the log)
unless ``HYPOTHESIS_PROFILE`` selects another.  The nightly CI job
exports ``HYPOTHESIS_PROFILE=nightly`` for a deeper example budget.
Individual tests only override ``max_examples``.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

from repro import GMLakeAllocator, GpuDevice
from repro.allocators import CachingAllocator, NativeAllocator, VmmNaiveAllocator
from repro.units import GB

settings.register_profile(
    "ci",
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "nightly",
    settings.get_profile("ci"),
    max_examples=400,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture
def device() -> GpuDevice:
    """A full-size simulated A100-80GB."""
    return GpuDevice()


@pytest.fixture
def small_device() -> GpuDevice:
    """A 1 GB device, so OOM paths are cheap to trigger."""
    return GpuDevice(capacity=1 * GB)


@pytest.fixture
def gmlake(device) -> GMLakeAllocator:
    return GMLakeAllocator(device)


@pytest.fixture
def caching(device) -> CachingAllocator:
    return CachingAllocator(device)


@pytest.fixture
def native(device) -> NativeAllocator:
    return NativeAllocator(device)


@pytest.fixture
def vmm_naive(device) -> VmmNaiveAllocator:
    return VmmNaiveAllocator(device)


@pytest.fixture
def assert_offload_drained(monkeypatch):
    """``assert_offload_drained()``: no simulator this test built still
    holds KV off its device.

    Per simulator: the preemption policy's parked table is empty (no
    migrated parcel left on the wire either) and every tier hierarchy
    it can park into — the replica's ``memory_tiers`` one and a swap
    policy's private host tier — is drained.  A completed run that
    fails this has stranded bytes in a tier.
    """
    from repro.serve import ServingSimulator

    sims = []
    init = ServingSimulator.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sims.append(self)

    monkeypatch.setattr(ServingSimulator, "__init__", recording_init)

    def check():
        assert sims, "the test built no ServingSimulator"
        for sim in sims:
            policy = sim.preemption
            where = f"replica {sim.replica_id}"
            assert policy.parked_requests == 0, where
            assert policy.pending_imports == 0, where
            for hierarchy in (sim.hierarchy, policy.hierarchy):
                if hierarchy is not None:
                    assert hierarchy.drained, (where, hierarchy.used_bytes)

    return check
