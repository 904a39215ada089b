"""The shared result surface, exactly, across every experiment mode.

Each mode's :class:`~repro.api.ExperimentResult` reads its peaks,
throughput and OOM off its ``raw`` result, and both derive the §5.1
headline from one definition
(:class:`~repro.allocators.stats.MemoryHeadline`); an aggregate's headline
is its worst member's.  Every comparison here is exact.
"""

import dataclasses

import pytest

from repro import api
from repro.allocators.stats import AllocatorStats
from repro.api import ExperimentSpec, ServingSpec, WorkloadSpec
from repro.api.result import ExperimentResult
from repro.sim.engine import EngineResult
from repro.units import GB

TRAIN = dict(model="opt-1.3b", batch_size=2, strategies="N", iterations=2)
SERVE = dict(model="opt-1.3b", n_requests=12, rate_per_s=6.0,
             mean_prompt=600, mean_output=200, max_batch=8)

SPECS = {
    "replay": ExperimentSpec(
        mode="replay", allocators=["gmlake"],
        workload=WorkloadSpec(n_gpus=1, **TRAIN)),
    "cluster": ExperimentSpec(
        mode="cluster", allocators=["gmlake"],
        workload=WorkloadSpec(n_gpus=2, **TRAIN)),
    "serve": ExperimentSpec(
        mode="serve", allocators=["caching"], capacity=4 * GB,
        serving=ServingSpec(**SERVE)),
    "serve-cluster": ExperimentSpec(
        mode="serve", allocators=["caching"], capacity=4 * GB,
        serving=ServingSpec(replicas=2, **SERVE)),
    "serve-disagg": ExperimentSpec(
        mode="serve", allocators=["caching"], capacity=4 * GB,
        serving=ServingSpec(
            disagg={"prefill_replicas": 1, "decode_replicas": 2}, **SERVE)),
}


def assert_headline(result):
    active, reserved = result.peak_active_bytes, result.peak_reserved_bytes
    assert result.utilization_ratio == (
        active / reserved if reserved else 1.0)
    assert result.fragmentation_ratio == 1.0 - result.utilization_ratio
    assert result.peak_active_gb == active / GB
    assert result.peak_reserved_gb == reserved / GB


@pytest.mark.parametrize("mode", sorted(SPECS))
def test_experiment_result_reads_its_raw_result(mode):
    result, = api.run(SPECS[mode])
    raw = result.raw
    assert result.mode == mode
    for name in ("peak_active_bytes", "peak_reserved_bytes", "throughput",
                 "oom", "utilization_ratio", "fragmentation_ratio",
                 "peak_active_gb", "peak_reserved_gb"):
        assert getattr(result, name) == getattr(raw, name), name
    assert result.peak_reserved_bytes > 0
    assert_headline(result)
    assert_headline(raw)
    if mode in ("replay", "serve"):
        return
    members = raw.ranks if mode == "cluster" else raw.replicas
    assert len(members) >= 2
    worst = max(members, key=lambda m: m.peak_reserved_bytes)
    assert raw.peak_reserved_bytes == max(
        m.peak_reserved_bytes for m in members)
    assert raw.peak_active_bytes == worst.peak_active_bytes
    assert raw.utilization_ratio == worst.utilization_ratio
    assert raw.min_utilization == min(m.utilization_ratio for m in members)


def test_nothing_reserved_reads_full_utilization():
    engine = EngineResult(allocator_name="x", meta={})
    served, = api.run(SPECS["serve"])
    stats = AllocatorStats(0, 0, 0, 0, 0, 0)
    for result in (stats, engine, ExperimentResult.from_engine(engine),
                   dataclasses.replace(served.raw, stats=stats)):
        assert result.utilization_ratio == 1.0
        assert result.fragmentation_ratio == 0.0
        assert_headline(result)
