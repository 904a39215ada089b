"""Tests for the multi-rank cluster simulation."""

import pytest

from repro.sim import run_cluster
from repro.sim.cluster import ClusterResult
from repro.sim.engine import EngineResult
from repro.units import GB
from repro.workloads import TrainingWorkload


def fake_rank(util, reserved_gb, thru, oom=False):
    reserved = int(reserved_gb * GB)
    return EngineResult(
        allocator_name="fake", meta={},
        peak_active_bytes=int(util * reserved),
        peak_reserved_bytes=reserved,
        throughput_samples_per_s=thru,
        oom=oom,
    )


class TestClusterAggregation:
    def test_oom_if_any_rank_ooms(self):
        result = ClusterResult(ranks=[fake_rank(0.9, 10, 5),
                                      fake_rank(0.9, 10, 5, oom=True)])
        assert result.oom

    def test_no_oom_when_all_survive(self):
        result = ClusterResult(ranks=[fake_rank(0.9, 10, 5)] * 2)
        assert not result.oom

    def test_max_reserved_is_worst_rank(self):
        result = ClusterResult(ranks=[fake_rank(0.9, 10, 5),
                                      fake_rank(0.8, 14, 5)])
        assert result.peak_reserved_bytes == 14 * GB

    def test_min_and_mean_utilization(self):
        result = ClusterResult(ranks=[fake_rank(0.9, 10, 5),
                                      fake_rank(0.8, 10, 5)])
        assert result.min_utilization == pytest.approx(0.8)
        assert result.mean_utilization == pytest.approx(0.85)

    def test_throughput_is_slowest_rank(self):
        result = ClusterResult(ranks=[fake_rank(0.9, 10, 5),
                                      fake_rank(0.9, 10, 3)])
        assert result.throughput_samples_per_s == 3

    def test_summary_mentions_ranks(self):
        result = ClusterResult(ranks=[fake_rank(0.9, 10, 5)])
        assert "1 ranks" in result.summary()


class TestRunCluster:
    def test_simulates_every_rank(self):
        workload = TrainingWorkload("opt-1.3b", batch_size=2, n_gpus=4,
                                    strategies="LR", iterations=3)
        result = run_cluster(workload, "gmlake")
        assert result.n_ranks == 4
        assert not result.oom

    def test_rank_seeds_differ(self):
        workload = TrainingWorkload("opt-1.3b", batch_size=2, n_gpus=2,
                                    strategies="RO", iterations=3,
                                    seq_jitter=(0.7, 1.0))
        # Divergent seeds -> divergent traces (jitter differs per rank).
        from dataclasses import replace
        traces = [
            replace(workload, seed=workload.seed + 1009 * rank).build_trace()
            for rank in range(2)
        ]
        assert (traces[0].stats().total_alloc_bytes
                != traces[1].stats().total_alloc_bytes)
        result = run_cluster(workload, "caching")
        assert result.n_ranks == 2

    def test_single_rank_cluster(self):
        workload = TrainingWorkload("opt-1.3b", batch_size=2, n_gpus=1,
                                    iterations=2)
        result = run_cluster(workload, "gmlake")
        assert result.n_ranks == 1
        assert result.min_utilization == result.mean_utilization
