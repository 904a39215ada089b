"""Tests for the multi-replica serving front-end."""

import pytest

from repro.serve import (
    PoissonArrivals,
    ServingConfig,
    SloConfig,
    dispatch_requests,
    run_serving_cluster,
)
from repro.serve.request import ServeRequest


def make_request(req_id, arrival, prompt=256, output=128):
    return ServeRequest(req_id=req_id, arrival_s=arrival,
                        prompt_tokens=prompt, output_tokens=output)


class TestDispatch:
    def test_balances_equal_requests(self):
        requests = [make_request(i, 0.0) for i in range(4)]
        shards = dispatch_requests(requests, 2)
        assert [len(s) for s in shards] == [2, 2]

    def test_weighs_by_tokens(self):
        # One huge request saturates replica 0; the small ones go to 1.
        requests = [make_request(0, 0.0, prompt=2048, output=2048)]
        requests += [make_request(i, 0.0, prompt=64, output=16)
                     for i in range(1, 4)]
        shards = dispatch_requests(requests, 2)
        assert requests[0] in shards[0]
        assert len(shards[1]) >= 2

    def test_backlog_drains_over_time(self):
        # After a long quiet gap the backlogs equalize back to zero, so
        # dispatch returns to the first replica.
        requests = [make_request(0, 0.0, prompt=2048, output=2048),
                    make_request(1, 1000.0, prompt=64, output=16)]
        shards = dispatch_requests(requests, 2)
        assert requests[1] in shards[0]

    def test_single_replica_gets_everything(self):
        requests = [make_request(i, float(i)) for i in range(5)]
        shards = dispatch_requests(requests, 1)
        assert len(shards[0]) == 5

    def test_bad_replica_count(self):
        with pytest.raises(ValueError):
            dispatch_requests([], 0)


class TestClusterRun:
    def test_end_to_end(self):
        stream = PoissonArrivals(rate_per_s=4.0).generate(40, seed=2)
        result = run_serving_cluster(stream, "opt-1.3b", n_replicas=2,
                                     allocator="gmlake")
        assert result.n_replicas == 2
        assert len(result.requests) == 40
        assert {r.replica for r in result.requests} == {0, 1}
        report = result.report(SloConfig(ttft_s=60.0, tpot_s=60.0))
        assert report.completed == 40
        assert report.slo_attainment == 1.0

    def test_makespan_is_slowest_replica(self):
        stream = PoissonArrivals(rate_per_s=4.0).generate(30, seed=5)
        result = run_serving_cluster(stream, "opt-1.3b", n_replicas=3)
        assert result.makespan_s == max(
            r.makespan_s for r in result.replicas)

    def test_more_replicas_cut_latency_under_load(self):
        config = ServingConfig(max_batch=8)

        def p99(n_replicas):
            stream = PoissonArrivals(rate_per_s=12.0).generate(60, seed=4)
            result = run_serving_cluster(stream, "opt-1.3b",
                                         n_replicas=n_replicas,
                                         allocator="gmlake", config=config)
            return result.report().p99_latency_s

        assert p99(4) < p99(1)

    def test_memory_headlines_are_worst_replica(self):
        stream = PoissonArrivals(rate_per_s=4.0).generate(30, seed=6)
        result = run_serving_cluster(stream, "opt-1.3b", n_replicas=2)
        assert result.peak_reserved_gb == max(
            r.peak_reserved_gb for r in result.replicas)
        assert result.min_utilization == min(
            r.utilization_ratio for r in result.replicas)

    def test_summary_mentions_replicas(self):
        stream = PoissonArrivals(rate_per_s=2.0).generate(10, seed=0)
        result = run_serving_cluster(stream, "opt-1.3b", n_replicas=2)
        summary = result.summary()
        assert summary.startswith("2 replicas:")
        assert summary.endswith(f" util={result.utilization_ratio:.1%}")
