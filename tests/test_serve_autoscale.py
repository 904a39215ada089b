"""Autoscalers: queue-depth hysteresis and dispatch integration."""

import pytest

from repro.api import ComponentSpec, resolve
from repro.serve import (
    NoAutoscaler,
    PoissonArrivals,
    QueueDepthAutoscaler,
    dispatch_requests,
    run_serving_cluster,
)
from repro.units import GB


class TestResolve:
    def test_names(self):
        assert resolve("autoscaler", "none").name == "none"
        assert resolve("autoscaler", "queue-depth").name == "queue-depth"

    def test_instance_passes_through(self):
        scaler = QueueDepthAutoscaler(high=100.0, low=10.0)
        assert resolve("autoscaler", scaler) is scaler

    def test_spec_params(self):
        scaler = ComponentSpec.parse(
            "queue-depth?high=6000&low=800&min=2", "autoscaler").build()
        assert scaler.high == 6000.0 and scaler.low == 800.0
        assert scaler.min_replicas == 2


class TestQueueDepthController:
    def test_scales_up_past_high(self):
        scaler = QueueDepthAutoscaler(high=100.0, low=10.0)
        assert scaler.decide([150.0, 0.0, 0.0], 1, 3) == 2

    def test_holds_between_thresholds(self):
        scaler = QueueDepthAutoscaler(high=100.0, low=10.0)
        assert scaler.decide([50.0, 30.0, 0.0], 2, 3) == 2

    def test_scales_down_when_tail_replica_drained(self):
        scaler = QueueDepthAutoscaler(high=100.0, low=10.0)
        assert scaler.decide([5.0, 0.0, 0.0], 2, 3) == 1

    def test_never_retires_a_loaded_replica(self):
        scaler = QueueDepthAutoscaler(high=100.0, low=10.0)
        # Mean is below `low` but the tail replica still holds work.
        assert scaler.decide([0.0, 15.0, 0.0], 2, 3) == 2

    def test_respects_bounds(self):
        scaler = QueueDepthAutoscaler(high=100.0, low=10.0, min_replicas=2)
        assert scaler.initial_replicas(4) == 2
        assert scaler.decide([1e9] * 4, 4, 4) == 4      # cap at fleet size
        assert scaler.decide([0.0] * 4, 2, 4) == 2      # floor at min

    def test_ctor_validation(self):
        with pytest.raises(ValueError):
            QueueDepthAutoscaler(high=10.0, low=10.0)
        with pytest.raises(ValueError):
            QueueDepthAutoscaler(high=10.0, low=1.0, min_replicas=0)


class TestDispatchIntegration:
    def test_none_is_byte_identical_to_no_autoscaler(self):
        stream = PoissonArrivals(rate_per_s=6.0).generate(80, seed=2)
        plain = dispatch_requests(stream, 3)
        scaled = dispatch_requests(stream, 3, autoscaler=NoAutoscaler())
        assert [[r.req_id for r in shard] for shard in plain] \
            == [[r.req_id for r in shard] for shard in scaled]

    def test_queue_depth_concentrates_light_load(self):
        """Under light load the autoscaled fleet routes everything to
        fewer replicas than the always-on dispatcher uses."""
        stream = PoissonArrivals(rate_per_s=0.5).generate(40, seed=1)
        scaler = QueueDepthAutoscaler(high=5000.0, low=100.0)
        shards = dispatch_requests(stream, 4, autoscaler=scaler)
        used = sum(1 for shard in shards if shard)
        plain_used = sum(1 for shard in dispatch_requests(stream, 4) if shard)
        assert used < plain_used
        assert sum(len(s) for s in shards) == 40

    def test_queue_depth_spreads_heavy_load(self):
        """Backlog pressure activates additional replicas."""
        stream = PoissonArrivals(rate_per_s=20.0).generate(200, seed=4)
        scaler = QueueDepthAutoscaler(high=800.0, low=100.0)
        shards = dispatch_requests(stream, 4, autoscaler=scaler)
        assert sum(1 for shard in shards if shard) >= 3

    def test_cluster_run_reports_autoscaler(self):
        stream = PoissonArrivals(rate_per_s=1.0).generate(20, seed=0)
        result = run_serving_cluster(
            stream, "opt-1.3b", n_replicas=3, allocator="caching",
            capacity=6 * GB,
            autoscaler="queue-depth?high=4000&low=200")
        extras = result.extras()
        assert extras["autoscaler"] == "queue-depth"
        assert 1 <= extras["active_replicas"] <= 3
        assert extras["completed"] == 20
        assert result.autoscaler_name == "queue-depth"

    def test_cluster_default_stays_none(self):
        stream = PoissonArrivals(rate_per_s=2.0).generate(10, seed=0)
        result = run_serving_cluster(stream, "opt-1.3b", n_replicas=2,
                                     allocator="caching", capacity=6 * GB)
        assert result.autoscaler_name == "none"
        assert "autoscaler" not in result.extras()
