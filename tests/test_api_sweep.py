"""Tests for the parallel sweep runner (``repro.api.run_sweep``)."""

import pytest

from repro import api
from repro.units import GB


def _points(rates=(2.0, 4.0)):
    return [
        api.ExperimentSpec(
            mode="serve", allocators=["caching"], capacity=8 * GB,
            serving=api.ServingSpec(model="opt-1.3b", rate_per_s=rate,
                                    n_requests=10),
        )
        for rate in rates
    ]


class TestExpandSpecPoints:
    def test_one_point_per_allocator(self):
        spec = api.ExperimentSpec(
            mode="replay", allocators=["caching", "gmlake?chunk_mb=256"])
        points = api.expand_spec_points(spec)
        assert [p.allocators[0].label for p in points] == [
            "caching", "gmlake?chunk_size=256MB"]
        for point in points:
            assert len(point.allocators) == 1
            assert point.mode == spec.mode
            assert point.capacity == spec.capacity


class TestRunSweep:
    def test_serial_results_in_order(self):
        points = _points()
        results = api.run_sweep(points, jobs=1)
        assert len(results) == len(points)
        for point_results in results:
            assert len(point_results) == 1
            assert point_results[0].mode == "serve"
            assert point_results[0].peak_reserved_bytes > 0

    def test_parallel_matches_serial(self):
        """The acceptance property: jobs changes wall-clock only."""
        points = _points()
        serial = api.run_sweep(points, jobs=1)
        parallel = api.run_sweep(points, jobs=2)
        for s_results, p_results in zip(serial, parallel):
            for s, p in zip(s_results, p_results):
                assert s.peak_active_bytes == p.peak_active_bytes
                assert s.peak_reserved_bytes == p.peak_reserved_bytes
                assert s.throughput == p.throughput
                assert s.extras() == p.extras()

    def test_accepts_dict_points(self):
        spec = _points(rates=(2.0,))[0]
        results = api.run_sweep([spec.to_dict()], jobs=1)
        assert results[0][0].allocator_name == "caching"

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            api.run_sweep(_points(), jobs=0)


class TestSweepRows:
    def test_rows_carry_point_labels(self):
        points = _points()
        results = api.run_sweep(points, jobs=1)
        rows = api.sweep_rows(points, results)
        assert len(rows) == 2
        assert rows[0]["point"] == "serve opt-1.3b poisson rate=2/s x1"
        assert {"allocator", "reserved (GB)", "utilization",
                "thru (/s)", "OOM"} <= set(rows[0])

    @pytest.mark.parametrize("serving, fleet", [
        ({"arrivals": "closed-loop?clients=8", "replicas": 2}, "x2"),
        ({"arrivals": "mmpp?rate=3&burst=9"}, "x1"),
        ({"arrivals": "poisson?rate=4",
          "disagg": {"prefill_replicas": 2, "decode_replicas": 3}}, "2P+3D"),
    ])
    def test_serve_label_names_arrivals_and_fleet(self, serving, fleet):
        spec = api.ExperimentSpec(
            mode="serve", allocators=["caching"],
            serving=api.ServingSpec(model="opt-1.3b", **serving))
        assert api.sweep_point_label(spec) == (
            f"serve opt-1.3b {spec.serving.arrivals} {fleet}")
        assert "rate=2/s" not in api.sweep_point_label(spec)

    def test_replay_label(self):
        spec = api.ExperimentSpec(mode="replay", allocators=["caching"])
        assert api.sweep_point_label(spec).startswith("replay opt-13b")
