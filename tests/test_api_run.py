"""Tests for ``ExperimentSpec`` / ``repro.api.run`` and the RunResult
protocol, plus the CLI paths that ride on them."""

import pytest

from repro import api
from repro.api import ExperimentSpec, ServingSpec, SpecError, WorkloadSpec
from repro.api.result import ExperimentResult, RunResult, run_result_row
from repro.cli import main
from repro.sim.engine import run_workload
from repro.units import GB
from repro.workloads import TrainingWorkload

TINY = dict(model="opt-1.3b", batch_size=2, n_gpus=1, strategies="N",
            iterations=2)


def tiny_experiment(**overrides):
    kwargs = dict(
        mode="replay",
        allocators=["caching"],
        workload=WorkloadSpec(**TINY),
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


class TestRunReplay:
    def test_matches_direct_run_workload_byte_for_byte(self):
        direct = run_workload(TrainingWorkload(
            TINY["model"], batch_size=TINY["batch_size"],
            n_gpus=TINY["n_gpus"], strategies=TINY["strategies"],
            iterations=TINY["iterations"], seed=0), "caching")
        via_api, = api.run(tiny_experiment())
        # The underlying EngineResult must be *identical* — same trace,
        # same device, same allocator construction path.
        assert via_api.raw == direct

    def test_configured_allocator_matches_spec_build(self):
        spec = api.AllocatorSpec.parse("gmlake?chunk_mb=4")
        direct = run_workload(TrainingWorkload(**{
            "model": TINY["model"], "batch_size": 2, "n_gpus": 1,
            "strategies": "N", "iterations": 2}), spec)
        via_api, = api.run(tiny_experiment(allocators=["gmlake?chunk_mb=4"]))
        assert via_api.raw == direct
        assert via_api.allocator_name == "gmlake?chunk_size=4MB"

    def test_one_result_per_allocator(self):
        results = api.run(tiny_experiment(allocators=["caching", "gmlake"]))
        assert [r.allocator_name for r in results] == ["caching", "gmlake"]
        assert all(r.mode == "replay" for r in results)

    def test_satisfies_protocol(self):
        result, = api.run(tiny_experiment())
        assert isinstance(result, RunResult)
        assert isinstance(result.raw, RunResult)  # EngineResult too

    def test_record_timeline(self):
        result, = api.run(tiny_experiment(record_timeline=True))
        assert len(result.raw.timeline) > 0


class TestRunClusterAndServe:
    def test_cluster_mode(self):
        spec = tiny_experiment(mode="cluster",
                               workload=WorkloadSpec(**{**TINY, "n_gpus": 2}))
        result, = api.run(spec)
        assert result.mode == "cluster"
        assert result.extras()["n_ranks"] == 2
        assert isinstance(result, RunResult)
        assert isinstance(result.raw, RunResult)  # ClusterResult too

    def test_serve_mode(self):
        spec = ExperimentSpec(
            mode="serve", allocators=["gmlake"], capacity=8 * GB,
            serving=ServingSpec(model="opt-1.3b", n_requests=10,
                                rate_per_s=4.0),
        )
        result, = api.run(spec)
        assert result.mode == "serve"
        assert result.extras()["completed"] == 10
        assert result.throughput > 0
        assert isinstance(result.raw, RunResult)  # ServingResult too

    def test_serve_cluster_mode(self):
        spec = ExperimentSpec(
            mode="serve", allocators=["gmlake"], capacity=8 * GB,
            serving=ServingSpec(model="opt-1.3b", n_requests=10,
                                rate_per_s=4.0, replicas=2),
        )
        result, = api.run(spec)
        assert result.mode == "serve-cluster"
        assert result.extras()["n_replicas"] == 2
        assert isinstance(result.raw, RunResult)  # ServeClusterResult too

    def test_serve_capacity_string(self):
        spec = ExperimentSpec(
            mode="serve", allocators=["gmlake"], capacity="8GB",
            serving=ServingSpec(model="opt-1.3b", n_requests=5),
        )
        assert spec.capacity == 8 * GB

    def test_mmpp_arrivals(self):
        spec = ExperimentSpec(
            mode="serve", allocators=["gmlake"], capacity=8 * GB,
            serving=ServingSpec(model="opt-1.3b", n_requests=5,
                                arrival="mmpp", rate_per_s=4.0),
        )
        result, = api.run(spec)
        assert result.extras()["completed"] == 5


class TestExperimentSpecSerialization:
    def test_json_round_trip(self):
        spec = ExperimentSpec(
            mode="replay",
            allocators=["caching", "gmlake?chunk_mb=512&stitching=off"],
            capacity=24 * GB,
            workload=WorkloadSpec(**TINY),
        )
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec

    def test_save_load(self, tmp_path):
        path = str(tmp_path / "experiment.json")
        spec = tiny_experiment()
        spec.save(path)
        assert ExperimentSpec.load(path) == spec

    def test_run_accepts_path_and_dict(self, tmp_path):
        path = str(tmp_path / "experiment.json")
        spec = tiny_experiment()
        spec.save(path)
        from_path, = api.run(path)
        from_dict, = api.run(spec.to_dict())
        direct, = api.run(spec)
        assert from_path.raw == direct.raw == from_dict.raw

    def test_invalid_json_is_spec_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(SpecError, match="invalid JSON"):
            ExperimentSpec.load(str(path))
        path.write_text("[1, 2]")
        with pytest.raises(SpecError, match="JSON object"):
            ExperimentSpec.load(str(path))

    def test_cli_rejects_invalid_json_cleanly(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        assert main(["run", "--spec", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_cluster_record_timeline(self):
        spec = tiny_experiment(
            mode="cluster", record_timeline=True,
            workload=WorkloadSpec(**{**TINY, "n_gpus": 2}))
        result, = api.run(spec)
        assert all(len(rank.timeline) > 0 for rank in result.raw.ranks)

    def test_unknown_mode(self):
        with pytest.raises(SpecError, match="mode"):
            ExperimentSpec(mode="teleport")

    def test_unknown_keys(self):
        with pytest.raises(SpecError, match="unknown experiment spec keys"):
            ExperimentSpec.from_dict({"mode": "replay", "wat": 1})

    def test_bad_workload_key(self):
        with pytest.raises(SpecError):
            ExperimentSpec.from_dict(
                {"mode": "replay", "workload": {"modle": "opt-13b"}})

    def test_no_allocators(self):
        with pytest.raises(SpecError, match="at least one"):
            ExperimentSpec(allocators=[])

    def test_defaults_fill_in(self):
        spec = ExperimentSpec()
        assert spec.mode == "replay"
        assert spec.workload is not None
        spec = ExperimentSpec(mode="serve")
        assert spec.serving is not None


class TestRunResultRow:
    def test_uniform_rows_across_modes(self):
        replay, = api.run(tiny_experiment())
        serve, = api.run(ExperimentSpec(
            mode="serve", allocators=["gmlake"], capacity=8 * GB,
            serving=ServingSpec(model="opt-1.3b", n_requests=5),
        ))
        rows = [run_result_row(replay), run_result_row(serve)]
        assert rows[0].keys() == rows[1].keys()
        assert rows[0]["allocator"] == "caching"

    def test_row_accepts_raw_engine_result(self):
        result, = api.run(tiny_experiment())
        assert run_result_row(result.raw)["allocator"] == "caching"

    def test_summary_mentions_mode(self):
        result, = api.run(tiny_experiment())
        assert "[replay]" in result.summary()

    def test_experiment_result_ratios(self):
        result = ExperimentResult(
            allocator_name="x", mode="replay", peak_active_bytes=50,
            peak_reserved_bytes=100, throughput=1.0, oom=False)
        assert result.utilization_ratio == 0.5
        assert result.fragmentation_ratio == 0.5


class TestCliSpecPaths:
    def test_compare_with_configured_spec(self, capsys):
        code = main(["compare", "--model", "opt-1.3b", "--batch", "2",
                     "--gpus", "1", "--strategies", "N",
                     "--iterations", "2",
                     "--allocators", "caching,gmlake?chunk_mb=4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gmlake?chunk_size=4MB" in out

    def test_compare_bad_spec_is_user_error(self, capsys):
        code = main(["compare", "--model", "opt-1.3b",
                     "--allocators", "gmlake?bogus=1"])
        assert code == 2
        assert "no parameter" in capsys.readouterr().err

    def test_run_spec_file(self, tmp_path, capsys):
        path = str(tmp_path / "experiment.json")
        tiny_experiment(allocators=["caching", "gmlake"]).save(path)
        assert main(["run", "--spec", path]) == 0
        out = capsys.readouterr().out
        assert "mode=replay" in out
        assert "caching" in out and "gmlake" in out
        assert "iterations_completed=2" in out

    def test_run_missing_spec_file(self, capsys):
        assert main(["run", "--spec", "/nonexistent.json"]) == 2
        assert "nonexistent" in capsys.readouterr().err

    def test_replay_with_spec_string(self, tmp_path, capsys):
        out_path = str(tmp_path / "t.jsonl")
        assert main(["trace", "--model", "gpt-2", "--batch", "2",
                     "--gpus", "1", "--iterations", "2",
                     "--out", out_path]) == 0
        assert main(["replay", "--in", out_path,
                     "--allocator", "gmlake?chunk_mb=4"]) == 0
        assert "gmlake" in capsys.readouterr().out

    def test_serve_with_configured_spec(self, capsys):
        code = main(["serve", "--model", "opt-1.3b", "--rate", "4.0",
                     "--requests", "10", "--capacity", "8GB",
                     "--allocator", "gmlake?chunk_mb=4"])
        assert code == 0
        assert "gmlake?chunk_size=4MB" in capsys.readouterr().out

    def test_list_allocators_params_and_alias_dedup(self, capsys):
        assert main(["list-allocators"]) == 0
        out = capsys.readouterr().out
        # One canonical caching row carrying the alias — not two rows.
        assert out.count("CachingAllocator") == 1
        assert "pytorch" in out
        # The tunables table shows name/type/default from the registry.
        assert "allocator parameters" in out
        assert "chunk_size" in out and "max_spool_blocks" in out
        assert "stitching" in out  # alias spec key listed
