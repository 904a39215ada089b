"""Tests for ``ExperimentSpec`` / ``repro.api.run`` and the RunResult
protocol, plus the CLI paths that ride on them."""

import dataclasses
import json

import pytest

from repro import api
from repro.api import (
    ExperimentSpec,
    ServingSpec,
    SpecError,
    WorkloadSpec,
    resolve_allocator,
)
from repro.api.experiment import _labelled_trace_path
from repro.api.result import ExperimentResult, RunResult, run_result_row
from repro.cli import main
from repro.gpu.device import GpuDevice
from repro.sim import cluster, run_cluster
from repro.sim.engine import EngineResult, run_trace, run_workload
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

    def test_builds_one_trace_for_every_allocator(self, monkeypatch):
        built = []
        build = TrainingWorkload.build_trace
        monkeypatch.setattr(TrainingWorkload, "build_trace",
                            lambda workload: built.append(1) or build(workload))
        names = ["caching", "gmlake", "caching"]
        results = api.run(tiny_experiment(allocators=names))
        assert len(built) == 1
        monkeypatch.undo()
        workload = TrainingWorkload(
            TINY["model"], batch_size=TINY["batch_size"],
            n_gpus=TINY["n_gpus"], strategies=TINY["strategies"],
            iterations=TINY["iterations"], seed=0)
        assert [r.raw for r in results] == [run_workload(workload, name)
                                            for name in names]

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

    @pytest.mark.parametrize("build", [
        lambda: ExperimentSpec(mode="serve", record_timeline=True),
        lambda: ExperimentSpec.from_dict(
            {"mode": "serve", "record_timeline": True}),
    ], ids=["constructed", "parsed"])
    def test_serve_rejects_record_timeline(self, build):
        """A serving replica's memory curve is its gauges."""
        with pytest.raises(SpecError, match="serving.gauge_every_s"):
            build()


class TestRunClusterAndServe:
    def test_cluster_mode(self):
        spec = tiny_experiment(mode="cluster",
                               workload=WorkloadSpec(**{**TINY, "n_gpus": 2}))
        result, = api.run(spec)
        assert result.mode == "cluster"
        assert result.extras()["n_ranks"] == 2
        assert isinstance(result, RunResult)
        assert isinstance(result.raw, RunResult)  # ClusterResult too

    def test_cluster_builds_each_rank_trace_once(self, monkeypatch):
        """Every allocator replays the same rank traces, so ``run``
        builds them once.  With no sequence jitter the seed is not read
        and every rank's trace is equal: one build, one replay per
        allocator.  A jittered workload builds and replays each rank.
        Either way the results are the per-rank loop's, each rank its
        own copy."""
        built, replayed = [], []
        build = TrainingWorkload.build_trace
        monkeypatch.setattr(
            TrainingWorkload, "build_trace",
            lambda workload: built.append(workload.seed) or build(workload))
        monkeypatch.setattr(
            cluster, "run_trace",
            lambda allocator, trace, **kwargs: replayed.append(
                allocator.name) or run_trace(allocator, trace, **kwargs))
        names = ["caching", "gmlake", "caching"]
        workload = WorkloadSpec(**{**TINY, "n_gpus": 4, "strategies": "RO"})
        results = api.run(tiny_experiment(mode="cluster", allocators=names,
                                          workload=workload))
        assert built == [0]
        assert replayed == names
        jittered = dataclasses.replace(workload.build(), seq_jitter=(0.7, 1))
        built.clear()
        replayed.clear()
        result = run_cluster(jittered, "gmlake")
        assert built == [0, 1009, 2018, 3027]
        assert replayed == ["gmlake"] * 4
        monkeypatch.undo()
        for ranks, name, of in [*((r.raw.ranks, n, workload.build())
                                  for r, n in zip(results, names)),
                                (result.ranks, "gmlake", jittered)]:
            assert len({id(rank) for rank in ranks}) == 4
            assert ranks == [
                run_trace(resolve_allocator(name, GpuDevice()),
                          dataclasses.replace(of, seed=1009 * rank)
                          .build_trace())
                for rank in range(4)]

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

    def test_two_allocator_serve_writes_one_jsonl_trace_each(self, tmp_path):
        path = tmp_path / "t.jsonl"
        spec = ExperimentSpec(
            mode="serve", allocators=["caching", "gmlake?chunk_mb=4"],
            capacity=8 * GB,
            serving=ServingSpec(model="opt-1.3b", n_requests=5,
                                rate_per_s=4.0, trace=f"jsonl?path={path}"))
        api.run(spec)
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ["t.caching.jsonl", "t.gmlake_chunk_size_4MB.jsonl"]
        for name in written:
            rows = [json.loads(line) for line in
                    (tmp_path / name).read_text(encoding="utf-8").splitlines()]
            assert {"admit", "finish"} <= {row["kind"] for row in rows}

    def test_two_allocator_trace_keeps_a_dotted_directory(self, tmp_path):
        runs = tmp_path / "runs.v2"
        runs.mkdir()
        spec = ExperimentSpec(
            mode="serve", allocators=["caching", "gmlake"], capacity=8 * GB,
            serving=ServingSpec(model="opt-1.3b", n_requests=5,
                                rate_per_s=4.0,
                                trace=f"jsonl?path={runs / 'trace'}"))
        api.run(spec)
        assert [p.name for p in tmp_path.iterdir()] == ["runs.v2"]
        assert sorted(p.name for p in runs.iterdir()) == [
            "trace.caching", "trace.gmlake"]

    @pytest.mark.parametrize("path, labelled", [
        ("runs.v2/trace", "runs.v2/trace.gmlake"),
        ("trace", "trace.gmlake"),
        ("trace.json", "trace.gmlake.json"),
        ("runs.v2/trace.json", "runs.v2/trace.gmlake.json"),
    ])
    def test_labelled_trace_path_splits_the_file_name(self, path, labelled):
        assert _labelled_trace_path(path, "gmlake") == labelled

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
        result = ExperimentResult.from_engine(EngineResult(
            allocator_name="x", meta={}, peak_active_bytes=50,
            peak_reserved_bytes=100, throughput_samples_per_s=1.0))
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


class TestRunSweepFile:
    """``repro run --spec F --sweep``: a list of experiments, or one
    experiment expanded into a point per allocator."""

    POINT = tiny_experiment(allocators=["caching", "gmlake"]).to_dict()

    @staticmethod
    def sweep(tmp_path, data, *flags):
        path = tmp_path / "sweep.json"
        path.write_text(data if isinstance(data, str) else json.dumps(data),
                        encoding="utf-8")
        return main(["run", "--spec", str(path), "--sweep", *flags])

    def test_list_file_runs_each_point(self, tmp_path, capsys):
        points = [tiny_experiment(allocators=[name]).to_dict()
                  for name in ("caching", "gmlake")]
        assert self.sweep(tmp_path, points, "--jobs", "1") == 0
        out = capsys.readouterr().out
        assert "sweep: 2 points (jobs=1)" in out
        assert "caching" in out and "gmlake" in out

    def test_dict_file_expands_per_allocator(self, tmp_path, capsys):
        assert self.sweep(tmp_path, self.POINT, "--jobs", "1") == 0
        out = capsys.readouterr().out
        assert "sweep: 2 points (jobs=1)" in out
        assert "caching" in out and "gmlake" in out

    def test_jobs_zero_is_auto(self, tmp_path, capsys, monkeypatch):
        # One CPU: the auto worker count runs the points in-process.
        monkeypatch.setattr("repro.api.sweep.os.cpu_count", lambda: 1)
        assert self.sweep(tmp_path, self.POINT, "--jobs", "0") == 0
        assert "sweep: 2 points (jobs=auto)" in capsys.readouterr().out

    @pytest.mark.parametrize("data, flags, message", [
        (POINT, ("--jobs", "-1"), "--jobs must be >= 1 (or 0 for auto), got -1"),
        ("{ not json", (), "invalid JSON in sweep spec"),
        ([POINT, 3], (), "sweep point #1 must be a JSON object, got int"),
        ("7", (), "sweep spec must be a JSON object or list, got int"),
    ], ids=["negative-jobs", "invalid-json", "non-object-point", "scalar"])
    def test_rejections_exit_2(self, tmp_path, capsys, data, flags, message):
        assert self.sweep(tmp_path, data, *flags) == 2
        assert f"run: {message}" in capsys.readouterr().err
