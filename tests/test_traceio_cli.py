"""Tests for trace serialization and the command-line interface."""

import argparse
import dataclasses
import json
import re

import pytest

from repro.analysis import along, comparison, grid
from repro.api import DisaggSpec, ExperimentSpec, ServingSpec, WorkloadSpec
from repro.cli import _serve_spec_from, build_parser, main
from repro.units import MB
from repro.workloads import TrainingWorkload
from repro.workloads.request import Op, Trace
from repro.workloads.traceio import load_trace, save_trace
from test_workloads_inference import record


class TestTraceIO:
    def test_roundtrip_preserves_everything(self, tmp_path):
        trace = TrainingWorkload("gpt-2", batch_size=4, strategies="R",
                                 iterations=2).build_trace()
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.meta == trace.meta
        assert loaded.compute_us_per_iter == trace.compute_us_per_iter
        assert [(e.op, e.tensor, e.size) for e in loaded.events] == [
            (e.op, e.tensor, e.size) for e in trace.events
        ]

    def test_loaded_trace_validates(self, tmp_path):
        trace = TrainingWorkload("gpt-2", batch_size=2,
                                 iterations=1).build_trace()
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        load_trace(path).validate()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "event", "op": "alloc",
                                    "tensor": "x", "size": 1}) + "\n")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_free_events_have_no_size(self, tmp_path):
        trace = Trace()
        trace.alloc("a", 2 * MB)
        trace.free("a")
        path = tmp_path / "t.jsonl"
        save_trace(trace, path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert "size" not in lines[2]
        assert load_trace(path).events[1].op is Op.FREE

    def test_serving_roundtrip_preserves_event_order(self, tmp_path):
        """ALLOC/FREE interleaving (the serving churn pattern) must
        survive save/load exactly — order, names, sizes, and meta."""
        _, trace = record("opt-1.3b", 40, seed=11, max_batch=8)
        trace.meta["label"] = "opt-1.3b/serving/40req"
        path = tmp_path / "serving.jsonl"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.meta == trace.meta
        assert loaded.compute_us_per_iter == trace.compute_us_per_iter
        assert [(e.op, e.tensor, e.size) for e in loaded.events] == [
            (e.op, e.tensor, e.size) for e in trace.events
        ]
        # The churn signature is intact: some KV frees happen before
        # later KV allocations (out-of-admission-order retirement).  A
        # KV tensor outlives the next event; a workspace is freed by it.
        events = loaded.events
        kv = {e.tensor for e, after in zip(events, events[1:])
              if e.op is Op.ALLOC and after.tensor != e.tensor}
        ops = [e.op for e in events if e.tensor in kv]
        first_free = ops.index(Op.FREE)
        assert Op.ALLOC in ops[first_free:]

    def test_serving_workload_seed_is_byte_identical(self, tmp_path):
        """Same seed => byte-identical serialized trace."""
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        save_trace(record("opt-1.3b", 60, seed=9, max_batch=8)[1], path_a)
        save_trace(record("opt-1.3b", 60, seed=9, max_batch=8)[1], path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        path_c = tmp_path / "c.jsonl"
        save_trace(record("opt-1.3b", 60, seed=10, max_batch=8)[1], path_c)
        assert path_a.read_bytes() != path_c.read_bytes()


#: The commands whose flags fill in a spec.
SPEC_COMMANDS = ("compare", "sweep", "trace", "serve")
#: Their flags that set no spec field.
CLI_ONLY_DESTS = {"help", "axis", "values", "out", "gauges"}
#: Their flags with a default of their own: sweep's per-axis values,
#: serve's allocator, and the stride --gauges samples at.
CLI_DEFAULTS = {"values", "allocators", "gauge_every_s"}


def _subparsers():
    commands, = (action.choices for action in build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    return commands


def _forbid_simulation(monkeypatch):
    """Fail the test if an experiment, a sweep or a trace runs."""
    def ran(*args, **kwargs):
        pytest.fail("a simulation ran")

    monkeypatch.setattr("repro.cli.run_experiment", ran)
    monkeypatch.setattr("repro.analysis.experiments.run_sweep", ran)
    monkeypatch.setattr(TrainingWorkload, "build_trace", ran)


class _Built(Exception):
    """Carries what a command built to the test, in place of a run."""


class TestCli:
    def test_models_lists_registry(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "gpt-neox-20b" in out

    def test_compare_runs(self, capsys):
        code = main(["compare", "--model", "opt-1.3b", "--batch", "2",
                     "--gpus", "1", "--strategies", "N",
                     "--iterations", "2",
                     "--allocators", "caching,gmlake"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gmlake" in out and "caching" in out

    @staticmethod
    def _sweep(capsys, *flags):
        """`repro sweep` over ``flags`` as {axis value: (UR caching,
        UR gmlake, RM caching, RM gmlake)} table cells."""
        assert main(["sweep", "--model", "opt-1.3b", "--batch", "2",
                     "--iterations", "2", *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        cells = [[c.strip() for c in line.split("|")] for line in lines[3:]]
        return {row[0]: tuple(float(c) for c in row[1:5]) for row in cells}

    @staticmethod
    def _grid(field, values, **workload):
        """The same cells from the grid helper run directly."""
        base = ExperimentSpec(workload=WorkloadSpec(
            "opt-1.3b", 2, iterations=2, **workload))
        out = {}
        for key, results in grid(base, along(field, values), jobs=1).items():
            row = comparison(results)
            out[str(key)] = (
                round(row.baseline.utilization_ratio, 3),
                round(row.gmlake.utilization_ratio, 3),
                round(row.baseline.peak_reserved_gb, 2),
                round(row.gmlake.peak_reserved_gb, 2))
        return out

    def test_sweep_strategies(self, capsys):
        table = self._sweep(capsys, "--axis", "strategies", "--gpus", "1",
                            "--values", "N,R")
        assert table == self._grid("strategies", ("N", "R"), n_gpus=1)

    def test_sweep_honours_platform(self, capsys):
        """Every point is the flags' workload with only the axis field
        replaced: --platform reaches the runs."""
        flags = ("--axis", "gpus", "--values", "1,2")
        deepspeed = self._sweep(capsys, *flags)
        fsdp = self._sweep(capsys, *flags, "--platform", "fsdp")
        assert fsdp != deepspeed
        assert fsdp == self._grid("n_gpus", (1, 2), platform="fsdp")

    def test_trace_and_replay(self, tmp_path, capsys):
        out_path = str(tmp_path / "t.jsonl")
        assert main(["trace", "--model", "gpt-2", "--batch", "2",
                     "--gpus", "1", "--iterations", "2",
                     "--out", out_path]) == 0
        assert main(["replay", "--in", out_path,
                     "--allocator", "gmlake"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "gmlake" in out

    def test_microbench(self, capsys):
        assert main(["microbench"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "115" in out

    def test_list_allocators(self, capsys):
        assert main(["list-allocators"]) == 0
        out = capsys.readouterr().out
        assert "gmlake" in out and "caching" in out
        assert "pytorch" in out          # alias column
        assert "GMLakeAllocator" in out  # class column

    def test_serve_prints_slo_table(self, capsys):
        code = main(["serve", "--model", "opt-1.3b", "--arrival", "poisson",
                     "--rate", "2.0", "--requests", "20",
                     "--allocator", "gmlake", "--capacity", "8GB"])
        assert code == 0
        out = capsys.readouterr().out
        for column in ("TTFT p50", "lat p99", "goodput", "util"):
            assert column in out

    def test_serve_multi_allocator_multi_gpu(self, capsys):
        code = main(["serve", "--model", "opt-1.3b", "--arrival", "mmpp",
                     "--rate", "2.0", "--requests", "20", "--gpus", "2",
                     "--allocator", "caching,gmlake", "--capacity", "8GB",
                     "--scheduler", "fcfs"])
        assert code == 0
        out = capsys.readouterr().out
        assert "caching" in out and "gmlake" in out

    def test_serve_replay_arrivals(self, tmp_path, capsys):
        log = tmp_path / "arrivals.txt"
        log.write_text("\n".join(str(0.25 * i) for i in range(10)))
        code = main(["serve", "--model", "opt-1.3b",
                     "--arrivals", f"replay?path={log}", "--requests", "10",
                     "--allocator", "gmlake", "--capacity", "8GB"])
        assert code == 0
        assert "10" in capsys.readouterr().out

    def test_run_rejects_a_bad_allocator_before_any_runs(
            self, tmp_path, monkeypatch, capsys):
        """A malformed second allocator is a spec error: exit 2 with
        nothing on stdout, and the first allocator never ran."""
        monkeypatch.setattr(
            "repro.cli.run_experiment",
            lambda spec: pytest.fail("an allocator ran"))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "mode": "replay",
            "allocators": ["caching", "gmlake?max_spool_blocks=-1"],
            "workload": {"model": "opt-1.3b", "batch_size": 2, "n_gpus": 1,
                         "iterations": 2},
        }))
        assert main(["run", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_spool_blocks" in captured.err

    @pytest.mark.parametrize("flags", [
        [],
        ["--gpus", "3"],
        ["--disagg", "--prefill-replicas", "2", "--interconnect", "nvlink"],
        # 16 requests still preempt under both allocators, at a quarter
        # of the cost of 40.
        ["--kv-cache", "paged?block_tokens=16", "--prefix-sharing",
         "--arrivals", "multi-tenant?tenants=8&rate=12&shared_prefix_tokens=256",
         "--scheduler", "wfq", "--requests", "16"],
        ["--kv-cache", "paged?block_tokens=16", "--max-batch", "32",
         "--memory-tiers", "dram?gb=0.2,cxl?gb=16&gb_per_s=40"],
    ], ids=["single", "gpus", "disagg", "prefix-sharing", "memory-tiers"])
    def test_serve_flags_equal_run_on_the_spec_they_build(
            self, flags, tmp_path, capsys):
        """`repro serve <flags>` and `repro run --spec` on the spec
        those flags build are one path: same report rows, and the same
        memory headline (util and RM) as the run table."""
        argv = ["serve", "--model", "opt-1.3b", "--rate", "12",
                "--requests", "40", "--allocator", "caching,gmlake",
                "--capacity", "3500MB", *flags]
        path = str(tmp_path / "spec.json")
        _serve_spec_from(build_parser().parse_args(argv)).save(path)
        assert main(argv) == 0
        table = capsys.readouterr().out.splitlines()
        assert main(["run", "--spec", path]) == 0
        ran_out = capsys.readouterr().out.splitlines()
        extras = {
            line.split(":")[0].strip(): dict(re.findall(r"(\w+)=([^,]+)", line))
            for line in ran_out if "completed=" in line}

        def rows_of(lines):
            header = [cell.strip() for cell in lines[1].split("|")]
            return [dict(zip(header, (cell.strip() for cell in line.split("|"))))
                    for line in lines[3:5]]

        rows = rows_of(table)
        headlines = {row["allocator"]: row for row in rows_of(ran_out)}
        assert [row["run"] for row in rows] == list(extras) \
            == list(headlines) == ["caching", "gmlake"]
        for row in rows:
            ran = extras[row["run"]]
            assert (row["done"], row["rej"], row["preempt"]) == (
                ran["completed"], ran["rejected"], ran["preemptions"])
            assert float(row["goodput (req/s)"]) == float(ran["goodput_req_s"])
            headline = headlines[row["run"]]
            assert float(row["RM (GB)"]) == float(headline["reserved (GB)"])
            assert float(row["util"]) == float(headline["utilization"])
            if "--prefix-sharing" in flags:
                assert int(row["preempt"]) > 0

    @pytest.mark.parametrize("flags,field", [
        (["--memory-tiers", "dram?gb=1", "--preemption", "swap"],
         "memory_tiers"),
        (["--disagg", "--gpus", "2"], "replicas"),
        (["--autoscaler", "queue-depth?high=100&low=10"], "replicas"),
        (["--prefix-sharing", "--kv-cache", "chunked?chunk_tokens=128"],
         "prefix_sharing"),
    ], ids=["tiers+swap", "disagg+gpus", "autoscaler-one-gpu",
            "prefix-sharing-unpaged"])
    def test_serve_misuse_exits_2_naming_the_field(
            self, flags, field, monkeypatch, capsys):
        """ServingSpec is the one validator: a flag combination it
        rejects dies before any simulation runs."""
        monkeypatch.setattr(
            "repro.cli.run_experiment",
            lambda spec: pytest.fail("a simulation ran"))
        assert main(["serve", "--model", "opt-1.3b", *flags]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("argv,named", [
        (["compare", "--model", "nope"], "unknown model 'nope'"),
        (["trace", "--model", "nope", "--out", "unused.jsonl"],
         "unknown model 'nope'"),
        (["compare", "--batch", "0"], "batch_size must be >= 1, got 0"),
        (["compare", "--iterations", "0"], "iterations must be >= 1, got 0"),
        (["compare", "--strategies", "XYZ"], "'XYZ'"),
        (["compare", "--platform", "nope"], "unknown platform 'nope'"),
        (["sweep", "--axis", "gpus", "--values", "a"], "'a'"),
        (["sweep", "--axis", "gpus", "--values", "0"],
         "n_gpus must be >= 1, got 0"),
        (["serve", "--model", "nope"], "unknown model 'nope'"),
    ])
    def test_bad_value_exits_2_before_anything_runs(
            self, argv, named, monkeypatch, capsys):
        _forbid_simulation(monkeypatch)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err

    def test_run_rejects_a_bad_workload_before_anything_runs(
            self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "mode": "replay",
            "workload": {"model": "opt-1.3b", "n_gpus": 0}}))
        _forbid_simulation(monkeypatch)
        assert main(["run", "--spec", str(path)]) == 2
        assert "n_gpus must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["compare"], ["sweep", "--axis", "batch"],
        ["trace", "--out", "unused.jsonl"]])
    def test_no_workload_flags_build_the_default_workload(
            self, argv, monkeypatch):
        """The spec holds every default: a flag left unset reaches the
        spec as nothing at all."""
        def built(spec, *axes):
            raise _Built(spec)

        monkeypatch.setattr("repro.cli.run_experiment", built)
        monkeypatch.setattr("repro.cli.grid", built)
        monkeypatch.setattr(TrainingWorkload, "build_trace", built)
        with pytest.raises(_Built) as caught:
            main(argv)
        spec, = caught.value.args
        if argv[0] == "trace":
            assert spec == WorkloadSpec().build()
        else:
            assert spec == ExperimentSpec(workload=WorkloadSpec())

    def test_no_serve_flags_build_the_default_serving_spec(self):
        spec = _serve_spec_from(build_parser().parse_args(["serve"]))
        assert spec == ExperimentSpec(mode="serve", allocators=["gmlake"],
                                      serving=ServingSpec())

    def test_every_flag_names_a_spec_field(self):
        """A flag's dest is the spec field it sets (a misspelt one
        would be dropped without a word), and it declares no default."""
        fields = {field.name
                  for cls in (WorkloadSpec, ServingSpec, DisaggSpec,
                              ExperimentSpec)
                  for field in dataclasses.fields(cls)}
        for command in SPEC_COMMANDS:
            for action in _subparsers()[command]._actions:
                assert action.dest in fields | CLI_ONLY_DESTS, \
                    (command, action.option_strings)
                assert (action.default is argparse.SUPPRESS
                        or action.dest in CLI_DEFAULTS), \
                    (command, action.option_strings)

    def test_unknown_command_fails(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_capacity_parsing(self, capsys):
        code = main(["compare", "--model", "opt-1.3b", "--batch", "2",
                     "--gpus", "1", "--strategies", "N", "--iterations", "2",
                     "--allocators", "gmlake", "--capacity", "24GB"])
        assert code == 0
        assert "OOM" in capsys.readouterr().out
