"""Tests for trace serialization and the command-line interface."""

import json
import re

import pytest

from repro.cli import _serve_spec_from, build_parser, main
from repro.units import MB
from repro.workloads import TrainingWorkload
from repro.workloads.inference import ServingWorkload
from repro.workloads.request import Op, Trace
from repro.workloads.traceio import load_trace, save_trace


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
        trace = ServingWorkload("opt-1.3b", n_requests=40, max_batch=8,
                                seed=11).build_trace()
        path = tmp_path / "serving.jsonl"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.meta == trace.meta
        assert loaded.compute_us_per_iter == trace.compute_us_per_iter
        assert [(e.op, e.tensor, e.size) for e in loaded.events] == [
            (e.op, e.tensor, e.size) for e in trace.events
        ]
        # The churn signature is intact: some KV frees happen before
        # later KV allocations (out-of-admission-order retirement).
        ops = [(e.op, e.tensor) for e in loaded.events
               if e.tensor.startswith("kv")]
        first_free = next(i for i, (op, _) in enumerate(ops)
                          if op is Op.FREE)
        assert any(op is Op.ALLOC for op, _ in ops[first_free:])

    def test_serving_workload_seed_is_byte_identical(self, tmp_path):
        """Same seed => byte-identical serialized trace."""
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        save_trace(ServingWorkload("opt-1.3b", n_requests=60, max_batch=8,
                                   seed=9).build_trace(), path_a)
        save_trace(ServingWorkload("opt-1.3b", n_requests=60, max_batch=8,
                                   seed=9).build_trace(), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        path_c = tmp_path / "c.jsonl"
        save_trace(ServingWorkload("opt-1.3b", n_requests=60, max_batch=8,
                                   seed=10).build_trace(), path_c)
        assert path_a.read_bytes() != path_c.read_bytes()


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

    def test_sweep_strategies(self, capsys):
        code = main(["sweep", "--axis", "strategies", "--model", "opt-1.3b",
                     "--batch", "2", "--gpus", "1", "--values", "N,R",
                     "--iterations", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "UR gmlake" in out

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
        code = main(["serve", "--model", "opt-1.3b", "--arrival", "replay",
                     "--arrival-log", str(log), "--requests", "10",
                     "--allocator", "gmlake", "--capacity", "8GB"])
        assert code == 0
        assert "10" in capsys.readouterr().out

    def test_serve_replay_requires_log(self, capsys):
        code = main(["serve", "--arrival", "replay"])
        assert code == 2
        assert "--arrival-log" in capsys.readouterr().err

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
        ["--kv-cache", "paged?block_tokens=16", "--prefix-sharing",
         "--tenants", "8", "--scheduler", "wfq"],
        ["--kv-cache", "paged?block_tokens=16", "--max-batch", "32",
         "--memory-tiers", "dram?gb=0.2,cxl?gb=16&gb_per_s=40"],
    ], ids=["single", "gpus", "disagg", "prefix-sharing", "memory-tiers"])
    def test_serve_flags_equal_run_on_the_spec_they_build(
            self, flags, tmp_path, capsys):
        """`repro serve <flags>` and `repro run --spec` on the spec
        those flags build are one path: same report rows."""
        argv = ["serve", "--model", "opt-1.3b", "--rate", "12",
                "--requests", "40", "--allocator", "caching,gmlake",
                "--capacity", "3500MB", *flags]
        path = str(tmp_path / "spec.json")
        _serve_spec_from(build_parser().parse_args(argv)).save(path)
        assert main(argv) == 0
        table = capsys.readouterr().out.splitlines()
        assert main(["run", "--spec", path]) == 0
        extras = {
            line.split(":")[0].strip(): dict(re.findall(r"(\w+)=([^,]+)", line))
            for line in capsys.readouterr().out.splitlines()
            if "completed=" in line}
        header = [cell.strip() for cell in table[1].split("|")]
        rows = [dict(zip(header, (cell.strip() for cell in line.split("|"))))
                for line in table[3:5]]
        assert [row["run"] for row in rows] == list(extras) \
            == ["caching", "gmlake"]
        for row in rows:
            ran = extras[row["run"]]
            assert (row["done"], row["rej"], row["preempt"]) == (
                ran["completed"], ran["rejected"], ran["preemptions"])
            assert float(row["goodput (req/s)"]) == float(ran["goodput_req_s"])

    @pytest.mark.parametrize("flags,field", [
        (["--memory-tiers", "dram?gb=1", "--preemption", "swap"],
         "memory_tiers"),
        (["--disagg", "--gpus", "2"], "replicas"),
        (["--autoscaler", "queue-depth?high=100&low=10"], "replicas"),
        (["--prefix-sharing", "--kv-cache", "chunked?chunk_tokens=128"],
         "prefix_sharing"),
        (["--tenants", "4", "--arrivals", "poisson?rate=2"], "--tenants"),
    ], ids=["tiers+swap", "disagg+gpus", "autoscaler-one-gpu",
            "prefix-sharing-unpaged", "tenants+arrivals"])
    def test_serve_misuse_exits_2_naming_the_field(
            self, flags, field, monkeypatch, capsys):
        """ServingSpec is the one validator: a flag combination it
        rejects dies before any simulation runs."""
        monkeypatch.setattr(
            "repro.cli.run_experiment",
            lambda spec: pytest.fail("a simulation ran"))
        assert main(["serve", "--model", "opt-1.3b", *flags]) == 2
        assert field in capsys.readouterr().err

    def test_unknown_command_fails(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_capacity_parsing(self, capsys):
        code = main(["compare", "--model", "opt-1.3b", "--batch", "2",
                     "--gpus", "1", "--strategies", "N", "--iterations", "2",
                     "--allocators", "gmlake", "--capacity", "24GB"])
        assert code == 0
        assert "OOM" in capsys.readouterr().out
