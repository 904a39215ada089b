"""Lifecycle tracing and gauges: recording, spans, exports, passivity.

The headline guarantees:

* tracing and gauges are **passive** — a run with them enabled
  produces the identical report to a run without;
* a swap-preemption run exports valid Chrome trace-event JSON with
  queued/running/preempted spans (the Perfetto acceptance criterion);
* sinks are registered ``trace`` components, reachable from the spec
  mini-DSL and the CLI.
"""

import dataclasses
import json

import pytest

from repro.api import ComponentSpec, component_names
from repro.cli import main
from repro.obs import (
    FRONTEND_REPLICA,
    GaugeSampler,
    TraceRecorder,
    sink_spec_for_path,
    validate_chrome_trace,
)
from repro.serve import PoissonArrivals, run_serving, run_serving_cluster
from repro.serve.arrivals import LengthSampler
from repro.serve.simulator import ServingConfig

GB = 1 << 30


def pressure_stream(n=30, seed=0):
    """A stream hot enough to force preemptions on a 4 GB device."""
    lengths = LengthSampler(mean_prompt=1500, mean_output=900)
    return PoissonArrivals(rate_per_s=6.0).generate(n, lengths, seed=seed)


def pressure_run(trace=None, gauges=None, preemption="swap"):
    return run_serving(
        pressure_stream(), "opt-1.3b", allocator="caching",
        capacity=4 * GB, scheduler="fcfs",
        config=ServingConfig(max_batch=8, queue_timeout_s=3.0),
        preemption=preemption, trace=trace, gauges=gauges,
    )


class TestPassivity:
    def test_trace_and_gauges_change_nothing(self):
        baseline = pressure_run()
        traced = pressure_run(trace=TraceRecorder(),
                              gauges=GaugeSampler(0.5))
        plain = dataclasses.asdict(baseline.report())
        observed = dataclasses.asdict(traced.report())
        assert plain == observed
        assert [r.finished_s for r in baseline.requests] == \
               [r.finished_s for r in traced.requests]


class TestRecorder:
    def test_request_events_cover_lifecycle(self):
        recorder = TraceRecorder()
        result = pressure_run(trace=recorder)
        assert result.preemptions > 0
        kinds = {e.kind for e in recorder.events}
        assert {"arrival", "admit", "first_token", "finish",
                "preempt"} <= kinds
        assert "memory" in kinds  # allocator observer fired
        per_request = recorder.request_events()
        req = per_request[(0, result.requests[0].req_id)]
        assert req[0].kind == "arrival"

    def test_spans_include_preempted(self):
        recorder = TraceRecorder()
        pressure_run(trace=recorder)
        spans = recorder.spans()
        names = {s["name"] for s in spans}
        assert {"queued", "running", "preempted"} <= names
        for span in spans:
            assert span["end_s"] >= span["start_s"]

    def test_chrome_trace_is_valid_and_complete(self):
        """The acceptance criterion: a recorded swap-preemption trace
        is valid Chrome trace-event JSON with queued/running/preempted
        spans for at least one request."""
        recorder = TraceRecorder()
        pressure_run(trace=recorder)
        data = recorder.chrome_trace()
        assert validate_chrome_trace(data) > 0
        x_names = {e["name"] for e in data["traceEvents"]
                   if e.get("ph") == "X"}
        assert {"queued", "running", "preempted"} <= x_names
        # One request shows all three phases.
        by_tid = {}
        for event in data["traceEvents"]:
            if event.get("ph") == "X":
                by_tid.setdefault((event["pid"], event["tid"]),
                                  set()).add(event["name"])
        assert any({"queued", "running", "preempted"} <= names
                   for names in by_tid.values())

    def test_chrome_trace_roundtrips_through_json(self, tmp_path):
        recorder = TraceRecorder()
        pressure_run(trace=recorder)
        path = tmp_path / "trace.json"
        recorder.to_chrome(path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(data) > 0

    def test_jsonl_export(self, tmp_path):
        recorder = TraceRecorder()
        pressure_run(trace=recorder)
        path = tmp_path / "trace.jsonl"
        recorder.to_jsonl(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(recorder.events)
        first = json.loads(lines[0])
        assert {"t", "kind", "replica"} <= set(first)

    def test_validator_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"not": "a trace"})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "ts": 10.0, "dur": -1.0, "pid": 1, "tid": 1,
                 "name": "bad"}]})
        with pytest.raises(ValueError):  # timestamps must be monotone
            validate_chrome_trace({"traceEvents": [
                {"ph": "i", "ts": 10.0, "pid": 1, "tid": 1, "name": "b",
                 "s": "t"},
                {"ph": "i", "ts": 5.0, "pid": 1, "tid": 1, "name": "a",
                 "s": "t"}]})


class TestGauges:
    def test_sampler_records_series(self):
        gauges = GaugeSampler(every_s=0.5)
        result = pressure_run(gauges=gauges)
        assert result.gauges, "simulator must return its gauge series"
        times = [p.t_s for p in result.gauges]
        assert times == sorted(times)
        # Stride respected: consecutive samples at least ~every_s apart.
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap >= 0.5 - 1e-9 for gap in gaps)
        for point in result.gauges:
            assert point.reserved_bytes >= point.active_bytes >= 0
            assert 0.0 <= point.kv_utilization <= 1.0
            assert point.queue_depth >= 0 and point.running >= 0

    def test_sampler_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            GaugeSampler(every_s=0.0)


class TestCluster:
    def test_shared_recorder_tags_replicas(self):
        recorder = TraceRecorder()
        gauges = GaugeSampler(1.0)
        result = run_serving_cluster(
            pressure_stream(40), "opt-1.3b", n_replicas=2,
            allocator="caching", capacity=4 * GB,
            config=ServingConfig(max_batch=8, queue_timeout_s=3.0),
            autoscaler="queue-depth?high=2000&low=200",
            trace=recorder, gauges=gauges,
        )
        replicas = {e.replica for e in recorder.events}
        assert {0, 1} <= replicas or FRONTEND_REPLICA in replicas
        assert result.active_replica_points
        assert any(e.kind == "autoscale" and e.replica == FRONTEND_REPLICA
                   for e in recorder.events)
        data = recorder.chrome_trace()
        assert validate_chrome_trace(data) > 0
        assert {p.replica for p in result.gauge_points} <= {0, 1}
        # Per-replica series filter agrees with the merged view.
        merged = sorted(result.gauge_points, key=lambda p: (p.t_s, p.replica))
        assert [p.t_s for p in merged] == sorted(p.t_s
                                                 for p in result.gauge_points)

    def test_streaming_cluster_report_matches_exact_counters(self):
        result = run_serving_cluster(
            pressure_stream(40), "opt-1.3b", n_replicas=2,
            allocator="caching", capacity=4 * GB,
            config=ServingConfig(max_batch=8, queue_timeout_s=3.0),
        )
        exact = result.report()
        stream = result.report(streaming=True)
        for field in ("n_requests", "completed", "rejected", "timed_out",
                      "preemptions", "output_tokens", "on_time_tokens",
                      "slo_attainment"):
            assert getattr(stream, field) == getattr(exact, field), field
        # Means sum per replica before merging (vs. arrival order in
        # the exact path) — equal up to float association.
        for field in ("mean_ttft_s", "mean_tpot_s"):
            assert getattr(stream, field) == pytest.approx(
                getattr(exact, field), rel=1e-12), field


class TestTraceSpecs:
    def test_registered_sinks(self):
        assert set(component_names("trace")) == {"chrome", "jsonl"}

    def test_spec_roundtrip(self):
        spec = ComponentSpec.parse("chrome?path=/tmp/x.json", "trace")
        assert spec.name == "chrome"
        assert spec.params["path"] == "/tmp/x.json"
        assert ComponentSpec.parse("perfetto", "trace").name == "chrome"

    def test_for_path_picks_sink_by_suffix(self):
        assert sink_spec_for_path("out.jsonl").name == "jsonl"
        assert sink_spec_for_path("out.json").name == "chrome"
        assert sink_spec_for_path("anything.trace").name == "chrome"

    def test_empty_path_rejected(self):
        from repro.api.registry import SpecError
        with pytest.raises(SpecError):
            ComponentSpec.parse("chrome?path=", "trace")


class TestCli:
    def test_serve_trace_and_gauges(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main([
            "serve", "--model", "opt-1.3b", "--allocator", "caching",
            "--capacity", "4GB", "--rate", "6.0", "--requests", "30",
            "--scheduler", "fcfs", "--mean-prompt", "1500",
            "--mean-output", "900", "--timeout", "3.0", "--max-batch", "8",
            "--preemption", "swap", "--trace", str(out), "--gauges",
            "--streaming",
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "gauges" in captured
        assert "trace events" in captured
        data = json.loads(out.read_text(encoding="utf-8"))
        assert validate_chrome_trace(data) > 0

    def test_serve_trace_refuses_multiple_allocators(self, tmp_path, capsys):
        code = main([
            "serve", "--model", "opt-1.3b", "--allocator", "caching,gmlake",
            "--capacity", "4GB", "--requests", "5",
            "--trace", str(tmp_path / "t.json"),
        ])
        assert code == 2
        assert "single allocator" in capsys.readouterr().err

    def test_list_components_has_trace_kind(self, capsys):
        assert main(["list-components", "--kind", "trace"]) == 0
        out = capsys.readouterr().out
        assert "chrome" in out and "jsonl" in out and "perfetto" in out
