"""One benchmark run, in a process of its own.

``run.py`` starts this file once per run, writes a JSON job on stdin
and reads one JSON line from stdout.  A job is ``{"workload", "seed",
"mode", "out_dir"}``; ``mode`` is

``run``    parse the spec, time ``api.run(spec)``, digest and check
           the results;
``setup``  stop right before ``api.run`` (one more ``setup_s`` sample);
``trace``  like ``run``, with ``cProfile`` around ``api.run`` and span
           wrappers on the public entry points (per-layer numbers; its
           timings never feed an end-to-end metric).

Everything is measured from outside the program: the child only calls
``ExperimentSpec.from_dict`` and ``repro.api.run`` and reads the
results they return.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"


# ----------------------------------------------------------------------
# What a run produced: digest, events, invariants, counters
# ----------------------------------------------------------------------
def _requests_md5(requests) -> str:
    """MD5 over every request's lifecycle (repr-exact floats)."""
    rows = [
        (r.req_id, r.state.name, r.replica, r.tokens_done, r.preemptions,
         r.retries, repr(r.arrival_s), repr(r.admitted_s),
         repr(r.first_token_s), repr(r.finished_s), repr(r.rejected_s),
         r.reject_reason)
        for r in sorted(requests, key=lambda r: r.req_id)
    ]
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.md5(blob).hexdigest()


def run_digest(results) -> str:
    """MD5 over every simulated statistic ``api.run`` returned: the
    shared ``RunResult`` surface, ``extras()`` and the per-request
    lifecycles, for each allocator in order."""
    rows = [
        {
            "allocator": result.allocator_name,
            "mode": result.mode,
            "peak_active_bytes": result.peak_active_bytes,
            "peak_reserved_bytes": result.peak_reserved_bytes,
            "utilization_ratio": result.utilization_ratio,
            "throughput": result.throughput,
            "oom": result.oom,
            "extras": result.extras(),
            "requests_md5": _requests_md5(getattr(result.raw, "requests", ())),
        }
        for result in results
    ]
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.md5(blob).hexdigest()


def count_events(results) -> int:
    """Simulator events, fixed by (workload, seed): mallocs replayed
    (replay), tokens generated + requests (serve), over all allocators."""
    total = 0
    for result in results:
        if result.mode == "replay":
            total += result.raw.malloc_count
        else:
            requests = result.raw.requests
            total += sum(r.tokens_done for r in requests) + len(requests)
    return total


def broken_invariants(spec: Dict[str, Any], results) -> List[str]:
    """Conservation checks on the results; ``[]`` when all hold.

    Simulated rejections and timeouts are results, not failures: a
    rejected request is in a terminal state like a finished one.
    """
    broken = []
    for result in results:
        who = f"{result.allocator_name}: "
        if result.mode == "replay":
            want = spec["workload"]["iterations"]
            got = result.extras()["iterations_completed"]
            if result.oom or got != want:
                broken.append(who + f"replayed {got} of {want} iterations "
                                    f"(oom={result.oom})")
            continue
        want = spec["serving"]["n_requests"]
        requests = result.raw.requests
        if len({r.req_id for r in requests}) != want or len(requests) != want:
            broken.append(who + f"{len(requests)} request records for "
                                f"{want} requests")
        stuck = sum(1 for r in requests if not (r.finished or r.rejected))
        if stuck:
            broken.append(who + f"{stuck} requests in no terminal state")
        extras = result.extras()
        if extras["completed"] + extras["rejected"] != want:
            broken.append(who + f"completed {extras['completed']} + rejected "
                                f"{extras['rejected']} != {want}")
    return broken


def sim_statistics(result) -> Dict[str, float]:
    """The simulated headline numbers of one (the last-listed) allocator."""
    extras = result.extras()
    makespan = extras.get("makespan_s", extras.get("total_time_s"))
    return {
        "frag_ratio": result.fragmentation_ratio,
        "throughput": result.throughput,
        "makespan_s": makespan,
    }


def result_counters(result, trace_path: str) -> Dict[str, float]:
    """Work counters read off the last allocator's result (exact for a
    fixed seed).  Serve-only counters are 0 on a replay run."""
    out = dict.fromkeys(
        ("tokens", "preemptions", "rejected", "retries", "kv_allocs",
         "prefix_hit_rate", "cow_copy_mb", "demoted_mb", "promoted_mb",
         "gauge_points", "trace_events", "trace_bytes"), 0)
    if result.mode == "replay":
        return out
    raw, extras = result.raw, result.extras()
    out["tokens"] = sum(r.tokens_done for r in raw.requests)
    for key in ("preemptions", "rejected", "retries"):
        out[key] = extras.get(key, 0)
    kv = raw.kv_metrics
    if kv is not None:
        out["kv_allocs"] = kv.kv_allocs
        out["prefix_hit_rate"] = kv.prefix_hit_rate
        out["cow_copy_mb"] = kv.cow_copy_bytes / (1 << 20)
        out["demoted_mb"] = sum(kv.demoted_bytes.values()) / (1 << 20)
        out["promoted_mb"] = sum(kv.promoted_bytes.values()) / (1 << 20)
    gauges = getattr(raw, "gauge_points", None)
    out["gauge_points"] = len(raw.gauges if gauges is None else gauges)
    if os.path.exists(trace_path):
        out["trace_bytes"] = os.path.getsize(trace_path)
        with open(trace_path, encoding="utf-8") as handle:
            out["trace_events"] = len(json.load(handle)["traceEvents"])
    return out


# ----------------------------------------------------------------------
# Spans around the public entry points (traced child only)
# ----------------------------------------------------------------------
#: (module, dotted attribute) of every wrapped entry point.
ENTRY_POINTS = (
    ("repro.api.experiment", "ExperimentSpec.from_dict"),
    ("repro.api.experiment", "run"),
    ("repro.api.experiment", "ServingSpec.build_stream"),
    ("repro.workloads.training", "TrainingWorkload.build_trace"),
    ("repro.sim.engine", "run_trace"),
    ("repro.serve.simulator", "run_serving"),
    ("repro.serve.simulator", "ServingSimulator.run"),
    ("repro.serve.simulator", "ServingSimulator.start"),
    ("repro.serve.simulator", "ServingSimulator.finish"),
    ("repro.serve.cluster", "run_serving_cluster"),
    ("repro.serve.cluster", "dispatch_requests"),
    ("repro.api.result", "ExperimentResult.from_engine"),
    ("repro.api.result", "ExperimentResult.from_serving"),
    ("repro.api.result", "ExperimentResult.from_serve_cluster"),
    ("repro.obs.trace", "ChromeTraceSink.write"),
)


class SpanRecorder:
    """Wraps :data:`ENTRY_POINTS`, keeps spans in memory.

    A span is ``{"id", "name", "layer", "parent", "run", "start",
    "end"}``: ``parent`` is the span that was open when this one began,
    ``run`` the identifier all spans of one child share.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []
        self._patched: List[tuple] = []

    def _wrap(self, name: str, layer: str, fn):
        spans, open_ids, run_id = self.spans, self._open, self.run_id

        def wrapper(*args, **kwargs):
            span = {"id": len(spans), "name": name, "layer": layer,
                    "parent": open_ids[-1] if open_ids else None,
                    "run": run_id, "start": time.perf_counter(), "end": None}
            spans.append(span)
            open_ids.append(span["id"])
            try:
                return fn(*args, **kwargs)
            finally:
                open_ids.pop()
                span["end"] = time.perf_counter()

        return wrapper

    def install(self) -> None:
        from layers import layer_of_module

        for module_name, dotted in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            name = f"{module_name.removeprefix('repro.')}.{dotted}"
            layer = layer_of_module(module_name)
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self._wrap(name, layer, raw.__func__))
            else:
                patched = self._wrap(name, layer, raw)
            setattr(owner, attr, patched)
            self._patched.append((owner, attr, raw))

    def restore(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def chrome_trace(self) -> Dict[str, Any]:
        origin = min((s["start"] for s in self.spans), default=0.0)
        return {"traceEvents": [
            {"name": s["name"], "cat": s["layer"], "ph": "X",
             "ts": (s["start"] - origin) * 1e6,
             "dur": (s["end"] - s["start"]) * 1e6, "pid": 0, "tid": 0,
             "args": {"id": s["id"], "parent": s["parent"], "run": s["run"]}}
            for s in self.spans]}


# ----------------------------------------------------------------------
def _profile_counters(stats) -> Dict[str, int]:
    """Work counts read off the profile's call counts (exact)."""
    from layers import call_count
    from repro.errors import OutOfMemoryError

    oom_line = OutOfMemoryError.__init__.__code__.co_firstlineno
    return {
        "mallocs": call_count(stats, "repro/allocators/base.py", ["malloc"]),
        "core_mallocs": call_count(stats, "repro/core/allocator.py",
                                   ["_malloc_impl"]),
        "oom_raised": call_count(stats, "repro/errors.py", ["__init__"],
                                 line=oom_line),
        "driver_calls": (
            call_count(stats, "repro/gpu/runtime.py", prefix="cuda_")
            + call_count(stats, "repro/gpu/vmm.py", prefix="mem_")),
        "ticks": call_count(stats, "repro/serve/simulator.py", ["tick"]),
        "selects": call_count(stats, "repro/serve/scheduler.py", ["select"]),
        # restore_us runs once per successful admission; counting only
        # the simulator's calls leaves out the policies' super() chains.
        "admits": call_count(stats, "repro/serve/preemption.py",
                             ["restore_us"], caller="_try_admit"),
    }


def _trace_report(profile, recorder: SpanRecorder,
                  out_dir: Path) -> Dict[str, Any]:
    """The traced child's extra results: per-layer self time and calls,
    profile-derived counters, span self times; writes the span trace."""
    import pstats

    from layers import attribute, span_self_times

    stats = pstats.Stats(profile).stats
    self_s, calls = attribute(stats, str(SRC))
    span_self: Dict[str, float] = {}
    for span, self_time in zip(recorder.spans,
                               span_self_times(recorder.spans)):
        span_self[span["name"]] = span_self.get(span["name"], 0.0) + self_time
    trace_file = out_dir / f"spans-{recorder.run_id}.json"
    with open(trace_file, "w", encoding="utf-8") as handle:
        json.dump(recorder.chrome_trace(), handle)
    return {
        "profile_total_s": sum(entry[2] for entry in stats.values()),
        "layer_self_s": self_s,
        "layer_calls": calls,
        "profile_counters": _profile_counters(stats),
        "span_self_s": span_self,
        "span_trace": str(trace_file),
    }


def measure(job: Dict[str, Any]) -> Dict[str, Any]:
    import specs

    mode, name, seed = job["mode"], job["workload"], job["seed"]
    out_dir = Path(job["out_dir"])
    (out_dir / "tmp").mkdir(parents=True, exist_ok=True)
    # Where a workload with a trace sink (serve_observed) writes it.
    trace_path = str(out_dir / "tmp" / f"obs-trace-{os.getpid()}.json")
    spec_dict = specs.spec(name, seed, trace_path)

    from repro.api import experiment

    out: Dict[str, Any] = {"workload": name, "seed": seed, "mode": mode}
    recorder: Optional[SpanRecorder] = None
    profile = None
    if mode == "trace":
        import cProfile

        recorder = SpanRecorder(f"{name}-seed{seed}")
        recorder.install()
        profile = cProfile.Profile()
    try:
        spec = experiment.ExperimentSpec.from_dict(spec_dict)
        out["setup_cpu_s"] = time.process_time()
        if mode == "setup":
            return out
        wall0 = time.perf_counter()
        if profile is not None:
            results = profile.runcall(experiment.run, spec)
        else:
            results = experiment.run(spec)
        out["run_cpu_s"] = time.process_time() - out["setup_cpu_s"]
        out["run_wall_s"] = time.perf_counter() - wall0
        # ru_maxrss is a high-water mark: read it before the harness's
        # own digest work can raise it.
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if recorder is not None:
            recorder.restore()

    out["digest"] = run_digest(results)
    out["events"] = count_events(results)
    out["broken"] = broken_invariants(spec_dict, results)
    out["sim"] = sim_statistics(results[-1])
    out["counters"] = result_counters(results[-1], trace_path)
    if os.path.exists(trace_path):
        os.remove(trace_path)

    if profile is not None:
        report = _trace_report(profile, recorder, out_dir)
        out["counters"].update(report.pop("profile_counters"))
        out.update(report)
    return out


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, str(SRC))
    print(json.dumps(measure(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
