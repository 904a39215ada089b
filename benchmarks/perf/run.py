"""The repo's benchmark: five workloads through ``repro.api.run``.

Two front-ends over one measuring core.

*Suite* (what a person runs)::

    python benchmarks/perf/run.py [--seed N] [--repeats K]
                                  [--workload W ...] [--out FILE]

runs every workload K times in sequential child processes, repeats
interleaved round-robin so a noise burst costs each workload one
sample, then a few set-up-only children, then one traced child per
workload; prints every metric by name with its unit, checks the
outputs and writes the lot (raw samples included) to ``--out``.

Repeat ``i`` of harness seed ``N`` runs the spec with seed ``100 N +
i``: what a workload costs per event depends on its inputs (how often
``fleet_shared`` thrashes varies by a quarter from seed to seed), so
one harness seed stands for K inputs, and a timed number is the median
over them.  Two suites with the same ``--seed`` see the same inputs
and ``--compare`` pairs them repeat by repeat.

*Driver* (what ``BENCHMARK.json``'s ``command`` is run as)::

    python benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

measures one workload for about S seconds (``--trace 0``: the
end-to-end metrics) or runs it once plain and once traced (``--trace
1``: the per-layer metrics), and prints one JSON object last.

Also ``--compare A.json B.json`` (two suite outputs, against the
bounds in ``BENCHMARK.json``) and ``--update-reference``.

Host times are CPU seconds (``time.process_time()`` in the child):
on the shared 2-core sandbox wall-clock doubles under load while CPU
time stays put.  Wall-clock is kept per run as a raw field.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))

import specs  # noqa: E402
from compare import compare_files  # noqa: E402
from layers import LAYERS  # noqa: E402

BENCHMARK_JSON = REPO / "BENCHMARK.json"
REFERENCE_JSON = HERE / "reference.json"
OUT_DIR = HERE / "out"
REFERENCE_SEEDS = (0, 1, 2)
#: Repeat i of harness seed N runs the spec with seed SEED_STRIDE * N + i.
SEED_STRIDE = 100

#: Untraced runs per workload: the least a timed set may have, and the
#: suite's default.
MIN_REPEATS = 3
SUITE_REPEATS = 5
#: Extra children that stop before ``api.run``; with the run children
#: they make ``setup_s`` a median of 8 or more.
SETUP_PROBES = 5
#: A run slower than this multiple of the reference CPU time is killed
#: and counted as failed; a traced run is allowed the profiler's cost.
SLOW_FACTOR = 10
TRACE_SLOWDOWN = 6
DEFAULT_TIMEOUT_S = 150.0
WALL_OVER_CPU_WARN = 1.15


def load_contract() -> Dict[str, Any]:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def load_reference() -> Dict[str, Any]:
    if not REFERENCE_JSON.exists():
        return {}
    with open(REFERENCE_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def fingerprint() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of a sample (quartiles as
    ``statistics.quantiles(values, n=4)`` gives them), samples kept."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": list(values)}


# ----------------------------------------------------------------------
# Running children
# ----------------------------------------------------------------------
class Session:
    """Every child run of one invocation, in the order it was made."""

    def __init__(self, seed: int, reference: Dict[str, Any]):
        self.seed = seed
        self.reference = reference
        self.runs: List[Dict[str, Any]] = []

    def child(self, workload: str, mode: str, repeat: int = 0) -> Dict[str, Any]:
        """Run one child to its end (or kill it); returns its record,
        which carries ``"error"`` instead of results when it failed."""
        spec_seed = SEED_STRIDE * self.seed + repeat
        ref_cpu = self.reference.get(workload, {}).get("cpu_s")
        timeout = DEFAULT_TIMEOUT_S
        if ref_cpu:
            factor = SLOW_FACTOR * (TRACE_SLOWDOWN if mode == "trace" else 1)
            timeout = min(timeout, max(10.0, factor * ref_cpu))
        job = {"workload": workload, "seed": spec_seed, "mode": mode,
               "out_dir": str(OUT_DIR.relative_to(REPO))}
        env = dict(os.environ, PYTHONHASHSEED="0")
        record: Dict[str, Any] = {"workload": workload, "seed": spec_seed,
                                  "repeat": repeat, "mode": mode,
                                  "order": len(self.runs)}
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "child.py")],
                input=json.dumps(job), capture_output=True, text=True,
                cwd=REPO, env=env, timeout=timeout)
        except subprocess.TimeoutExpired:
            record["error"] = f"killed after {timeout:.0f} s"
        else:
            if done.returncode != 0:
                tail = done.stderr.strip().splitlines()[-1:] or ["no stderr"]
                record["error"] = f"exit {done.returncode}: {tail[0]}"
            else:
                record.update(json.loads(done.stdout.strip().splitlines()[-1]))
        if "run_cpu_s" in record:
            record["wall_over_cpu"] = record["run_wall_s"] / record["run_cpu_s"]
            if mode == "run" and record["wall_over_cpu"] > WALL_OVER_CPU_WARN:
                print(f"warning: {workload} run {record['order']}: wall/CPU = "
                      f"{record['wall_over_cpu']:.2f} (machine busy?)",
                      file=sys.stderr)
        self.runs.append(record)
        return record

    def of(self, workload: str, mode: str) -> List[Dict[str, Any]]:
        """The children of one workload and mode that did not fail."""
        return [r for r in self.runs if r["workload"] == workload
                and r["mode"] == mode and "error" not in r]

    # -- plans ---------------------------------------------------------
    def timed_rounds(self, workloads: Sequence[str], repeats: int,
                     seconds: Optional[float] = None) -> None:
        """Untraced runs, round-robin over ``workloads``.  With
        ``seconds``, rounds go on (past ``repeats``) while another
        round still fits; a workload that failed is not run again."""
        start = time.perf_counter()
        live = list(workloads)
        rounds = 0
        while live:
            round_start = time.perf_counter()
            live = [w for w in live
                    if "error" not in self.child(w, "run", repeat=rounds)]
            rounds += 1
            now = time.perf_counter()
            if rounds >= repeats and (
                    seconds is None
                    or now - start + (now - round_start) > seconds):
                break

    def setup_probes(self, workloads: Sequence[str]) -> None:
        live = list(workloads)
        for _ in range(SETUP_PROBES):
            live = [w for w in live if "error" not in self.child(w, "setup")]

    def traced(self, workload: str) -> None:
        """One traced run (of repeat 0's inputs), after making sure the
        set has the untraced runs its ratios are taken against."""
        for needed in (workload, specs.OBS_CONTROL.get(workload)):
            if needed and not any(r["repeat"] == 0
                                  for r in self.of(needed, "run")):
                self.child(needed, "run")
        self.child(workload, "trace")


# ----------------------------------------------------------------------
# From runs to metrics
# ----------------------------------------------------------------------
def _cpu_by_repeat(session: Session, workload: str) -> Dict[int, float]:
    return {r["repeat"]: r["run_cpu_s"] for r in session.of(workload, "run")}


def end_to_end_metrics(session: Session, workload: str) -> Dict[str, Any]:
    runs = session.of(workload, "run")
    if not runs:
        return {}
    setups = [r["setup_cpu_s"] for r in runs + session.of(workload, "setup")]
    return {
        "events_per_cpu_s": spread([r["events"] / r["run_cpu_s"]
                                    for r in runs]),
        "setup_s": spread(setups),
        "peak_rss_mb": spread([r["rss_mb"] for r in runs]),
    }


def per_layer_metrics(session: Session, workload: str) -> Dict[str, float]:
    traced = session.of(workload, "trace")
    if not traced:
        return {}
    t = traced[-1]
    total = t["profile_total_s"]
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = t["layer_self_s"][layer]
        out[f"{layer}.share"] = t["layer_self_s"][layer] / total
        out[f"{layer}.calls"] = t["layer_calls"][layer]

    def per(a: float, b: float) -> float:
        return a / b if b else 0.0

    c = t["counters"]
    out.update({
        "allocators.mallocs": c["mallocs"],
        "allocators.oom_raised": c["oom_raised"],
        "core.mallocs": c["core_mallocs"],
        "gpu.driver_calls": c["driver_calls"],
        "gpu.driver_calls_per_malloc": per(c["driver_calls"], c["mallocs"]),
        "serve.simulator.ticks": c["ticks"],
        "serve.simulator.tokens_per_tick": per(c["tokens"], c["ticks"]),
        "serve.simulator.preemptions": c["preemptions"],
        "serve.simulator.rejected": c["rejected"],
        "serve.scheduler.selects": c["selects"],
        "serve.scheduler.admits_per_select": per(c["admits"], c["selects"]),
        "serve.kvcache.mallocs_per_token": per(c["kv_allocs"], c["tokens"]),
        "serve.kvcache.prefix_hit_rate": c["prefix_hit_rate"],
        "serve.kvcache.cow_copy_mb": c["cow_copy_mb"],
        "serve.preemption.demoted_mb": c["demoted_mb"],
        "serve.preemption.promoted_mb": c["promoted_mb"],
        "serve.cluster.retries": c["retries"],
        "obs.trace_events": c["trace_events"],
        "obs.trace_bytes": c["trace_bytes"],
        "obs.gauge_points": c["gauge_points"],
        "run.events": t["events"],
        "sim_frag_ratio": t["sim"]["frag_ratio"],
        "sim_throughput": t["sim"]["throughput"],
        "sim_makespan_s": t["sim"]["makespan_s"],
    })
    # Ratios of host times pair runs of the same inputs: the control
    # workload simulates the same run, repeat by repeat.
    cpu = _cpu_by_repeat(session, workload)
    control = _cpu_by_repeat(session, specs.OBS_CONTROL.get(workload, ""))
    paired = [cpu[i] / control[i] - 1.0 for i in cpu if i in control]
    out["obs.overhead_share"] = statistics.median(paired) if paired else 0.0
    out["trace.overhead_ratio"] = per(t["run_cpu_s"], cpu.get(t["repeat"], 0.0))
    out["run.wall_over_cpu"] = statistics.median(
        r["wall_over_cpu"] for r in session.of(workload, "run"))
    return out


def check(session: Session, workload: Optional[str] = None) -> Dict[str, Any]:
    """Correctness and failure accounting over one workload's runs (or
    all the session's).

    One operation is one child.  It fails if it raised or was killed,
    broke an invariant, digested differently from an earlier run of the
    same inputs or from ``reference.json`` (for the seeds recorded
    there), or - a traced run - lost time in the layer attribution.
    """
    runs = [r for r in session.runs if workload in (None, r["workload"])]
    digests: Dict[str, str] = {}
    problems: List[str] = []
    failed = 0
    for r in runs:
        why = []
        if "error" in r:
            why.append(r["error"])
        elif r["mode"] != "setup":
            why.extend(r["broken"])
            first = digests.setdefault(f"{r['workload']}@{r['seed']}",
                                       r["digest"])
            if r["digest"] != first:
                why.append(f"digest {r['digest']} differs from an earlier run "
                           f"of spec seed {r['seed']}, {first}")
            ref = (session.reference.get(r["workload"], {}).get("runs", {})
                   .get(str(r["seed"])))
            if ref and (r["digest"], r["events"]) != (ref["digest"],
                                                      ref["events"]):
                why.append(f"digest/events {r['digest']}/{r['events']} differ "
                           f"from reference.json {ref['digest']}/"
                           f"{ref['events']}")
            if r["mode"] == "trace":
                attributed = sum(r["layer_self_s"].values())
                if abs(attributed / r["profile_total_s"] - 1.0) > 0.01:
                    why.append(f"layer shares sum to "
                               f"{attributed / r['profile_total_s']:.4f}")
        if why:
            failed += 1
            problems.extend(f"{r['workload']} run {r['order']} ({r['mode']}): "
                            f"{w}" for w in why)
    return {"ops_attempted": len(runs), "ops_failed": failed,
            "correct": failed == 0 and bool(runs), "digests": digests,
            "problems": problems}


def print_metrics(workload: str, metrics: Dict[str, Any],
                  units: Dict[str, str]) -> None:
    for name, value in metrics.items():
        if isinstance(value, dict):
            text = (f"{value['median']:.6g} {units[name]}  "
                    f"(q1 {value['q1']:.6g}, q3 {value['q3']:.6g}, "
                    f"n={value['n']})")
        else:
            text = f"{value:.6g} {units[name]}"
        print(f"{workload:15s} {name:36s} = {text}")


# ----------------------------------------------------------------------
# Front-ends
# ----------------------------------------------------------------------
def _units(contract: Dict[str, Any]) -> Dict[str, str]:
    return {m["name"]: m["unit"]
            for m in contract["end_to_end"] + contract["per_layer"]}


def drive(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """The contract's ``command``: one workload, one JSON object last."""
    contract = load_contract()
    units = _units(contract)
    session = Session(seed, load_reference())
    if trace:
        session.traced(workload)
        metrics = per_layer_metrics(session, workload)
        wanted = [m["name"] for m in contract["per_layer"]]
    else:
        session.timed_rounds([workload], MIN_REPEATS, seconds)
        session.setup_probes([workload])
        metrics = end_to_end_metrics(session, workload)
        wanted = [m["name"] for m in contract["end_to_end"]]
    # Every child counts, serve_observed's control run of serve_stitch too.
    verdict = check(session)
    for problem in verdict["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    if sorted(metrics) != sorted(wanted):
        print(f"FAILED: {workload}: no result for "
              f"{sorted(set(wanted) - set(metrics))}", file=sys.stderr)
        return 1
    print_metrics(workload, metrics, units)
    print(json.dumps({
        "correct": verdict["correct"],
        "attempted": verdict["ops_attempted"],
        "failed": verdict["ops_failed"],
        "metrics": {
            name: {"value": (value["median"] if isinstance(value, dict)
                             else value),
                   "unit": units[name]}
            for name, value in metrics.items()},
    }))
    return 0


def suite(workloads: Sequence[str], seed: int, repeats: int,
          out: Path) -> int:
    contract = load_contract()
    units = _units(contract)
    session = Session(seed, load_reference())
    result: Dict[str, Any] = {
        "schema": 1, "seed": seed, "repeats": repeats,
        "fingerprint": fingerprint(), "workloads": {},
    }
    session.timed_rounds(workloads, repeats)
    session.setup_probes(workloads)
    for workload in workloads:
        session.traced(workload)
    ok = True
    for workload in workloads:
        verdict = check(session, workload)
        e2e = end_to_end_metrics(session, workload)
        layers = per_layer_metrics(session, workload)
        print_metrics(workload, {**e2e, **layers}, units)
        print(f"{workload:15s} ops_attempted = {verdict['ops_attempted']}, "
              f"ops_failed = {verdict['ops_failed']}, "
              f"correct = {verdict['correct']}")
        for problem in verdict["problems"]:
            print(f"FAILED: {problem}", file=sys.stderr)
        ok &= verdict["correct"]
        traced = session.of(workload, "trace")
        result["workloads"][workload] = {
            **verdict, "end_to_end": e2e, "per_layer": layers,
            "span_self_s": traced[-1]["span_self_s"] if traced else {},
        }
    # Raw samples, in the order they were taken, so every median above
    # can be recomputed.
    result["runs"] = [
        {k: r[k] for k in ("order", "workload", "mode", "seed", "setup_cpu_s",
                           "run_cpu_s", "run_wall_s", "wall_over_cpu",
                           "rss_mb", "events", "digest", "error") if k in r}
        for r in session.runs]
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    print(f"wrote {out}")
    return 0 if ok else 1


def update_reference() -> int:
    """Re-record digest and events for the inputs of the reference
    seeds (every repeat a default suite makes), and the CPU time the
    slow-run limit is a multiple of."""
    reference: Dict[str, Any] = {
        name: {"cpu_s": 0.0, "runs": {}} for name in specs.NAMES}
    for seed in REFERENCE_SEEDS:
        session = Session(seed, {})
        session.timed_rounds(specs.NAMES, SUITE_REPEATS)
        for name in specs.NAMES:
            verdict = check(session, name)
            if not verdict["correct"]:
                for problem in verdict["problems"]:
                    print(f"FAILED: {problem}", file=sys.stderr)
                return 1
            runs = session.of(name, "run")
            for r in runs:
                reference[name]["runs"][str(r["seed"])] = {
                    "digest": r["digest"], "events": r["events"]}
            reference[name]["cpu_s"] = round(max(
                reference[name]["cpu_s"],
                statistics.median(r["run_cpu_s"] for r in runs)), 2)
    with open(REFERENCE_JSON, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    print(f"wrote {REFERENCE_JSON}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=specs.NAMES,
                        help="run only this workload (repeatable in a suite)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=SUITE_REPEATS,
                        help=f"suite: untraced runs per workload "
                             f"(>= {MIN_REPEATS})")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "latest.json",
                        help="suite: where the results go")
    parser.add_argument("--seconds", type=float,
                        help="driver: how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver: 0 end-to-end metrics, 1 per-layer")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two suite outputs; exit 1 on regression")
    parser.add_argument("--update-reference", action="store_true",
                        help="rewrite reference.json from fresh runs")
    args = parser.parse_args(argv)

    if args.compare:
        return compare_files(args.compare[0], args.compare[1],
                             load_contract())
    if not (REPO / "src" / "repro").is_dir():
        print(f"{REPO / 'src' / 'repro'} is missing: nothing to measure",
              file=sys.stderr)
        return 2
    if args.update_reference:
        return update_reference()
    if args.seconds is not None or args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--seconds/--trace measure exactly one --workload")
        return drive(args.workload[0], args.seed, args.seconds or 0.0,
                     bool(args.trace))
    if args.repeats < MIN_REPEATS:
        parser.error(f"--repeats must be >= {MIN_REPEATS}")
    return suite(args.workload or specs.NAMES, args.seed, args.repeats,
                 args.out)


if __name__ == "__main__":
    sys.exit(main())
