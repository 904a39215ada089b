"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
compare          Run one workload under several allocator specs side by side.
run              Run a JSON experiment file (any mode) via ``repro.api``;
                 ``--sweep --jobs N`` fans the points over N processes.
sweep            Sweep one axis (strategies / gpus / batch) of a workload.
trace            Generate a workload's allocation trace to a JSONL file.
replay           Replay a JSONL trace against an allocator spec.
serve            Online serving simulation with live admission control.
microbench       Print the Figure 6 / Table 1 VMM latency tables.
models           List the model registry.
list-allocators  List the allocator and KV-cache registries with tunable
                 parameters.
list-components  List every registered component kind with tunable
                 parameters (``--kind`` narrows it; the command's help
                 names the kinds).

Anywhere a component is named, the full :class:`repro.api.ComponentSpec`
mini-DSL works — ``gmlake?chunk_mb=512&stitching=off`` configures GMLake,
``memory-aware?margin=1.5`` a scheduler, ``closed-loop?clients=8`` an
arrival process, ``nvlink?gb_per_s=300`` an interconnect,
``swap?interconnect=pcie?gb_per_s=12`` a preemption policy —
without any Python-side factory code.

Examples
--------
python -m repro compare --model opt-13b --batch 4 --gpus 4 --strategies LR \\
    --allocators "caching,gmlake?chunk_mb=512&stitching=off"
python -m repro run --spec experiment.json
python -m repro run --spec sweep.json --sweep --jobs 4
python -m repro sweep --axis gpus --model opt-13b --values 1,2,4,8,16
python -m repro trace --model gpt-2 --batch 8 --out /tmp/gpt2.jsonl
python -m repro replay --in /tmp/gpt2.jsonl --allocator "gmlake?spool=64"
python -m repro serve --model opt-13b --arrival poisson --rate 2.0 \\
    --allocator gmlake
python -m repro serve --model opt-1.3b --allocator caching --capacity 4GB \\
    --kv-cache "paged?block_tokens=16"
python -m repro serve --model opt-1.3b --allocator gmlake --capacity 6GB \\
    --arrivals "closed-loop?clients=8&think_s=0.5" --preemption swap
python -m repro serve --model opt-1.3b --allocator caching --capacity 4GB \\
    --trace /tmp/trace.json --gauges --streaming
python -m repro serve --model opt-1.3b --allocator gmlake --capacity 6GB \\
    --disagg --prefill-replicas 2 --decode-replicas 2 \\
    --interconnect "nvlink?gb_per_s=300"
python -m repro list-components --kind preemption
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from typing import Any, Dict, List, Optional

from repro.analysis import along, comparison, format_table, grid
from repro.analysis.observability import format_gauges
from repro.analysis.serving import format_serving_summary, format_tenant_summary
from repro.api import (
    AllocatorSpec,
    DisaggSpec,
    ExperimentSpec,
    ServingSpec,
    SpecError,
    WorkloadSpec,
    component_kinds,
    component_names,
    expand_spec_points,
    iter_components,
    kind_label,
    run_result_row,
    run_sweep,
    sweep_rows,
)
from repro.api import run as run_experiment
from repro.errors import AllocatorError
from repro.gpu.device import GpuDevice
from repro.obs import sink_spec_for_path
import repro.serve  # noqa: F401  (registers the serving component kinds)
from repro.sim.engine import run_trace
from repro.units import A100_80GB, GB, MB, parse_size
from repro.workloads import MODELS
from repro.workloads.traceio import load_trace, save_trace


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", help="model registry name (see `models`)")
    parser.add_argument("--batch", dest="batch_size", metavar="BATCH",
                        type=int, help="per-GPU micro-batch size")
    parser.add_argument("--gpus", dest="n_gpus", metavar="GPUS", type=int,
                        help="data-parallel world size")
    parser.add_argument("--strategies",
                        help="strategy label: N, R, LR, RO, LRO, ...")
    parser.add_argument("--platform", help="deepspeed | fsdp | colossalai")
    parser.add_argument("--iterations", type=int)
    parser.add_argument("--seed", type=int)


def _pick(cls, values: Dict[str, Any]):
    """``cls`` built from the ``values`` named after its fields.

    A flag's ``dest`` is the spec field it sets, and a flag left unset
    is absent from the parsed arguments, so the spec holds every
    default and every rule.
    """
    names = {field.name for field in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in values.items() if k in names})


def _experiment(values: Dict[str, Any], **blocks: Any) -> ExperimentSpec:
    """The experiment around ``blocks`` (mode, workload or serving)
    that the allocator-list and ``--capacity`` flags in ``values`` set."""
    if "allocators" in values:
        # A comma list; the spec parses (and so validates) each item.
        blocks["allocators"] = [item for item in values["allocators"].split(",")
                                if item.strip()]
    return _pick(ExperimentSpec, {**values, **blocks})


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _run_spec_file(path: str) -> int:
    """Run a JSON ``ExperimentSpec`` file and print the uniform table."""
    spec = ExperimentSpec.load(path)
    results = run_experiment(spec)
    rows = [run_result_row(result) for result in results]
    print(format_table(rows, title=f"experiment: mode={spec.mode}"))
    for result in results:
        extras = ", ".join(f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
                           for k, v in result.extras().items())
        print(f"  {result.allocator_name}: {extras}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    values = vars(args)
    spec = _experiment(values, mode="replay",
                       workload=_pick(WorkloadSpec, values))
    rows = [run_result_row(result) for result in run_experiment(spec)]
    print(format_table(rows, title=f"workload: {spec.workload.build().label}"))
    return 0


def _run_sweep_file(path: str, jobs: Optional[int]) -> int:
    """Run a sweep file (a JSON list of experiments, or one experiment
    expanded into per-allocator points) across ``jobs`` processes."""
    import json as _json

    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        data = _json.loads(text)
    except _json.JSONDecodeError as exc:
        # Same clean SpecError path the non-sweep `run` takes.
        raise SpecError(f"invalid JSON in sweep spec: {exc}") from exc
    if jobs is not None and jobs < 1:
        if jobs == 0:
            jobs = None  # the benches' REPRO_SWEEP_JOBS=0 'auto' idiom
        else:
            raise SpecError(f"--jobs must be >= 1 (or 0 for auto), got {jobs}")
    if isinstance(data, list):
        specs = []
        for i, point in enumerate(data):
            if not isinstance(point, dict):
                raise SpecError(
                    f"sweep point #{i} must be a JSON object, "
                    f"got {type(point).__name__}")
            specs.append(ExperimentSpec.from_dict(point))
    elif isinstance(data, dict):
        specs = expand_spec_points(ExperimentSpec.from_dict(data))
    else:
        raise SpecError(
            "sweep spec must be a JSON object or list, "
            f"got {type(data).__name__}")
    results = run_sweep(specs, jobs=jobs)
    effective = jobs if jobs is not None else "auto"
    print(format_table(
        sweep_rows(specs, results),
        title=f"sweep: {len(specs)} points (jobs={effective})"))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.sweep:
        return _run_sweep_file(args.spec, args.jobs)
    if args.jobs is not None:
        print("run: --jobs requires --sweep (a single experiment "
              "runs in-process)", file=sys.stderr)
        return 2
    return _run_spec_file(args.spec)


#: ``sweep --axis`` -> (workload field, default values, value parser).
_SWEEP_AXES = {
    "strategies": ("strategies", "N,R,LR,RO,LRO", str),
    "gpus": ("n_gpus", "1,2,4,8,16", int),
    "batch": ("batch_size", "4,8,16,32", int),
}


def cmd_sweep(args: argparse.Namespace) -> int:
    field, default, parse = _SWEEP_AXES[args.axis]
    try:
        values = [parse(v) for v in (args.values or default).split(",")]
    except ValueError as exc:
        raise SpecError(f"--values for --axis {args.axis}: {exc}") from exc
    # Every point is the flags' workload with only the axis field
    # replaced, so --platform / --seed reach every run; grid builds
    # (and so validates) every point before any runs.
    base = ExperimentSpec(workload=_pick(WorkloadSpec, vars(args)))
    cells = grid(base, along(field, values))
    table = []
    for results in cells.values():
        row = comparison(results)
        table.append({
            args.axis: row.baseline.meta[field],
            "UR caching": round(row.baseline.utilization_ratio, 3),
            "UR gmlake": round(row.gmlake.utilization_ratio, 3),
            "RM caching (GB)": round(row.baseline.peak_reserved_gb, 2),
            "RM gmlake (GB)": round(row.gmlake.peak_reserved_gb, 2),
            "caching OOM": row.baseline.oom,
            "gmlake OOM": row.gmlake.oom,
        })
    print(format_table(table, title=f"sweep {args.axis}: {base.workload.model}"))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    trace = _pick(WorkloadSpec, vars(args)).build().build_trace()
    trace.validate()
    save_trace(trace, args.out)
    stats = trace.stats()
    print(f"wrote {len(trace)} events to {args.out} ({stats})")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    trace = load_trace(args.infile)
    device = GpuDevice(capacity=args.capacity)
    allocator = AllocatorSpec.parse(args.allocator).build(device)
    result = run_trace(allocator, trace)
    print(result.summary())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    try:
        return _cmd_serve(args)
    except AllocatorError as exc:
        # Model weights that alone exceed --capacity are a user error,
        # not a crash.
        print(f"serve: {exc}", file=sys.stderr)
        return 2


def _serve_spec_from(args: argparse.Namespace) -> ExperimentSpec:
    """The experiment the ``serve`` flags describe.

    Flags only *name* things; :class:`repro.api.ServingSpec` is the one
    validator, so a misuse fails here — before any simulation runs —
    with the same message ``repro run --spec`` would give.  What is
    left here translates a value rather than copying it.
    """
    values = dict(vars(args))
    if values.get("trace"):
        values["trace"] = sink_spec_for_path(values["trace"]).spec_string()
    if not values.pop("gauges", False):
        del values["gauge_every_s"]  # the stride means nothing without --gauges
    if values.pop("disagg", False):
        values["disagg"] = _pick(DisaggSpec, values)
    spec = _experiment(values, mode="serve",
                       serving=_pick(ServingSpec, values))
    if spec.serving.trace and len(spec.allocators) > 1:
        raise SpecError(
            "--trace records one run; pass a single allocator spec (or "
            "use an ExperimentSpec, which writes one trace file per "
            "allocator)")
    return spec


def _cmd_serve(args: argparse.Namespace) -> int:
    spec = _serve_spec_from(args)
    serving, slo = spec.serving, spec.serving.slo()
    runs = {}
    gauge_points = []
    phase_rows = []
    tenant_tables = []
    results = run_experiment(spec)
    for result in results:
        raw, label = result.raw, result.allocator_name
        report = raw.report(slo, streaming=serving.streaming)
        runs[label] = (raw, report)
        gauge_points.extend(raw.gauge_points)
        if any(r.tenant for r in raw.requests):
            tenant_tables.append(format_tenant_summary(
                raw.requests, raw.makespan_s,
                title=f"per-tenant serving summary ({label})", slo=slo))
        if serving.disagg is not None:
            # Per-phase TTFT attribution: where first-token latency was
            # actually spent, plus the migration bill between fleets.
            phase_rows.append({
                "allocator": label,
                "prefill wait (s)": round(report.prefill_wait_s, 4),
                "decode wait (s)": round(report.decode_wait_s, 4),
                "migrations": raw.migrations,
                "migrated (MB)": round(raw.migrated_bytes / MB, 1),
            })

    if serving.disagg is not None:
        topology = (f"{serving.disagg.prefill_replicas}P+"
                    f"{serving.disagg.decode_replicas}D "
                    f"over {serving.disagg.interconnect}")
    else:
        topology = f"{serving.replicas} GPU(s)"
    shape = (serving.arrivals
             or f"{serving.arrival} rate={serving.rate_per_s:g}/s")
    n_requests = len(results[0].raw.requests)  # a replay log may be short
    title = (f"serve {serving.model}: {n_requests} req, {shape}, "
             f"{topology}, scheduler={serving.scheduler}, "
             f"kv={serving.kv_cache}, preemption={serving.preemption}")
    for name, value, off in (("tiers", serving.memory_tiers, ""),
                             ("autoscaler", serving.autoscaler, "none"),
                             ("faults", serving.faults, "none"),
                             ("retry", serving.retry, "none")):
        if value != off:
            title += f", {name}={value}"
    print(format_serving_summary(runs, title=title, slo=slo))
    for table in tenant_tables:
        print()
        print(table)
    if phase_rows:
        print()
        print(format_table(phase_rows,
                           title="per-phase TTFT attribution "
                                 "(mean queue wait by fleet)"))
    if gauge_points:
        print()
        print(format_gauges(
            gauge_points,
            title=f"gauges (every {serving.gauge_every_s:g}s)"))
    if serving.trace:
        print(f"\nwrote trace events to {args.trace}")
    return 0


def _catalogue_rows(kind: str):
    """(registry rows, parameter rows) of one component kind, by name."""
    infos = sorted(iter_components(kind), key=lambda i: i.name)
    rows = [
        {
            "name": info.name,
            "aliases": ",".join(info.aliases) or "-",
            "class": info.cls.__name__,
            "paper": info.paper_section or "-",
            "description": info.description,
        }
        for info in infos
    ]
    params = [
        {
            "name": info.name,
            "parameter": param.name,
            "type": param.type_name,
            "default": param.default_str(),
            "spec keys": ",".join(k for k in param.keys if k != param.name) or "-",
            "description": param.doc or "-",
        }
        for info in infos
        for param in info.params
    ]
    return rows, params


def cmd_list_components(args: argparse.Namespace) -> int:
    """One catalogue for every registered component kind."""
    # Importing repro.serve (above) registered the serving-side kinds;
    # the allocator kind registers with repro.api.
    kinds = component_kinds()
    if args.kind:
        for requested in args.kind:
            if requested not in kinds:
                # Print the kind catalogue with the error so the fix is
                # one copy-paste away.
                catalogue = "\n".join(
                    f"  {kind:<12} {kind_label(kind)}"
                    for kind in sorted(kinds))
                print(f"unknown component kind {requested!r}; known "
                      f"kinds:\n{catalogue}", file=sys.stderr)
                return 2
        kinds = list(args.kind)
    for kind in kinds:
        rows, params = _catalogue_rows(kind)
        print(format_table(
            rows, title=f"component kind {kind!r} — {kind_label(kind)} registry"))
        if params:
            print(format_table(
                params,
                title=f'{kind} parameters '
                      f'(spec syntax: "name?key=value&key=value")'))
        print()
    return 0


def cmd_microbench(args: argparse.Namespace) -> int:
    del args
    latency = GpuDevice().latency
    rows = []
    for i in range(10):
        chunk = 2 * MB * (1 << i)
        row = {"chunk": f"{chunk // MB}MB"}
        for block in (512 * MB, 1 * GB, 2 * GB):
            row[f"{block // MB}MB"] = f"{latency.vmm_alloc_total(block, chunk) / 1e3:.2f}ms"
        rows.append(row)
    print(format_table(rows, title="Figure 6 — VMM allocation latency"))
    breakdown = []
    for chunk in (2 * MB, 128 * MB, 1024 * MB):
        row = {"chunk": f"{chunk // MB}MB"}
        row.update({k: round(v, 3)
                    for k, v in latency.vmm_breakdown(2 * GB, chunk).items()})
        breakdown.append(row)
    print()
    print(format_table(breakdown, title="Table 1 — 2 GB VMM breakdown"))
    return 0


def cmd_models(args: argparse.Namespace) -> int:
    del args
    rows = [
        {
            "name": spec.name,
            "layers": spec.n_layers,
            "hidden": spec.hidden,
            "params (B)": round(spec.n_params / 1e9, 1),
            "weights (GB)": round(spec.weight_bytes / GB, 1),
        }
        for spec in MODELS.values()
    ]
    print(format_table(rows, title="model registry"))
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="GMLake reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    # The spec-backed commands: an unset flag is absent from the parsed
    # arguments, so each spec's own default applies.
    spec_parser = functools.partial(sub.add_parser,
                                    argument_default=argparse.SUPPRESS)

    p = spec_parser("compare", help="run one workload under allocators")
    _add_workload_args(p)
    p.add_argument("--allocators",
                   help="comma list of allocator specs, e.g. "
                        "'caching,gmlake?chunk_mb=512&stitching=off' "
                        f"(names: {component_names('allocator')})")
    p.add_argument("--capacity", type=parse_size,
                   help="device memory, e.g. 80GB")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("run", help="run a JSON experiment file")
    p.add_argument("--spec", required=True,
                   help="path to an ExperimentSpec JSON file "
                        "(see repro.api.ExperimentSpec); with --sweep, "
                        "may also be a JSON list of experiments")
    p.add_argument("--sweep", action="store_true",
                   help="treat the file as a sweep: run one point per "
                        "experiment (or per allocator) in parallel")
    p.add_argument("--jobs", type=int, default=None,
                   help="sweep worker processes (default: cpu count)")
    p.set_defaults(func=cmd_run)

    p = spec_parser("sweep", help="sweep one workload axis")
    _add_workload_args(p)
    p.add_argument("--axis", choices=tuple(_SWEEP_AXES), required=True)
    p.add_argument("--values", default="",
                   help="comma list of axis values (defaults per axis)")
    p.set_defaults(func=cmd_sweep)

    p = spec_parser("trace", help="write a workload trace to JSONL")
    _add_workload_args(p)
    p.add_argument("--out", required=True, help="output .jsonl path")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("replay", help="replay a JSONL trace")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--allocator", default="gmlake",
                   help=f"allocator spec (names: {component_names('allocator')})")
    p.add_argument("--capacity", type=parse_size, default=A100_80GB)
    p.set_defaults(func=cmd_replay)

    p = spec_parser(
        "serve", help="online serving simulation",
        epilog="The flags only fill in a repro.api.ServingSpec (and its "
               "DisaggSpec block); that spec is the source of truth for "
               "which values and combinations are valid, and `repro run "
               "--spec` runs the same experiment from its JSON form.")
    p.add_argument("--model", help="model registry name (see `models`)")
    p.add_argument("--arrival", choices=("poisson", "mmpp"),
                   help="arrival process")
    p.add_argument("--rate", dest="rate_per_s", metavar="RATE", type=float,
                   help="mean arrival rate, requests/s (calm rate for mmpp)")
    p.add_argument("--burst-rate", dest="burst_rate_per_s",
                   metavar="BURST_RATE", type=float,
                   help="mmpp burst rate, requests/s (default 4x --rate)")
    p.add_argument("--dwell", dest="mean_dwell_s", metavar="DWELL",
                   type=float, help="mmpp mean state dwell time, seconds")
    p.add_argument("--requests", dest="n_requests", metavar="REQUESTS",
                   type=int, help="number of requests to serve")
    p.add_argument("--allocator", dest="allocators", metavar="ALLOCATOR",
                   default="gmlake",
                   help="comma list of allocator specs "
                        f"(names: {component_names('allocator')})")
    p.add_argument("--scheduler",
                   help="admission scheduler spec, e.g. 'fcfs', "
                        "'memory-aware?margin=1.5' "
                        f"(names: {component_names('scheduler')})")
    p.add_argument("--arrivals",
                   help="arrival process spec overriding --arrival/--rate, "
                        "e.g. 'poisson?rate=4', 'closed-loop?clients=8', "
                        "'replay?path=log.txt'")
    p.add_argument("--kv-cache",
                   help="KV-cache memory model spec, e.g. 'chunked', "
                        "'paged?block_tokens=16' "
                        f"(names: {component_names('kv-cache')})")
    p.add_argument("--prefix-sharing", action="store_true",
                   help="share common prompt prefixes across requests "
                        "copy-on-write (switches --kv-cache to "
                        "'paged-shared'; needs a paged model)")
    p.add_argument("--preemption",
                   help="preemption policy spec: 'recompute' (free + "
                        "re-prefill) or 'swap' (host offload priced by an "
                        "interconnect component, e.g. "
                        "'swap?interconnect=pcie?gb_per_s=12')")
    p.add_argument("--memory-tiers",
                   help="slow-memory hierarchy below HBM as a comma list "
                        "of memory-tier specs, e.g. 'dram?gb=64' or "
                        "'dram?gb=64,cxl?gb=256&gb_per_s=40,nvme' — cold "
                        "KV demotes down the hierarchy instead of being "
                        "recomputed "
                        f"(names: {component_names('memory-tier')})")
    p.add_argument("--autoscaler",
                   help="replica autoscaler spec (multi-GPU or disagg): "
                        "'none' or 'queue-depth?high=4000&low=500' "
                        "(under --disagg each fleet scales independently)")
    p.add_argument("--gpus", dest="replicas", metavar="GPUS", type=int,
                   help="number of serving replicas")
    p.add_argument("--disagg", action="store_true",
                   help="disaggregate prefill and decode onto separate "
                        "fleets with KV migration over --interconnect")
    p.add_argument("--prefill-replicas", type=int,
                   help="prefill fleet size (with --disagg)")
    p.add_argument("--decode-replicas", type=int,
                   help="decode fleet size (with --disagg)")
    p.add_argument("--faults",
                   help="replica fault model spec, e.g. "
                        "'replica-crash?mtbf_s=120&mttr_s=10', "
                        "'straggler?slowdown=4&prob=0.1', "
                        "'link-degrade?factor=4'")
    p.add_argument("--retry",
                   help="retry policy spec, e.g. 'budget?max=3&"
                        "backoff_s=0.25' or 'hedge?after_s=2' "
                        "(hedging needs --gpus >= 2)")
    p.add_argument("--interconnect",
                   help="interconnect spec pricing KV migration, e.g. "
                        "'pcie?gb_per_s=24' or 'nvlink?gb_per_s=300"
                        "&latency_us=1.5' "
                        f"(names: {component_names('interconnect')})")
    p.add_argument("--capacity", type=parse_size,
                   help="device memory per replica, e.g. 80GB")
    p.add_argument("--max-batch", type=int,
                   help="admission cap on running requests")
    p.add_argument("--mean-prompt", type=int)
    p.add_argument("--mean-output", type=int)
    p.add_argument("--timeout", dest="queue_timeout_s", metavar="TIMEOUT",
                   type=float,
                   help="queueing timeout before rejection, seconds")
    p.add_argument("--slo-ttft", dest="slo_ttft_s", metavar="SLO_TTFT",
                   type=float, help="TTFT SLO, seconds")
    p.add_argument("--slo-tpot", dest="slo_tpot_s", metavar="SLO_TPOT",
                   type=float, help="time-per-output-token SLO, seconds")
    p.add_argument("--seed", type=int)
    p.add_argument("--trace",
                   help="write a request-lifecycle trace here; .jsonl "
                        "writes compact JSONL, anything else Chrome "
                        "trace-event JSON (open in Perfetto)")
    p.add_argument("--gauges", action="store_true",
                   help="sample time-series gauges (queue depth, memory, "
                        "KV utilization) and print them as a table")
    p.add_argument("--gauge-every", dest="gauge_every_s",
                   metavar="GAUGE_EVERY", type=float, default=1.0,
                   help="gauge sampling stride, simulated seconds")
    p.add_argument("--streaming", action="store_true",
                   help="compute report percentiles from constant-memory "
                        "t-digest sketches instead of sorted sample lists")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("microbench", help="VMM latency tables")
    p.set_defaults(func=cmd_microbench)

    p = sub.add_parser("models", help="list the model registry")
    p.set_defaults(func=cmd_models)

    p = sub.add_parser("list-allocators",
                       help="list the allocator registry")
    p.set_defaults(func=cmd_list_components, kind=["allocator", "kv-cache"])

    p = sub.add_parser("list-components",
                       help="list every registered component kind "
                            f"({', '.join(component_kinds())})")
    p.add_argument("--kind", action="append", default=None,
                   help="only this kind (e.g. scheduler, preemption); "
                        "repeatable")
    p.set_defaults(func=cmd_list_components)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        # A malformed allocator/experiment spec is a user error.
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
