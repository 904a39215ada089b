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
list-allocators  List the allocator registry with tunable parameters.
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
import sys
from typing import List, Optional

from repro.analysis import format_table
from repro.analysis.experiments import (
    batch_sweep,
    scaleout_sweep,
    strategy_sweep,
)
from repro.analysis.observability import format_gauges
from repro.analysis.serving import format_serving_summary, format_tenant_summary
from repro.api import (
    AllocatorSpec,
    DisaggSpec,
    ExperimentSpec,
    ServingSpec,
    SpecError,
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
from repro.sim.engine import run_trace, run_workload
from repro.units import GB, MB, parse_size
from repro.workloads import MODELS, TrainingWorkload
from repro.workloads.traceio import load_trace, save_trace


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="opt-13b",
                        help="model registry name (see `models`)")
    parser.add_argument("--batch", type=int, default=4,
                        help="per-GPU micro-batch size")
    parser.add_argument("--gpus", type=int, default=4,
                        help="data-parallel world size")
    parser.add_argument("--strategies", default="LR",
                        help="strategy label: N, R, LR, RO, LRO, ...")
    parser.add_argument("--platform", default="deepspeed",
                        help="deepspeed | fsdp | colossalai")
    parser.add_argument("--iterations", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)


def _workload_from(args: argparse.Namespace) -> TrainingWorkload:
    return TrainingWorkload(
        args.model, batch_size=args.batch, n_gpus=args.gpus,
        strategies=args.strategies, platform=args.platform,
        iterations=args.iterations, seed=args.seed,
    )


def _parse_spec_list(text: str) -> List[AllocatorSpec]:
    """Parse a comma-separated list of allocator spec strings."""
    specs = [AllocatorSpec.parse(item)
             for item in text.split(",") if item.strip()]
    if not specs:
        raise SpecError(f"no allocator specs in {text!r}")
    return specs


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
    if args.spec:
        return _run_spec_file(args.spec)
    workload = _workload_from(args)
    rows = []
    for spec in _parse_spec_list(args.allocators):
        result = run_workload(workload, spec, capacity=args.capacity)
        row = run_result_row(result)
        row["allocator"] = spec.label
        rows.append(row)
    print(format_table(rows, title=f"workload: {workload.label}"))
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


def cmd_sweep(args: argparse.Namespace) -> int:
    values = None
    if args.values and args.axis != "strategies":
        values = [int(v) for v in args.values.split(",")]
    if args.axis == "strategies":
        combos = args.values.split(",") if args.values else (
            "N", "R", "LR", "RO", "LRO")
        rows = strategy_sweep(args.model, batch_size=args.batch,
                              combos=combos, n_gpus=args.gpus,
                              iterations=args.iterations)
        key = "strategies"
    elif args.axis == "gpus":
        rows = scaleout_sweep(args.model, batch_size=args.batch,
                              gpu_counts=values or (1, 2, 4, 8, 16),
                              strategies=args.strategies,
                              iterations=args.iterations)
        key = "n_gpus"
    elif args.axis == "batch":
        rows = batch_sweep(args.model, batch_sizes=values or (4, 8, 16, 32),
                           n_gpus=args.gpus, strategies=args.strategies,
                           iterations=args.iterations)
        key = "batch_size"
    else:
        print(f"unknown sweep axis {args.axis!r}", file=sys.stderr)
        return 2
    table = []
    for row in rows:
        table.append({
            args.axis: row.baseline.meta[key],
            "UR caching": round(row.baseline.utilization_ratio, 3),
            "UR gmlake": round(row.gmlake.utilization_ratio, 3),
            "RM caching (GB)": round(row.baseline.peak_reserved_gb, 2),
            "RM gmlake (GB)": round(row.gmlake.peak_reserved_gb, 2),
            "caching OOM": row.baseline.oom,
            "gmlake OOM": row.gmlake.oom,
        })
    print(format_table(table, title=f"sweep {args.axis}: {args.model}"))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    workload = _workload_from(args)
    trace = workload.build_trace()
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
    except (KeyError, ValueError, AllocatorError) as exc:
        # Config errors (unknown allocator/model, bad rates, weights
        # that alone exceed --capacity) are user errors, not crashes.
        message = exc.args[0] if exc.args else exc
        print(f"serve: {message}", file=sys.stderr)
        return 2


def _serve_spec_from(args: argparse.Namespace) -> ExperimentSpec:
    """The experiment the ``serve`` flags describe.

    Flags only *name* things; :class:`repro.api.ServingSpec` is the one
    validator, so a misuse fails here — before any simulation runs —
    with the same message ``repro run --spec`` would give.
    """
    arrivals = args.arrivals
    if args.tenants:
        # --tenants is sugar over the multi-tenant arrivals component;
        # a full --arrivals spec already says everything.
        if arrivals:
            raise SpecError(
                "--tenants conflicts with --arrivals; encode the tenant "
                "count in the spec, e.g. 'multi-tenant?tenants=8&rate=4'")
        arrivals = (f"multi-tenant?tenants={args.tenants}"
                    f"&rate={args.rate:g}"
                    f"&shared_prefix_tokens={args.shared_prefix}")
    elif args.arrival == "replay" and not arrivals:
        if not args.arrival_log:
            raise SpecError("--arrival replay requires --arrival-log")
        arrivals = f"replay?path={args.arrival_log}"
    allocators = _parse_spec_list(args.allocator)
    if args.trace and len(allocators) > 1:
        raise SpecError(
            "--trace records one run; pass a single allocator spec (or "
            "use an ExperimentSpec, which writes one trace file per "
            "allocator)")
    disagg = None
    if args.disagg:
        disagg = DisaggSpec(prefill_replicas=args.prefill_replicas,
                            decode_replicas=args.decode_replicas,
                            interconnect=args.interconnect)
    serving = ServingSpec(
        model=args.model, arrival=args.arrival, rate_per_s=args.rate,
        burst_rate_per_s=args.burst_rate, mean_dwell_s=args.dwell,
        n_requests=args.requests, mean_prompt=args.mean_prompt,
        mean_output=args.mean_output, scheduler=args.scheduler,
        max_batch=args.max_batch, queue_timeout_s=args.timeout,
        replicas=args.gpus, slo_ttft_s=args.slo_ttft,
        slo_tpot_s=args.slo_tpot, kv_cache=args.kv_cache,
        arrivals=arrivals, preemption=args.preemption,
        autoscaler=args.autoscaler, faults=args.faults, retry=args.retry,
        trace=(sink_spec_for_path(args.trace).spec_string()
               if args.trace else ""),
        gauge_every_s=args.gauge_every if args.gauges else 0.0,
        streaming=args.streaming, disagg=disagg,
        prefix_sharing=args.prefix_sharing,
        memory_tiers=args.memory_tiers, seed=args.seed)
    return ExperimentSpec(mode="serve", allocators=allocators,
                          capacity=args.capacity, serving=serving)


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.spec:
        return _run_spec_file(args.spec)
    spec = _serve_spec_from(args)
    serving, slo = spec.serving, spec.serving.slo()
    fleet = serving.disagg is not None or serving.replicas > 1
    reports = {}
    gauge_points = []
    phase_rows = []
    tenant_tables = []
    results = run_experiment(spec)
    for result in results:
        raw, label = result.raw, result.allocator_name
        report = reports[label] = raw.report(slo,
                                             streaming=serving.streaming)
        # The replica leaf calls its series `gauges`, a fleet merges
        # its replicas' into `gauge_points`.
        gauge_points.extend(raw.gauge_points if fleet else raw.gauges)
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
    print(format_serving_summary(reports, title=title, slo=slo))
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


def _catalogue_rows(kind: str, owner: str = "name"):
    """(registry rows, parameter rows) of one component kind, by name;
    ``owner`` titles the parameter table's component column."""
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
            owner: info.name,
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


def cmd_list_allocators(args: argparse.Namespace) -> int:
    del args
    rows, params = _catalogue_rows("allocator", owner="allocator")
    print(format_table(rows, title="allocator registry"))
    if params:
        print()
        print(format_table(
            params,
            title='tunable parameters (spec syntax: "name?key=value&key=value")',
        ))

    kv_rows = [
        {
            "name": info.name,
            "parameter": param.name,
            "default": param.default_str(),
            "description": info.description,
        }
        for info in iter_components("kv-cache")
        for param in info.params
    ]
    print()
    print(format_table(
        kv_rows,
        title="serving KV-cache models (serve --kv-cache \"name?key=value\")",
    ))
    return 0


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

    p = sub.add_parser("compare", help="run one workload under allocators")
    _add_workload_args(p)
    p.add_argument("--allocators", default="caching,gmlake",
                   help="comma list of allocator specs, e.g. "
                        "'caching,gmlake?chunk_mb=512&stitching=off' "
                        f"(names: {component_names('allocator')})")
    p.add_argument("--capacity", type=parse_size, default=80 * GB,
                   help="device memory, e.g. 80GB")
    p.add_argument("--spec", default="",
                   help="run a JSON ExperimentSpec file instead "
                        "(all other flags ignored)")
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

    p = sub.add_parser("sweep", help="sweep one workload axis")
    _add_workload_args(p)
    p.add_argument("--axis", choices=("strategies", "gpus", "batch"),
                   required=True)
    p.add_argument("--values", default="",
                   help="comma list of axis values (defaults per axis)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("trace", help="write a workload trace to JSONL")
    _add_workload_args(p)
    p.add_argument("--out", required=True, help="output .jsonl path")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("replay", help="replay a JSONL trace")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--allocator", default="gmlake",
                   help=f"allocator spec (names: {component_names('allocator')})")
    p.add_argument("--capacity", type=parse_size, default=80 * GB)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "serve", help="online serving simulation",
        epilog="The flags only fill in a repro.api.ServingSpec (and its "
               "DisaggSpec block); that spec is the source of truth for "
               "which values and combinations are valid, and `repro run "
               "--spec` runs the same experiment from its JSON form.")
    p.add_argument("--model", default="opt-13b",
                   help="model registry name (see `models`)")
    p.add_argument("--arrival", choices=("poisson", "mmpp", "replay"),
                   default="poisson", help="arrival process")
    p.add_argument("--rate", type=float, default=2.0,
                   help="mean arrival rate, requests/s (calm rate for mmpp)")
    p.add_argument("--burst-rate", type=float, default=0.0,
                   help="mmpp burst rate, requests/s (default 4x --rate)")
    p.add_argument("--dwell", type=float, default=10.0,
                   help="mmpp mean state dwell time, seconds")
    p.add_argument("--arrival-log", default="",
                   help="timestamp file for --arrival replay")
    p.add_argument("--requests", type=int, default=100,
                   help="number of requests to serve")
    p.add_argument("--allocator", default="gmlake",
                   help="comma list of allocator specs "
                        f"(names: {component_names('allocator')})")
    p.add_argument("--scheduler", default="memory-aware",
                   help="admission scheduler spec, e.g. 'fcfs', "
                        "'memory-aware?margin=1.5' "
                        f"(names: {component_names('scheduler')})")
    p.add_argument("--arrivals", default="",
                   help="arrival process spec overriding --arrival/--rate, "
                        "e.g. 'poisson?rate=4', 'closed-loop?clients=8', "
                        "'replay?path=log.txt'")
    p.add_argument("--kv-cache", default="chunked",
                   help="KV-cache memory model spec, e.g. 'chunked', "
                        "'paged?block_tokens=16' "
                        f"(names: {component_names('kv-cache')})")
    p.add_argument("--prefix-sharing", action="store_true",
                   help="share common prompt prefixes across requests "
                        "copy-on-write (switches --kv-cache to "
                        "'paged-shared'; needs a paged model)")
    p.add_argument("--tenants", type=int, default=0,
                   help="multi-tenant workload: N tenants with "
                        "Zipf-skewed traffic, each declaring a shared "
                        "per-tenant prompt prefix (sugar for --arrivals "
                        "'multi-tenant?tenants=N&...')")
    p.add_argument("--shared-prefix", type=int, default=256,
                   help="shared prompt-prefix length per tenant, tokens "
                        "(with --tenants)")
    p.add_argument("--preemption", default="recompute",
                   help="preemption policy spec: 'recompute' (free + "
                        "re-prefill) or 'swap' (host offload priced by an "
                        "interconnect component, e.g. "
                        "'swap?interconnect=pcie?gb_per_s=12')")
    p.add_argument("--memory-tiers", default="",
                   help="slow-memory hierarchy below HBM as a comma list "
                        "of memory-tier specs, e.g. 'dram?gb=64' or "
                        "'dram?gb=64,cxl?gb=256&gb_per_s=40,nvme' — cold "
                        "KV demotes down the hierarchy instead of being "
                        "recomputed "
                        f"(names: {component_names('memory-tier')})")
    p.add_argument("--autoscaler", default="none",
                   help="replica autoscaler spec (multi-GPU or disagg): "
                        "'none' or 'queue-depth?high=4000&low=500' "
                        "(under --disagg each fleet scales independently)")
    p.add_argument("--gpus", type=int, default=1,
                   help="number of serving replicas")
    p.add_argument("--disagg", action="store_true",
                   help="disaggregate prefill and decode onto separate "
                        "fleets with KV migration over --interconnect")
    p.add_argument("--prefill-replicas", type=int, default=1,
                   help="prefill fleet size (with --disagg)")
    p.add_argument("--decode-replicas", type=int, default=1,
                   help="decode fleet size (with --disagg)")
    p.add_argument("--faults", default="none",
                   help="replica fault model spec, e.g. "
                        "'replica-crash?mtbf_s=120&mttr_s=10', "
                        "'straggler?slowdown=4&prob=0.1', "
                        "'link-degrade?factor=4'")
    p.add_argument("--retry", default="none",
                   help="retry policy spec, e.g. 'budget?max=3&"
                        "backoff_s=0.25' or 'hedge?after_s=2' "
                        "(hedging needs --gpus >= 2)")
    p.add_argument("--interconnect", default="pcie",
                   help="interconnect spec pricing KV migration, e.g. "
                        "'pcie?gb_per_s=24' or 'nvlink?gb_per_s=300"
                        "&latency_us=1.5' "
                        f"(names: {component_names('interconnect')})")
    p.add_argument("--capacity", type=parse_size, default=80 * GB,
                   help="device memory per replica, e.g. 80GB")
    p.add_argument("--max-batch", type=int, default=16,
                   help="admission cap on running requests")
    p.add_argument("--mean-prompt", type=int, default=512)
    p.add_argument("--mean-output", type=int, default=256)
    p.add_argument("--timeout", type=float, default=60.0,
                   help="queueing timeout before rejection, seconds")
    p.add_argument("--slo-ttft", type=float, default=2.0,
                   help="TTFT SLO, seconds")
    p.add_argument("--slo-tpot", type=float, default=0.05,
                   help="time-per-output-token SLO, seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default="",
                   help="write a request-lifecycle trace here; .jsonl "
                        "writes compact JSONL, anything else Chrome "
                        "trace-event JSON (open in Perfetto)")
    p.add_argument("--gauges", action="store_true",
                   help="sample time-series gauges (queue depth, memory, "
                        "KV utilization) and print them as a table")
    p.add_argument("--gauge-every", type=float, default=1.0,
                   help="gauge sampling stride, simulated seconds")
    p.add_argument("--streaming", action="store_true",
                   help="compute report percentiles from constant-memory "
                        "t-digest sketches instead of sorted sample lists")
    p.add_argument("--spec", default="",
                   help="run a JSON ExperimentSpec file instead "
                        "(all other flags ignored)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("microbench", help="VMM latency tables")
    p.set_defaults(func=cmd_microbench)

    p = sub.add_parser("models", help="list the model registry")
    p.set_defaults(func=cmd_models)

    p = sub.add_parser("list-allocators",
                       help="list the allocator registry")
    p.set_defaults(func=cmd_list_allocators)

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
