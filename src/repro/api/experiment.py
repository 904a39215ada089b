"""``ExperimentSpec`` + :func:`run` — one entry point for every mode.

An experiment is: a **mode** (``replay`` — offline trace replay on one
device; ``cluster`` — every training rank simulated; ``serve`` — the
online serving simulator, multi-replica when ``serving.replicas > 1``),
a **workload**, a device **capacity**, and one or more allocator
:class:`~repro.api.spec.ComponentSpec`.  :func:`run` dispatches all
modes through one code path and returns one
:class:`~repro.api.result.ExperimentResult` per allocator, so tables
and scripts consume every mode uniformly::

    from repro import api

    spec = api.ExperimentSpec(
        mode="replay",
        allocators=["caching", "gmlake?chunk_mb=512&stitching=off"],
        workload=api.WorkloadSpec(model="opt-13b", batch_size=4),
    )
    for result in api.run(spec):
        print(result.summary())

Specs serialize to JSON (``to_dict``/``from_dict``, ``save``/``load``)
so whole experiments ship as files: ``python -m repro run --spec
experiment.json``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.api.registry import SpecError
from repro.api.result import ExperimentResult
from repro.api.spec import AllocatorSpec, ComponentSpec, resolve
from repro.units import A100_80GB, parse_size

MODES = ("replay", "cluster", "serve")


def _canonicalize(spec: Any, fields: Dict[str, str],
                  optional: Sequence[str] = ()) -> None:
    """Validate and canonicalize ``spec``'s component fields
    (``field -> kind``) eagerly, so a bad string fails at
    spec-construction time, like a bad allocator spec — not mid-run.
    ``optional`` fields may be ``""`` (feature off)."""
    import repro.obs  # noqa: F401  (registers the trace kind)
    import repro.serve  # noqa: F401  (registers the serving kinds)

    for attr, kind in fields.items():
        text = getattr(spec, attr)
        if text or attr not in optional:
            object.__setattr__(
                spec, attr, ComponentSpec.parse(text, kind).spec_string())


@dataclass(frozen=True)
class WorkloadSpec:
    """A training workload, as :class:`repro.workloads.TrainingWorkload`
    names it (used by the ``replay`` and ``cluster`` modes).  Validated
    at spec-construction time by constructing that workload."""

    model: str = "opt-13b"
    batch_size: int = 4
    n_gpus: int = 4
    strategies: str = "LR"
    platform: str = "deepspeed"
    iterations: int = 8
    seed: int = 0

    def __post_init__(self):
        try:
            self.build()
        except (KeyError, ValueError) as exc:
            raise SpecError(exc.args[0]) from exc

    def build(self):
        from repro.workloads.training import TrainingWorkload

        return TrainingWorkload(
            self.model, batch_size=self.batch_size, n_gpus=self.n_gpus,
            strategies=self.strategies, platform=self.platform,
            iterations=self.iterations, seed=self.seed,
        )


@dataclass(frozen=True)
class DisaggSpec:
    """A disaggregated prefill/decode topology (``serve`` mode).

    Present on a :class:`ServingSpec` as its ``disagg`` block, this
    routes the run through
    :func:`repro.serve.disagg.run_serving_disagg`: ``prefill_replicas``
    prompt-pass replicas, ``decode_replicas`` token-streaming replicas,
    and an ``interconnect`` component spec pricing each request's KV
    migration between the fleets (``"pcie?gb_per_s=12"``,
    ``"nvlink?gb_per_s=300&latency_us=1.5"``).  Validated — and the
    interconnect canonicalized — at spec-construction time.
    """

    prefill_replicas: int = 1
    decode_replicas: int = 1
    interconnect: str = "pcie"

    def __post_init__(self):
        if self.prefill_replicas < 1:
            raise SpecError(
                f"prefill_replicas must be >= 1, got "
                f"{self.prefill_replicas}")
        if self.decode_replicas < 1:
            raise SpecError(
                f"decode_replicas must be >= 1, got "
                f"{self.decode_replicas}")
        _canonicalize(self, {"interconnect": "interconnect"})


@dataclass(frozen=True)
class ServingSpec:
    """An online serving scenario (used by the ``serve`` mode).

    Every pluggable policy is named in the same mini-DSL as
    allocators and validated against the component registry at
    spec-construction time:

    - ``kv_cache`` — the KV-cache memory model (``"chunked"``,
      ``"paged?block_tokens=16"``);
    - ``scheduler`` — the admission policy (``"fcfs"``,
      ``"memory-aware?margin=1.5"``);
    - ``arrivals`` — the arrival process as one spec string
      (``"poisson?rate=4"``, ``"mmpp?rate=1&burst=6"``,
      ``"replay?path=log.txt"``, ``"closed-loop?clients=8"``).  When
      empty, the legacy ``arrival`` + ``rate_per_s`` /
      ``burst_rate_per_s`` / ``mean_dwell_s`` fields are used instead;
    - ``preemption`` — what an OOM eviction does to the victim's KV
      (``"recompute"``, ``"swap?interconnect=pcie?gb_per_s=12"``);
    - ``autoscaler`` — the replica-count policy when ``replicas > 1``
      (``"none"``, ``"queue-depth?high=6000&low=800"``);
    - ``trace`` — an optional trace-export sink for the request
      lifecycle (``"chrome?path=trace.json"``, ``"jsonl?path=t.jsonl"``;
      empty disables tracing);
    - ``faults`` — the replica fault model (``"none"``,
      ``"replica-crash?mtbf_s=120&mttr_s=10"``, ``"straggler"``,
      ``"link-degrade?factor=4"``);
    - ``retry`` — what the front-end does about faults (``"none"``,
      ``"budget?max=3&backoff_s=0.25"``, ``"hedge?after_s=2"``);
    - ``disagg`` — an optional :class:`DisaggSpec` block (also
      accepted as its dict form in JSON) switching the run to a
      disaggregated prefill/decode topology; mutually exclusive with
      ``replicas > 1`` (the fleets are sized by the block's
      ``prefill_replicas`` / ``decode_replicas``, and ``autoscaler``
      then scales each fleet independently).

    Observability knobs (all default-off; a spec without them runs
    byte-identically to one predating them): ``trace`` as above,
    ``gauge_every_s > 0`` samples time-series gauges at that simulated
    stride, and ``streaming=True`` computes report percentiles from
    constant-memory t-digest sketches (see :mod:`repro.obs`).

    ``memory_tiers`` names an ordered slow-memory hierarchy below the
    device's HBM as a comma-separated list of ``memory-tier`` specs
    (``"dram?gb=64"``, ``"dram?gb=64,cxl?gb=256&gb_per_s=40"``).  Cold
    KV demotes down the hierarchy instead of being dropped and
    promotes back on first touch (see :mod:`repro.serve.memtier`);
    empty means no tiering and runs byte-identically to a spec
    predating the field.  Mutually exclusive with ``preemption:
    "swap"``, whose single host hop the hierarchy already covers.

    ``prefix_sharing=True`` switches the paged KV model to its
    radix-trie prefix-sharing variant (``kv_cache: "paged"`` becomes
    ``"paged-shared"``, block size preserved; a bare default
    ``"chunked"`` upgrades to ``"paged-shared"``) so requests
    declaring a shared prompt prefix — e.g. from the
    ``"multi-tenant?…"`` arrivals generator — reference the same
    ref-counted blocks copy-on-write.  Naming ``"paged-shared"``
    directly in ``kv_cache`` is equivalent.
    """

    model: str = "opt-13b"
    arrival: str = "poisson"          # legacy: poisson | mmpp
    rate_per_s: float = 2.0
    burst_rate_per_s: float = 0.0     # mmpp only; 0 -> 4x rate
    mean_dwell_s: float = 10.0        # mmpp only
    n_requests: int = 100
    mean_prompt: int = 512
    mean_output: int = 256
    scheduler: str = "memory-aware"
    max_batch: int = 16
    queue_timeout_s: float = 60.0
    replicas: int = 1
    slo_ttft_s: float = 2.0
    slo_tpot_s: float = 0.05
    kv_cache: str = "chunked"
    arrivals: str = ""                # full arrival spec; "" -> legacy fields
    preemption: str = "recompute"
    autoscaler: str = "none"
    faults: str = "none"              # replica fault model
    retry: str = "none"               # retry / hedging policy
    trace: str = ""                   # trace sink spec; "" -> no tracing
    gauge_every_s: float = 0.0        # gauge stride; 0 -> no gauges
    streaming: bool = False           # sketch-backed report percentiles
    disagg: Optional[DisaggSpec] = None  # prefill/decode disaggregation
    prefix_sharing: bool = False      # paged -> paged-shared (radix trie)
    memory_tiers: str = ""            # tier hierarchy; "" -> no tiering
    seed: int = 0

    def __post_init__(self):
        from repro.workloads.models import get_model

        try:
            get_model(self.model)
        except KeyError as exc:
            raise SpecError(exc.args[0]) from exc
        _canonicalize(
            self,
            {"kv_cache": "kv-cache", "scheduler": "scheduler",
             "preemption": "preemption", "autoscaler": "autoscaler",
             "faults": "faults", "retry": "retry", "trace": "trace",
             "arrivals": "arrivals"},
            optional=("trace", "arrivals"))
        if self.prefix_sharing:
            # Sugar over naming "paged-shared" directly: rewrite the
            # paged model (or the untouched chunked default) to the
            # prefix-sharing variant, preserving any block size.
            kv = ComponentSpec.parse(self.kv_cache, "kv-cache")
            if kv.name == "paged" or self.kv_cache == "chunked":
                shared = ComponentSpec("paged-shared", kv.params, "kv-cache")
                object.__setattr__(self, "kv_cache", shared.spec_string())
            elif kv.name != "paged-shared":
                raise SpecError(
                    f"prefix_sharing needs a paged KV cache, got "
                    f"{self.kv_cache!r} (use kv_cache: \"paged\" or "
                    f"\"paged-shared\")")
        from repro.serve.memtier import TierHierarchy, parse_memory_tiers

        tiers = parse_memory_tiers(self.memory_tiers)
        object.__setattr__(
            self, "memory_tiers", ",".join(t.spec_string() for t in tiers))
        if tiers:
            # A trial build: the policy's factory says whether it can
            # run over a hierarchy (swap cannot).
            resolve("preemption", self.preemption, TierHierarchy(tiers))
        if self.gauge_every_s < 0:
            raise SpecError(
                f"gauge_every_s must be >= 0, got {self.gauge_every_s}")
        if not self.arrivals:
            # The legacy arrival fields get the same parse-time
            # validation the spec-string path enjoys.
            if self.arrival not in ("poisson", "mmpp"):
                raise SpecError(
                    f"unknown arrival process {self.arrival!r} "
                    "(expected poisson or mmpp; use the 'arrivals' field "
                    "for replay/closed-loop spec strings)"
                )
            if self.rate_per_s <= 0:
                raise SpecError(
                    f"rate_per_s must be positive, got {self.rate_per_s}")
            if self.burst_rate_per_s < 0:
                raise SpecError(
                    f"burst_rate_per_s must be >= 0, got "
                    f"{self.burst_rate_per_s}")
            if self.mean_dwell_s <= 0:
                raise SpecError(
                    f"mean_dwell_s must be positive, got {self.mean_dwell_s}")
        if self.n_requests < 1:
            raise SpecError(
                f"n_requests must be >= 1, got {self.n_requests}")
        if self.mean_prompt < 1 or self.mean_output < 1:
            raise SpecError("mean_prompt and mean_output must be >= 1")
        if self.max_batch < 1:
            raise SpecError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_timeout_s <= 0:
            raise SpecError(
                f"queue_timeout_s must be positive, got "
                f"{self.queue_timeout_s}")
        if self.replicas < 1:
            raise SpecError(f"replicas must be >= 1, got {self.replicas}")
        if self.disagg is not None:
            if isinstance(self.disagg, dict):
                try:
                    object.__setattr__(self, "disagg",
                                       DisaggSpec(**self.disagg))
                except TypeError as exc:
                    raise SpecError(f"bad disagg spec: {exc}") from exc
            elif not isinstance(self.disagg, DisaggSpec):
                raise SpecError(
                    f"disagg must be a DisaggSpec (or its dict form), "
                    f"got {type(self.disagg).__name__}")
            if self.replicas > 1:
                raise SpecError(
                    "disagg and replicas > 1 are mutually exclusive; "
                    "size the fleets with the disagg block's "
                    "prefill_replicas / decode_replicas")
        elif self.autoscaler != "none" and self.replicas < 2:
            # With disagg, the autoscaler scales each fleet on its own
            # queue signal, so the replicas >= 2 floor does not apply.
            raise SpecError(
                f"autoscaler {self.autoscaler!r} needs replicas >= 2 "
                "(a single replica has nothing to scale)")

    def build_arrivals(self):
        """The configured arrival process (spec string or legacy fields)."""
        from repro.serve.arrivals import MMPPArrivals, PoissonArrivals

        if self.arrivals:
            return resolve("arrivals", self.arrivals)
        if self.arrival == "poisson":
            return PoissonArrivals(rate_per_s=self.rate_per_s)
        burst = self.burst_rate_per_s or 4.0 * self.rate_per_s
        return MMPPArrivals(rate_calm_per_s=self.rate_per_s,
                            rate_burst_per_s=burst,
                            mean_dwell_s=self.mean_dwell_s)

    def build_stream(self):
        """The request stream: ``n_requests`` arrivals, or as many as
        a ``replay`` log holds when that is fewer."""
        from repro.serve.arrivals import LengthSampler, ReplayArrivals

        arrivals = self.build_arrivals()
        n_requests = self.n_requests
        if isinstance(arrivals, ReplayArrivals):
            n_requests = min(n_requests, len(arrivals.times))
        lengths = LengthSampler(mean_prompt=self.mean_prompt,
                                mean_output=self.mean_output)
        return arrivals.generate(n_requests, lengths, seed=self.seed)

    def slo(self):
        from repro.serve.metrics import SloConfig

        return SloConfig(ttft_s=self.slo_ttft_s, tpot_s=self.slo_tpot_s)


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete, serializable experiment description."""

    mode: str = "replay"
    allocators: Sequence[Union[str, AllocatorSpec]] = ("caching", "gmlake")
    capacity: int = A100_80GB
    workload: Optional[WorkloadSpec] = None
    serving: Optional[ServingSpec] = None
    record_timeline: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise SpecError(
                f"unknown experiment mode {self.mode!r}; known: {MODES}"
            )
        specs = tuple(AllocatorSpec.parse(a) for a in self.allocators)
        if not specs:
            raise SpecError("experiment needs at least one allocator")
        object.__setattr__(self, "allocators", specs)
        capacity = self.capacity
        if isinstance(capacity, str):
            capacity = parse_size(capacity)
        if capacity <= 0:
            raise SpecError(f"capacity must be positive, got {capacity}")
        object.__setattr__(self, "capacity", int(capacity))
        if self.mode in ("replay", "cluster") and self.workload is None:
            object.__setattr__(self, "workload", WorkloadSpec())
        if self.mode == "serve" and self.serving is None:
            object.__setattr__(self, "serving", ServingSpec())

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict; round-trips via :meth:`from_dict`."""
        out: Dict[str, Any] = {
            "mode": self.mode,
            "allocators": [spec.to_dict() for spec in self.allocators],
            "capacity": self.capacity,
        }
        if self.record_timeline:
            out["record_timeline"] = True
        if self.workload is not None:
            out["workload"] = asdict(self.workload)
        if self.serving is not None:
            out["serving"] = asdict(self.serving)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict` (tolerates spec-string allocators)."""
        unknown = set(data) - {"mode", "allocators", "capacity",
                               "workload", "serving", "record_timeline"}
        if unknown:
            raise SpecError(f"unknown experiment spec keys {sorted(unknown)}")
        allocators = [
            AllocatorSpec.from_dict(a) if isinstance(a, dict)
            else AllocatorSpec.parse(a)
            for a in data.get("allocators", ("caching", "gmlake"))
        ]
        try:
            workload = (WorkloadSpec(**data["workload"])
                        if data.get("workload") else None)
            serving = (ServingSpec(**data["serving"])
                       if data.get("serving") else None)
        except TypeError as exc:
            raise SpecError(f"bad experiment spec: {exc}") from exc
        return cls(
            mode=data.get("mode", "replay"),
            allocators=allocators,
            capacity=data.get("capacity", A100_80GB),
            workload=workload,
            serving=serving,
            record_timeline=bool(data.get("record_timeline", False)),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON in experiment spec: {exc}") from exc
        if not isinstance(data, dict):
            raise SpecError(
                f"experiment spec must be a JSON object, got {type(data).__name__}"
            )
        return cls.from_dict(data)

    def save(self, path: str) -> None:
        """Write the spec as a JSON experiment file."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "ExperimentSpec":
        """Read a JSON experiment file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


# ----------------------------------------------------------------------
# The one entry point
# ----------------------------------------------------------------------
def run(
    spec: Union[ExperimentSpec, Dict[str, Any], str],
) -> List[ExperimentResult]:
    """Run one experiment, any mode, one result per allocator.

    ``spec`` may be an :class:`ExperimentSpec`, its dict form, or a
    path to a JSON experiment file.  Each allocator runs on a fresh
    simulated device, exactly as the mode's native runner would — a
    ``replay`` run of a workload is byte-for-byte identical to calling
    :func:`repro.sim.engine.run_workload` directly.
    """
    if isinstance(spec, str):
        spec = ExperimentSpec.load(spec)
    elif isinstance(spec, dict):
        spec = ExperimentSpec.from_dict(spec)
    runner = {"replay": _run_replay, "cluster": _run_cluster,
              "serve": _run_serve}[spec.mode]
    return [runner(spec, allocator) for allocator in spec.allocators]


def _run_replay(spec: ExperimentSpec, allocator: AllocatorSpec) -> ExperimentResult:
    from repro.sim.engine import run_workload

    result = run_workload(
        spec.workload.build(), allocator, capacity=spec.capacity,
        record_timeline=spec.record_timeline,
    )
    return ExperimentResult.from_engine(result, label=allocator.label)


def _run_cluster(spec: ExperimentSpec, allocator: AllocatorSpec) -> ExperimentResult:
    from repro.sim.cluster import run_cluster

    result = run_cluster(spec.workload.build(), allocator,
                         capacity=spec.capacity,
                         record_timeline=spec.record_timeline)
    return ExperimentResult.from_cluster(result, label=allocator.label)


def _labelled_trace_path(path: str, label: str) -> str:
    """``trace.json`` → ``trace.<label>.json`` for multi-allocator runs."""
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in label)
    stem, dot, ext = path.rpartition(".")
    return f"{stem}.{safe}.{ext}" if dot else f"{path}.{safe}"


def _run_serve(spec: ExperimentSpec, allocator: AllocatorSpec) -> ExperimentResult:
    from repro.obs.gauges import GaugeSampler
    from repro.obs.trace import TraceRecorder
    from repro.serve.cluster import run_serving_cluster
    from repro.serve.disagg import run_serving_disagg
    from repro.serve.simulator import ServingConfig, run_serving

    serving = spec.serving
    stream = serving.build_stream()
    recorder = TraceRecorder() if serving.trace else None
    # What every topology's runner takes; the branches below add only
    # what sizes the fleet.
    shared = dict(
        allocator=allocator, capacity=spec.capacity,
        scheduler=serving.scheduler,
        config=ServingConfig(max_batch=serving.max_batch,
                             queue_timeout_s=serving.queue_timeout_s,
                             record_timeline=spec.record_timeline),
        kv_cache=serving.kv_cache, preemption=serving.preemption,
        trace=recorder,
        gauges=(GaugeSampler(serving.gauge_every_s)
                if serving.gauge_every_s > 0 else None),
        faults=serving.faults, retry=serving.retry,
        memory_tiers=serving.memory_tiers,
    )
    if serving.disagg is not None:
        result = run_serving_disagg(
            stream, serving.model,
            prefill_replicas=serving.disagg.prefill_replicas,
            decode_replicas=serving.disagg.decode_replicas,
            interconnect=serving.disagg.interconnect,
            autoscaler=serving.autoscaler, **shared)
        adapt = ExperimentResult.from_serve_disagg
    elif serving.replicas > 1:
        result = run_serving_cluster(
            stream, serving.model, n_replicas=serving.replicas,
            autoscaler=serving.autoscaler, **shared)
        adapt = ExperimentResult.from_serve_cluster
    else:
        result = run_serving(stream, serving.model, **shared)
        adapt = ExperimentResult.from_serving
    outcome = adapt(result, slo=serving.slo(), label=allocator.label,
                    streaming=serving.streaming)
    if recorder is not None:
        sink = resolve("trace", serving.trace)
        if len(spec.allocators) > 1:
            # One trace file per allocator, or the sweep's runs would
            # silently overwrite each other.
            sink.path = _labelled_trace_path(sink.path, allocator.label)
        sink.write(recorder)
    return outcome
