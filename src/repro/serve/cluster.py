"""Multi-GPU serving front-end: one arrival stream over N replicas.

A load balancer dispatches every incoming request to one of N identical
single-GPU replicas at arrival time (no request migration), using a
least-outstanding-work estimator: each replica's backlog of assigned
tokens, drained at the replica's saturated decode rate between
arrivals.  Each replica then runs its own
:class:`~repro.serve.simulator.ServingSimulator` on its own simulated
device, and the results are aggregated the way
:mod:`repro.sim.cluster` aggregates training ranks: the fleet's
makespan is the slowest replica's, memory headlines are worst-replica,
and SLO metrics are computed over the merged request population.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.api.result import WorstMemberRunResult
from repro.api.spec import SpecLike, resolve
from repro.obs.gauges import GaugePoint, GaugeSampler
from repro.obs.trace import FRONTEND_REPLICA, TraceRecorder
from repro.serve.autoscale import Autoscaler
from repro.serve.faults import FaultModel, RetryPolicy
from repro.serve.kvcache import KVCacheMetrics, KVCacheModel
from repro.serve.memtier import MemoryTiersLike, TierHierarchy
from repro.serve.metrics import ServingReport, ServingReportAccumulator, SloConfig
from repro.serve.preemption import PreemptionPolicy
from repro.serve.request import ServeRequest
from repro.serve.scheduler import Scheduler
from repro.serve.simulator import ServingConfig, ServingResult, ServingSimulator
from repro.sim.engine import AllocatorFactory
from repro.units import A100_80GB
from repro.workloads.models import ModelSpec, get_model


class DownCalendar:
    """Materialized crash windows answering "is replica i down at t?".

    The fault model's window streams are pure functions of (seed,
    replica), so the front-end and each replica independently derive
    the *same* schedule — the dispatcher can route around a crash it
    has not "observed" yet without any causality violation, exactly as
    a health-checking load balancer would after one probe interval.

    Windows are materialized lazily per replica, but queries may go
    *backwards* in time (the fleet orchestrator interleaves replicas
    whose clocks drift apart), so materialized windows are kept and
    scanned from the tail.
    """

    def __init__(self, faults: FaultModel, n_replicas: int):
        self._streams = [faults.crash_windows(i) for i in range(n_replicas)]
        self._windows: List[List[Tuple[float, float]]] = [
            [] for _ in range(n_replicas)]

    def down_at(self, replica: int, t_s: float) -> bool:
        """True when ``replica`` is inside a crash window at ``t_s``."""
        stream = self._streams[replica]
        if stream is None:
            return False
        windows = self._windows[replica]
        while not windows or windows[-1][1] <= t_s:
            windows.append(next(stream))
        for start_s, end_s in reversed(windows):
            if end_s <= t_s:
                return False
            if start_s <= t_s:
                return True
        return False


def dispatch_requests(
    requests: Iterable[ServeRequest],
    n_replicas: int,
    drain_tokens_per_s: float = 3000.0,
    autoscaler: Optional[Autoscaler] = None,
    gauges: Optional[GaugeSampler] = None,
    trace: Optional[TraceRecorder] = None,
    fleet: Optional[str] = None,
    down: Optional[DownCalendar] = None,
) -> List[List[ServeRequest]]:
    """Split one arrival stream into per-replica streams.

    Least-outstanding-work: assign each arrival to the replica with the
    smallest estimated token backlog, where backlogs drain at
    ``drain_tokens_per_s`` between arrivals.  This is what a front-end
    can actually compute online — it never peeks at simulation results.

    An ``autoscaler`` (see :mod:`repro.serve.autoscale`) decides per
    arrival how many of the ``n_replicas`` are *active*; arrivals only
    land on active replicas.  ``None`` (or the registered ``"none"``
    policy) keeps every replica active from the first arrival — the
    front-end's original behaviour, bit for bit.

    ``gauges`` / ``trace`` record the active-replica change points the
    autoscaler produces (as :meth:`GaugeSampler.note_active_replicas`
    and front-end ``autoscale`` trace events); dispatch decisions are
    identical with or without them.

    ``fleet`` names the replica pool when a front-end runs several of
    them (disaggregated serving dispatches a ``"prefill"`` and a
    ``"decode"`` fleet independently): change points are then tagged
    with the fleet so per-phase size series stay separable.  ``None``
    (colocated serving) is byte-identical to the original behaviour.

    ``down`` makes dispatch health-aware: replicas inside a crash
    window at the arrival instant are excluded from the candidate set
    (falling back to every active replica when *all* are down, so no
    arrival is ever dropped at the front door).  ``None`` keeps the
    original dispatch, bit for bit.
    """
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    backlog = [0.0] * n_replicas
    last_t = 0.0
    active = (autoscaler.initial_replicas(n_replicas)
              if autoscaler is not None else n_replicas)
    noted = None  # last active count reported to the telemetry hooks
    shards: List[List[ServeRequest]] = [[] for _ in range(n_replicas)]
    for request in sorted(requests, key=lambda r: (r.arrival_s, r.req_id)):
        elapsed = max(0.0, request.arrival_s - last_t)
        last_t = request.arrival_s
        drained = elapsed * drain_tokens_per_s
        # Decay in place (no per-arrival list rebuild).  The clamp at
        # zero is applied per arrival on purpose: a lazily-drained heap
        # would need max(0, b - sum(drains)), which is not float-equal
        # to the iterated max(0, b - drain) sequence and would change
        # dispatch decisions at the margin.
        for i in range(n_replicas):
            drained_backlog = backlog[i] - drained
            backlog[i] = drained_backlog if drained_backlog > 0.0 else 0.0
        if autoscaler is not None:
            active = min(max(autoscaler.decide(backlog, active, n_replicas), 1),
                         n_replicas)
        if active != noted:
            if gauges is not None:
                gauges.note_active_replicas(request.arrival_s, active,
                                            fleet=fleet)
            if trace is not None:
                if fleet is None:
                    trace.record("autoscale", request.arrival_s,
                                 replica=FRONTEND_REPLICA, active=active)
                else:
                    trace.record("autoscale", request.arrival_s,
                                 replica=FRONTEND_REPLICA, active=active,
                                 fleet=fleet)
            noted = active
        if down is None:
            candidates: Iterable[int] = range(active)
        else:
            healthy = [i for i in range(active)
                       if not down.down_at(i, request.arrival_s)]
            candidates = healthy if healthy else range(active)
        target = min(candidates, key=lambda i: (backlog[i], i))
        backlog[target] += float(request.total_tokens)
        shards[target].append(request)
    return shards


class FleetResult(WorstMemberRunResult):
    """What every multi-replica serving aggregate reports, defined once.

    A fleet is a list of per-replica :class:`ServingResult` leaves
    (``replicas``) plus the request population the run is judged on
    (``requests``).  Subclasses supply those two —
    :class:`ServeClusterResult` as the merged replica populations,
    :class:`~repro.serve.disagg.DisaggServingResult` as the original
    requests with both phases folded back on — and everything derived
    lives here: the fleet's makespan is the slowest replica's, memory
    headlines are worst-replica (:class:`WorstMemberRunResult`), request
    tallies and SLO metrics cover ``requests``.
    """

    def _result_members(self) -> List[ServingResult]:
        return self.replicas

    @property
    def makespan_s(self) -> float:
        """The fleet finishes when its slowest replica does."""
        return max((r.makespan_s for r in self.replicas), default=0.0)

    @property
    def min_utilization(self) -> float:
        """The worst replica's memory utilization ratio."""
        return min(r.utilization for r in self.replicas)

    @property
    def max_peak_reserved_gb(self) -> float:
        """The worst replica's reserved peak (capacity planning view)."""
        return max(r.peak_reserved_gb for r in self.replicas)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.requests if r.finished)

    @property
    def rejected(self) -> int:
        return sum(1 for r in self.requests if r.rejected)

    @property
    def preemptions(self) -> int:
        return sum(r.preemptions for r in self.requests)

    @property
    def retries(self) -> int:
        """Crash-forced re-dispatches summed over the population."""
        return sum(r.retries for r in self.requests)

    @property
    def failed(self) -> int:
        """Requests rejected permanently by replica faults."""
        return sum(1 for r in self.requests if r.reject_reason == "failed")

    @property
    def throughput(self) -> float:
        """Fleet-wide completed requests per second of makespan."""
        return self.completed / max(self.makespan_s, 1e-9)

    @property
    def oom(self) -> bool:
        return False

    @property
    def kv_cache_name(self) -> str:
        """The fleet's (uniform) KV-cache model name."""
        return self.replicas[0].kv_cache_name if self.replicas else "chunked"

    @property
    def kv_metrics(self) -> Optional[KVCacheMetrics]:
        """Fleet-wide KV-cache metrics, merged across replicas.

        Counters, copy bytes and utilization samples sum; the peak
        fields sum *per-replica* peaks (the fleet's capacity-planning
        upper bound — replicas own disjoint memory, but their peaks
        need not coincide in time).  The merge is field-generic
        (:meth:`KVCacheMetrics.merge_from`), so metrics fields added
        later — per-tier demote/promote dicts, sharing ledgers — are
        merged by construction instead of silently dropped.
        """
        merged: Optional[KVCacheMetrics] = None
        for replica in self.replicas:
            metrics = replica.kv_metrics
            if metrics is None:
                continue
            if merged is None:
                merged = KVCacheMetrics(kv_cache=metrics.kv_cache,
                                        block_tokens=metrics.block_tokens)
            merged.merge_from(metrics)
        return merged

    @property
    def gauge_points(self) -> List[GaugePoint]:
        """Every replica's gauge samples, merged in time order."""
        return sorted((point for replica in self.replicas
                       for point in replica.gauges),
                      key=lambda p: (p.t_s, p.replica))

    def _extras_tail(self, out: Dict[str, object]) -> Dict[str, object]:
        """Close an ``extras()`` dict with the keys every fleet form
        shares: fault tallies and the merged KV-cache figures."""
        retries, failed = self.retries, self.failed
        if retries:
            out["retries"] = retries
        if failed:
            out["failed"] = failed
        merged = self.kv_metrics
        if merged is not None:
            out.update(merged.extras(per_replica=False))
        return out

    def _sketch_populations(self) -> List[List[ServeRequest]]:
        """The request lists a streaming report sketches one by one
        and merges: each replica's own population."""
        return [replica.requests for replica in self.replicas]

    def report(self, slo: Optional[SloConfig] = None,
               streaming: bool = False) -> ServingReport:
        """Fleet-wide SLO report over the request population.

        ``streaming=True`` folds each of :meth:`_sketch_populations`
        into a :class:`~repro.serve.metrics.ServingReportAccumulator`
        and merges the accumulators — constant memory, never touching
        the merged request list (percentiles come from merged t-digest
        sketches, within sketch tolerance of the exact path).
        """
        metrics = self.kv_metrics
        headline = dict(
            utilization=self.min_utilization,
            peak_reserved_gb=self.max_peak_reserved_gb,
            migrated_mb=((metrics.migrated_bytes / (1 << 20))
                         if metrics is not None else 0.0))
        if not streaming:
            return ServingReport.from_requests(
                self.requests, self.makespan_s, slo, **headline)
        merged: Optional[ServingReportAccumulator] = None
        for population in self._sketch_populations():
            acc = ServingReportAccumulator(slo)
            for request in population:
                acc.observe(request)
            merged = acc if merged is None else merged.merge(acc)
        if merged is None:
            merged = ServingReportAccumulator(slo)
        return merged.report(self.makespan_s, **headline)


@dataclass
class ServeClusterResult(FleetResult):
    """Aggregated outcome of one multi-replica serving run."""

    replicas: List[ServingResult] = field(default_factory=list)
    autoscaler_name: str = "none"
    #: Front-end autoscaling change points: (arrival_s, active count).
    active_replica_points: List[Tuple[float, int]] = field(
        default_factory=list)
    _merged: Optional[List[ServeRequest]] = field(default=None, init=False,
                                                  repr=False, compare=False)

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    @property
    def requests(self) -> List[ServeRequest]:
        """The merged request population, in arrival order.

        Each replica's population is already sorted by (arrival,
        req_id) — the dispatcher preserves arrival order within a
        shard — so an n-way ``heapq.merge`` replaces a full re-sort,
        and the merge is computed once per result.
        """
        if self._merged is None:
            self._merged = list(heapq.merge(
                *(replica.requests for replica in self.replicas),
                key=lambda r: (r.arrival_s, r.req_id)))
        return self._merged

    @property
    def preemption_name(self) -> str:
        """The fleet's (uniform) preemption policy name."""
        return self.replicas[0].preemption_name if self.replicas else "recompute"

    @property
    def active_replicas(self) -> int:
        """Replicas the front-end actually routed traffic to (an
        autoscaled fleet may leave some replicas idle)."""
        return sum(1 for r in self.replicas if r.requests)

    def extras(self) -> Dict[str, object]:
        """Fleet-specific metrics beyond the shared surface."""
        out: Dict[str, object] = {
            "n_replicas": self.n_replicas,
            "completed": self.completed,
            "rejected": self.rejected,
            "preemptions": self.preemptions,
            "makespan_s": self.makespan_s,
            "kv_cache": self.kv_cache_name,
            "preemption": self.preemption_name,
        }
        if self.autoscaler_name != "none":
            out["autoscaler"] = self.autoscaler_name
            out["active_replicas"] = self.active_replicas
        return self._extras_tail(out)

    def summary(self) -> str:
        """One-line fleet report."""
        report = self.report()
        return f"{self.n_replicas} replicas: {report.summary()}"


def _co_simulate(
    sims: List[ServingSimulator],
    calendar: Optional[DownCalendar],
    hedge_after_s: Optional[float],
    trace: Optional[TraceRecorder],
) -> None:
    """Advance a fleet of *started* simulators on interleaved clocks.

    Replicas interact under crash faults — a crashed replica's work
    re-enters the dispatcher and lands elsewhere — and under a hedging
    front-end, which duplicates stragglers onto healthy peers.  So
    this orchestrator single-steps whichever busy replica's clock is
    furthest behind, keeping every cross-replica hand-off causal: a
    request re-dispatched at ``ready_s`` is injected before any peer's
    clock passes ``ready_s``.

    Fleet failover: each simulator's ``_fault_sink`` routes crash
    victims (and a crashing replica's queued requests) to the healthy
    replica with the fewest outstanding requests at the hand-off
    instant, falling back to the full fleet when everything is down.

    Hedging (``hedge_after_s``): after each tick, requests still
    un-admitted past the hedge deadline are cloned onto the
    least-loaded healthy *other* replica; the first copy to finish wins
    and the loser is cancelled (its KV freed, the object withdrawn from
    its replica's population), so the merged population keeps exactly
    one record per request.  A loser that already timed out is likewise
    withdrawn; if both copies reject, the clone is dropped and the
    original's rejection stands.
    """
    n = len(sims)

    def pick(pool: List[int]) -> int:
        return min(pool, key=lambda j: (sims[j].outstanding, j))

    def healthy(t_s: float, exclude: Optional[int] = None) -> List[int]:
        return [j for j in range(n)
                if j != exclude
                and (calendar is None or not calendar.down_at(j, t_s))]

    def redispatch(request: ServeRequest, ready_s: float) -> None:
        # Crash victims and a crashing replica's queue route alike.
        pool = healthy(ready_s) or list(range(n))
        target = pick(pool)
        request.replica = target
        sims[target].inject(request, ready_s)

    for sim in sims:
        sim._fault_sink = redispatch

    hedged: Dict[int, Tuple[ServeRequest, ServeRequest]] = {}

    def consider_hedges(i: int) -> None:
        sim = sims[i]
        now = sim.session.elapsed_s
        for request in list(sim._queue):
            # Hedge each request at most once, only while it has never
            # been admitted anywhere (a clean clone carries no KV), and
            # leave crash-retried requests to the retry path.
            if (request.req_id in hedged or request.admitted_s is not None
                    or request.retries
                    or now - request.arrival_s < hedge_after_s):
                continue
            pool = healthy(now, exclude=i)
            if not pool:
                continue
            target = pick(pool)
            clone = copy.copy(request)
            clone.kv_name = None
            clone.kv_capacity_tokens = 0
            clone.kv_generation = 0
            clone.replica = target
            hedged[request.req_id] = (request, clone)
            if trace is not None:
                trace.request_event("hedge", clone, now, source=i,
                                    target=target)
            sims[target].inject(clone, now)

    def settle_hedges() -> None:
        for req_id, (original, clone) in list(hedged.items()):
            for winner, loser in ((original, clone), (clone, original)):
                if winner.finished:
                    if not loser.finished:
                        sims[loser.replica].cancel(loser)
                    del hedged[req_id]
                    break
            else:
                if original.rejected and clone.rejected:
                    # Both copies lost; keep the original's rejection
                    # as the request's one record.
                    sims[clone.replica].cancel(clone)
                    del hedged[req_id]

    while True:
        busy = [i for i in range(n) if sims[i].busy]
        if not busy:
            break
        i = min(busy, key=lambda j: (sims[j].session.elapsed_s, j))
        sims[i].tick()
        if hedge_after_s is not None:
            consider_hedges(i)
            settle_hedges()


def check_per_replica_specs(kv_cache: Union[SpecLike, KVCacheModel],
                            preemption: Union[SpecLike, PreemptionPolicy],
                            scheduler: Union[SpecLike, Scheduler],
                            memory_tiers: MemoryTiersLike) -> None:
    """Fleets build one KV model, preemption policy, scheduler and tier
    hierarchy per replica, so each must arrive as a spec, never as a
    live instance."""
    for what, value, live, noun, mixes in (
        ("kv_cache", kv_cache, KVCacheModel, "model", "block tables"),
        ("preemption", preemption, PreemptionPolicy, "policy",
         "parked-KV tables"),
        ("scheduler", scheduler, Scheduler, "scheduler", "virtual times"),
        ("memory_tiers", memory_tiers, TierHierarchy, "hierarchy",
         "residency ledgers and clocks"),
    ):
        if isinstance(value, live):
            raise ValueError(
                f"pass {what} as a spec string or spec object so each "
                f"replica builds its own {noun} (a shared instance would "
                f"mix {mixes} across replicas)")


def run_fleet(
    sims: List[ServingSimulator],
    shards: List[List[ServeRequest]],
    calendar: Optional[DownCalendar] = None,
    hedge_after_s: Optional[float] = None,
    trace: Optional[TraceRecorder] = None,
) -> List[ServingResult]:
    """Serve ``shards[i]`` on ``sims[i]``; one result per replica.

    Which loop runs is decided by what can couple the replicas, not by
    how the fleet was configured.  Replicas exchange requests only
    through crash failover (``calendar``) or hedging
    (``hedge_after_s``); without either they are independent
    partitions, so each is drained to completion in replica order —
    no cross-replica scan per tick (3-11 % of ``fleet_shared``
    throughput, see docs/architecture.md).  With either, the min-clock
    :func:`_co_simulate` keeps every hand-off causal.  For an uncoupled
    fleet the two loops give byte-identical results
    (tests/test_metamorphic.py pins that), so the choice is speed only.
    """
    if calendar is None and hedge_after_s is None:
        return [sim.run(shard) for sim, shard in zip(sims, shards)]
    for sim, shard in zip(sims, shards):
        sim.start(shard)
    _co_simulate(sims, calendar, hedge_after_s, trace)
    return [sim.finish() for sim in sims]


def run_serving_cluster(
    requests: Iterable[ServeRequest],
    model: Union[ModelSpec, str],
    n_replicas: int = 2,
    allocator: Union[SpecLike, AllocatorFactory] = "gmlake",
    capacity: int = A100_80GB,
    scheduler: Union[SpecLike, Scheduler] = "fcfs",
    config: Optional[ServingConfig] = None,
    kv_cache: Union[SpecLike, KVCacheModel] = "chunked",
    preemption: Union[SpecLike, PreemptionPolicy] = "recompute",
    autoscaler: Union[SpecLike, Autoscaler] = "none",
    trace: Optional[TraceRecorder] = None,
    gauges: Optional[GaugeSampler] = None,
    faults: Union[SpecLike, FaultModel] = "none",
    retry: Union[SpecLike, RetryPolicy] = "none",
    memory_tiers: str = "",
) -> ServeClusterResult:
    """Load-balance ``requests`` over ``n_replicas`` single-GPU replicas.

    ``autoscaler`` drives how many replicas take traffic per arrival
    (see :mod:`repro.serve.autoscale`); ``n_replicas`` is the fleet's
    maximum size.  Every replica still runs (an idle replica just
    serves an empty stream), so memory headlines stay comparable.

    A single ``trace`` recorder and ``gauges`` sampler are shared by
    the front-end and every replica: trace events carry their replica
    id (front-end events use :data:`~repro.obs.trace.FRONTEND_REPLICA`)
    and gauge points are tagged per replica, so one Chrome trace shows
    the whole fleet as separate processes.

    ``faults`` / ``retry`` (see :mod:`repro.serve.faults`) inject
    replica failures and drive the recovery policy.  Crash faults make
    dispatch health-aware (crashed replicas are routed around) and
    fail crash victims over to healthy peers through the front-end;
    ``hedge`` duplicates stragglers across replicas.  Those are the
    fleets whose replicas are co-simulated on interleaved clocks; every
    other fleet is drained replica by replica (see :func:`run_fleet`).
    """
    check_per_replica_specs(kv_cache, preemption, scheduler, memory_tiers)
    model = get_model(model) if isinstance(model, str) else model
    config = config if config is not None else ServingConfig()
    scaler = resolve("autoscaler", autoscaler)
    fault_model = resolve("faults", faults)
    retry_policy = resolve("retry", retry)
    calendar = (DownCalendar(fault_model, n_replicas)
                if fault_model.has_crashes else None)
    shards = dispatch_requests(requests, n_replicas,
                               drain_tokens_per_s=config.decode_tokens_per_s,
                               autoscaler=scaler, gauges=gauges, trace=trace,
                               down=calendar)
    result = ServeClusterResult(autoscaler_name=scaler.name)
    if gauges is not None:
        result.active_replica_points = list(gauges.active_points)
    sims = [
        ServingSimulator(
            model, allocator=allocator, capacity=capacity,
            scheduler=scheduler, config=config, replica_id=replica_id,
            kv_cache=kv_cache, preemption=preemption, trace=trace,
            gauges=gauges, faults=fault_model, retry=retry_policy,
            memory_tiers=memory_tiers,
        )
        for replica_id in range(n_replicas)
    ]
    result.replicas = run_fleet(sims, shards, calendar,
                                retry_policy.hedge_after_s, trace)
    return result
