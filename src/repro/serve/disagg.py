"""Disaggregated prefill/decode serving with cross-replica KV migration.

Splitwise/DistServe-style serving splits the fleet by *phase* instead
of by request: a **prefill fleet** runs every request's prompt pass
(compute-bound, bursty), then the request's KV cache migrates over a
modeled :class:`~repro.serve.interconnect.Interconnect` to a **decode
fleet** replica that streams the output tokens (memory-bound, steady).
The two phases stop competing for the same batch slots and pool
memory, at the price of moving every request's KV across the wire —
exactly the trade this module makes measurable:

* migration time is charged to the simulated clock **on both ends**
  (the export extends the prefill replica's timeline, the import the
  decode replica's admission), priced by the configured interconnect;
* every migrated byte is accounted (twice — once per direction, like
  ``swapped_bytes``) as ``KVCacheMetrics.migrated_bytes``;
* each fleet is dispatched and autoscaled independently (the same
  least-outstanding-work front-end as
  :func:`~repro.serve.cluster.dispatch_requests`, one autoscaler per
  fleet), with per-fleet size series in gauges and traces;
* requests carry per-phase queue-wait attribution
  (``prefill_wait_s`` / ``decode_wait_s``), so a TTFT regression can
  be pinned on the fleet that caused it.

Mechanically, each original request is simulated as two clones: a
one-token prefill clone (which finishes inside admission, emitting the
first token) and a decode clone that arrives at the decode fleet when
the prefill clone's KV export completes, with its first token already
done.  The lifecycle of both clones is merged back onto the original
request object, which is what :class:`DisaggServingResult` reports
over.  Replica ids are global: prefill replicas are ``0..P-1``, decode
replicas ``P..P+D-1``, so one trace shows the whole topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.api.spec import SpecLike, resolve
from repro.obs.gauges import NO_GAUGES, GaugeSampler
from repro.obs.trace import TraceRecorder
from repro.serve.autoscale import Autoscaler
from repro.serve.cluster import (
    FleetResult,
    check_per_replica_specs,
    dispatch_requests,
)
from repro.serve.faults import FaultModel, RetryPolicy
from repro.serve.interconnect import Interconnect
from repro.serve.kvcache import KVCacheModel
from repro.serve.preemption import PREFILL_TOKENS_PER_S, PreemptionPolicy
from repro.serve.request import ServeRequest
from repro.serve.scheduler import Scheduler
from repro.serve.simulator import (
    ServingConfig,
    ServingResult,
    ServingSimulator,
)
from repro.sim.engine import AllocatorFactory
from repro.units import A100_80GB
from repro.workloads.inference import DECODE_TOKENS_PER_S
from repro.workloads.models import ModelSpec, get_model

__all__ = ["DisaggServingResult", "run_serving_disagg"]


@dataclass
class DisaggServingResult(FleetResult):
    """Aggregated outcome of one disaggregated prefill/decode run.

    Everything a fleet reports (makespan, worst-replica memory, merged
    KV metrics, request tallies, the SLO report) comes from
    :class:`~repro.serve.cluster.FleetResult`; this class holds what is
    disaggregation's own.  TTFT spans both phases (arrival → prefill
    first token) and the report carries its per-phase queue-wait
    attribution (``prefill_wait_s`` / ``decode_wait_s``).
    """

    prefill_results: List[ServingResult] = field(default_factory=list)
    decode_results: List[ServingResult] = field(default_factory=list)
    #: The original requests with both phases' lifecycles merged on.
    requests: List[ServeRequest] = field(default_factory=list)
    interconnect_name: str = "pcie"
    autoscaler_name: str = "none"
    #: Requests whose KV crossed the interconnect.
    migrations: int = 0
    #: Exported KV parcels never imported nor rolled back — always 0
    #: for a completed run (the no-leak invariant tests pin).
    pending_imports: int = 0
    #: Per-fleet autoscaling change points: (arrival_s, active count).
    prefill_fleet_points: List[Tuple[float, int]] = field(
        default_factory=list)
    decode_fleet_points: List[Tuple[float, int]] = field(
        default_factory=list)

    # ------------------------------------------------------------------
    @property
    def replicas(self) -> List[ServingResult]:
        """Every replica's result, prefill fleet first."""
        return self.prefill_results + self.decode_results

    @property
    def n_prefill_replicas(self) -> int:
        return len(self.prefill_results)

    @property
    def n_decode_replicas(self) -> int:
        return len(self.decode_results)

    @property
    def topology(self) -> str:
        return (f"{self.n_prefill_replicas}P+{self.n_decode_replicas}D "
                f"over {self.interconnect_name}")

    def _sketch_populations(self) -> List[List[ServeRequest]]:
        # Replica populations hold per-phase clones; the report is over
        # the merged originals, one sketch.
        return [self.requests]

    @property
    def preemption_name(self) -> str:
        """The decode fleet's (inner) preemption policy name."""
        return (self.decode_results[0].preemption_name
                if self.decode_results else "recompute")

    @property
    def migrated_bytes(self) -> int:
        """KV bytes moved over the interconnect (both directions)."""
        return self.kv_metrics.migrated_bytes

    def extras(self) -> Dict[str, object]:
        """Disagg-specific metrics beyond the shared surface."""
        out: Dict[str, object] = {
            "prefill_replicas": self.n_prefill_replicas,
            "decode_replicas": self.n_decode_replicas,
            "interconnect": self.interconnect_name,
            "completed": self.completed,
            "rejected": self.rejected,
            "preemptions": self.preemptions,
            "migrations": self.migrations,
            "makespan_s": self.makespan_s,
            "kv_cache": self.kv_cache_name,
            "preemption": self.preemption_name,
        }
        if self.autoscaler_name != "none":
            out["autoscaler"] = self.autoscaler_name
        return self._extras_tail(out)


def run_serving_disagg(
    requests: Iterable[ServeRequest],
    model: Union[ModelSpec, str],
    prefill_replicas: int = 1,
    decode_replicas: int = 1,
    allocator: Union[SpecLike, AllocatorFactory] = "gmlake",
    capacity: int = A100_80GB,
    scheduler: Union[SpecLike, Scheduler] = "fcfs",
    config: Optional[ServingConfig] = None,
    kv_cache: Union[SpecLike, KVCacheModel] = "chunked",
    preemption: Union[SpecLike, PreemptionPolicy] = "recompute",
    autoscaler: Union[SpecLike, Autoscaler] = "none",
    interconnect: Union[SpecLike, Interconnect] = "pcie",
    trace: Optional[TraceRecorder] = None,
    gauges: Optional[GaugeSampler] = None,
    faults: Union[SpecLike, FaultModel] = "none",
    retry: Union[SpecLike, RetryPolicy] = "none",
    memory_tiers: str = "",
) -> DisaggServingResult:
    """Serve ``requests`` on a disaggregated prefill/decode topology.

    Each request's prompt pass runs on one of ``prefill_replicas``
    prefill replicas; its KV then migrates over ``interconnect`` (an
    :class:`~repro.serve.interconnect.Interconnect` spec, e.g.
    ``"nvlink?gb_per_s=300"``) to one of ``decode_replicas`` decode
    replicas, which streams the remaining tokens.  ``autoscaler`` is
    instantiated *twice* — each fleet scales on its own queue signal.

    A single ``trace`` recorder / ``gauges`` sampler spans the whole
    topology: prefill replicas are ids ``0..P-1``, decode replicas
    ``P..P+D-1``, and per-fleet size series are tagged ``"prefill"`` /
    ``"decode"``.

    ``faults`` / ``retry`` (see :mod:`repro.serve.faults`) apply to
    every replica of both fleets — crash windows are keyed by the
    *global* replica id, so the two fleets fail independently — and
    ``link-degrade`` faults additionally collapse the interconnect's
    bandwidth, stalling every KV migration.  Recovery is **local** on
    a disaggregated topology: a crash victim retries on its own
    replica (its phase's state cannot move mid-flight), and hedging is
    inert; fleet-level failover is the colocated cluster's behaviour
    (:func:`~repro.serve.cluster.run_serving_cluster`).
    """
    if prefill_replicas < 1 or decode_replicas < 1:
        raise ValueError(
            f"need at least one replica per fleet, got "
            f"{prefill_replicas} prefill / {decode_replicas} decode")
    check_per_replica_specs(kv_cache, preemption, scheduler, memory_tiers)
    if gauges is None:
        gauges = NO_GAUGES
    model = get_model(model) if isinstance(model, str) else model
    config = config if config is not None else ServingConfig()
    fault_model = resolve("faults", faults)
    retry_policy = resolve("retry", retry)
    link = fault_model.wrap_interconnect(resolve("interconnect", interconnect))

    originals = sorted(requests, key=lambda r: (r.arrival_s, r.req_id))
    by_id = {r.req_id: r for r in originals}
    needs_decode = {r.req_id for r in originals if r.output_tokens > 1}
    #: req_id -> KV bytes the prefill fleet shipped to the decode fleet.
    exported: Dict[int, int] = {}

    def fleet(first_id: int, size: int) -> List[ServingSimulator]:
        return [
            ServingSimulator(
                model, allocator=allocator, capacity=capacity,
                scheduler=scheduler, config=config,
                replica_id=first_id + offset, kv_cache=kv_cache,
                preemption=preemption, trace=trace, gauges=gauges,
                faults=fault_model, retry=retry_policy,
                memory_tiers=memory_tiers,
            )
            for offset in range(size)
        ]

    # ---- phase 1: the prefill fleet ----------------------------------
    prefill_clones = [
        ServeRequest(req_id=r.req_id, arrival_s=r.arrival_s,
                     prompt_tokens=r.prompt_tokens, output_tokens=1)
        for r in originals
    ]
    prefill_scaler = resolve("autoscaler", autoscaler)
    prefill_shards = dispatch_requests(
        prefill_clones, prefill_replicas,
        drain_tokens_per_s=PREFILL_TOKENS_PER_S,
        autoscaler=prefill_scaler, gauges=gauges, trace=trace,
        fleet="prefill")
    result = DisaggServingResult(
        interconnect_name=link.name,
        autoscaler_name=prefill_scaler.name,
    )
    # A prefill clone (one output token) finishes inside admission, and
    # the replica's preemption policy exports its KV at that moment.
    # Recovery is local on both fleets (no failover, no hedging), so
    # each replica serves its own shard.
    prefill_sims = fleet(0, prefill_replicas)
    for sim in prefill_sims:
        sim.preemption.export_on_finish(link, needs_decode, exported)
    result.prefill_results = [
        sim.run(shard) for sim, shard in zip(prefill_sims, prefill_shards)]
    result.migrations = len(exported)

    # ---- phase 2: the decode fleet -----------------------------------
    decode_clones = []
    for clone in prefill_clones:
        if not clone.finished or clone.req_id not in needs_decode:
            continue
        original = by_id[clone.req_id]
        decode_clones.append(ServeRequest(
            req_id=clone.req_id, arrival_s=clone.finished_s,
            prompt_tokens=original.prompt_tokens,
            output_tokens=original.output_tokens,
            tokens_done=1,
        ))
    decode_scaler = resolve("autoscaler", autoscaler)
    decode_shards = dispatch_requests(
        decode_clones, decode_replicas,
        drain_tokens_per_s=DECODE_TOKENS_PER_S,
        autoscaler=decode_scaler, gauges=gauges, trace=trace,
        fleet="decode")
    # Each decode replica's policy starts with its shard's migrated KV
    # parked on the wire: first admission imports it, after which the
    # replica preempts exactly like a colocated one.
    decode_sims = fleet(prefill_replicas, decode_replicas)
    for sim, shard in zip(decode_sims, decode_shards):
        sim.preemption.expect_imports(
            link, {clone.req_id: exported[clone.req_id] for clone in shard})
    result.decode_results = [
        sim.run(shard) for sim, shard in zip(decode_sims, decode_shards)]
    result.pending_imports = sum(sim.preemption.pending_imports
                                 for sim in decode_sims)

    # ---- merge both phases back onto the originals -------------------
    prefill_by_id = {c.req_id: c for c in prefill_clones}
    decode_by_id = {c.req_id: c for c in decode_clones}
    for original in originals:
        prefill = prefill_by_id[original.req_id]
        original.replica = prefill.replica
        original.preemptions = prefill.preemptions
        original.admitted_s = prefill.admitted_s
        original.first_token_s = prefill.first_token_s
        original.tokens_done = prefill.tokens_done
        original.retries = prefill.retries
        if prefill.admitted_s is not None:
            original.prefill_wait_s = (prefill.admitted_s
                                       - prefill.arrival_s)
        decode = decode_by_id.get(original.req_id)
        if decode is None:
            # Rejected at prefill, or a one-token request that never
            # needed the decode fleet: the prefill clone's terminal
            # state is the request's.
            original.state = prefill.state
            original.finished_s = prefill.finished_s
            original.rejected_s = prefill.rejected_s
            original.reject_reason = prefill.reject_reason
            original.failed_s = prefill.failed_s
            continue
        original.replica = decode.replica
        original.preemptions = prefill.preemptions + decode.preemptions
        original.retries = prefill.retries + decode.retries
        original.tokens_done = decode.tokens_done
        if decode.admitted_s is not None:
            original.decode_wait_s = decode.admitted_s - decode.arrival_s
        original.state = decode.state
        original.finished_s = decode.finished_s
        original.rejected_s = decode.rejected_s
        original.reject_reason = decode.reject_reason
        original.failed_s = decode.failed_s
    result.requests = originals
    result.prefill_fleet_points = gauges.fleet_series("prefill")
    result.decode_fleet_points = gauges.fleet_series("decode")
    return result
