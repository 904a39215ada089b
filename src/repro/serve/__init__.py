"""Online inference serving with the allocator in the scheduling loop.

The rest of the package replays *pre-built* allocation traces — a
request's admission time and KV-cache lifetime are fixed before the
allocator runs.  This subpackage closes the loop the paper's §6
serving argument describes: fragmentation feeds back into admission
capacity and latency.  A discrete-event simulator admits requests
online, provisions KV caches through a pluggable memory model
(``chunked`` contiguous growth or vLLM-style ``paged`` block tables),
preempts and requeues on OOM instead of failing the trace, and reports
serving SLO metrics (TTFT, TPOT, tail latency, goodput) next to the
allocator metrics.

Every pluggable policy here is a **registered component** addressable
by the same ``"name?key=value"`` mini-DSL as allocators (see
``repro list-components``) — a spec string, a
``repro.api.ComponentSpec(name, params, kind)`` or your own instance
wherever one is accepted, built by ``repro.api.resolve(kind, value)``:
KV-cache models (``kv-cache``), admission
schedulers (``scheduler``), arrival processes (``arrivals``),
preemption policies (``preemption``), autoscalers (``autoscaler``),
fault models (``faults``), retry policies (``retry``) and
trace-export sinks (``trace``, from :mod:`repro.obs`).

Observability is opt-in and passive: pass a
:class:`repro.obs.TraceRecorder` and/or :class:`repro.obs.GaugeSampler`
to :func:`run_serving` / :func:`run_serving_cluster` for lifecycle
traces (Chrome trace-event JSON) and time-series gauges, and
``report(streaming=True)`` for constant-memory t-digest percentiles
(see :mod:`repro.obs` and ``docs/observability.md``).

Layout
------
- :mod:`repro.serve.request`    — the request lifecycle model.
- :mod:`repro.serve.arrivals`   — Poisson / MMPP / replayed /
  closed-loop / multi-tenant arrival processes with heavy-tailed
  prompt/output lengths.
- :mod:`repro.serve.kvcache`    — KV-cache memory models (``chunked``
  vs. ``paged``): pool-level vs. cache-level defragmentation, with
  first-class block reference counts.
- :mod:`repro.serve.prefix`     — radix-trie prefix sharing over the
  paged model (``paged-shared``): ref-counted shared blocks,
  copy-on-write, LRU eviction under pressure.
- :mod:`repro.serve.scheduler`  — FCFS / shortest-prompt / memory-aware
  / weighted-fair (``wfq``) admission policies (memory-aware queries
  ``allocator.stats()`` through the KV model's headroom — free-block
  counts under paged KV, reuse-aware under prefix sharing).
- :mod:`repro.serve.preemption` — what an OOM eviction does to the
  victim's KV: ``recompute`` (free + re-prefill), ``swap`` (host
  offload over a modeled interconnect), demotion into ``memory_tiers``
  — one policy owning every off-device KV byte, disaggregated
  migration included.
- :mod:`repro.serve.memtier`    — tiered KV memory: host DRAM / CXL /
  NVMe offload targets below HBM (``memory-tier`` components), the
  hierarchy cold KV demotes into and promotes back from on first
  touch.
- :mod:`repro.serve.autoscale`  — replica-count policies for the
  multi-replica front-end (``none`` / ``queue-depth``).
- :mod:`repro.serve.interconnect` — modeled links (``pcie`` /
  ``nvlink``) pricing KV movement for swap offload and migration.
- :mod:`repro.serve.faults`     — replica fault models
  (``replica-crash`` / ``straggler`` / ``link-degrade``) and retry
  policies (``budget`` backoff / ``hedge``) for fault-tolerant
  serving.
- :mod:`repro.serve.simulator`  — the single-replica event loop.
- :mod:`repro.serve.metrics`    — SLO metrics and the serving report
  (exact or streaming via :mod:`repro.obs.sketch`).
- :mod:`repro.serve.cluster`    — the multi-replica front-end.
- :mod:`repro.serve.disagg`     — disaggregated prefill/decode fleets
  with cross-replica KV migration over an interconnect.

Quick start
-----------
>>> from repro.serve import PoissonArrivals, run_serving
>>> stream = PoissonArrivals(rate_per_s=2.0).generate(50, seed=0)
>>> result = run_serving(stream, "opt-1.3b", allocator="gmlake")
>>> result.report().completed
50
"""

from repro.serve.arrivals import (
    ArrivalProcess,
    ClosedLoopArrivals,
    LengthSampler,
    MMPPArrivals,
    MultiTenantArrivals,
    PoissonArrivals,
    ReplayArrivals,
    load_arrival_log,
)
from repro.serve.autoscale import (
    Autoscaler,
    NoAutoscaler,
    QueueDepthAutoscaler,
)
from repro.serve.cluster import (
    ServeClusterResult,
    dispatch_requests,
    run_serving_cluster,
)
from repro.serve.disagg import DisaggServingResult, run_serving_disagg
from repro.serve.faults import (
    BudgetRetry,
    CrashSchedule,
    DegradedInterconnect,
    FaultModel,
    HedgeRetry,
    LinkDegradeFaults,
    NoFaults,
    NoRetry,
    ReplicaCrashFaults,
    RetryPolicy,
    StragglerFaults,
)
from repro.serve.interconnect import (
    Interconnect,
    NvlinkInterconnect,
    PcieInterconnect,
)
from repro.serve.kvcache import (
    ChunkedKVCache,
    KVCacheMetrics,
    KVCacheModel,
    PagedKVCache,
)
from repro.serve.memtier import (
    MEMORY_TIERS,
    CxlTier,
    DramTier,
    MemoryTier,
    MemoryTiersLike,
    NvmeTier,
    TierHierarchy,
    parse_memory_tiers,
    resolve_memory_tiers,
)
from repro.serve.prefix import PrefixTrie, SharedPagedKVCache
from repro.serve.metrics import (
    ServingReport,
    ServingReportAccumulator,
    SloConfig,
    percentile,
)
from repro.serve.preemption import (
    OffloadPreemption,
    PreemptionPolicy,
)
from repro.serve.request import RequestState, ServeRequest
from repro.serve.scheduler import (
    FcfsScheduler,
    MemoryAwareScheduler,
    Scheduler,
    SchedulerView,
    ShortestPromptScheduler,
    WeightedFairScheduler,
    parse_tenant_weights,
)
from repro.serve.simulator import (
    ServingConfig,
    ServingResult,
    ServingSimulator,
    run_serving,
)

__all__ = [
    "ArrivalProcess",
    "ClosedLoopArrivals",
    "LengthSampler",
    "PoissonArrivals",
    "MMPPArrivals",
    "MultiTenantArrivals",
    "ReplayArrivals",
    "load_arrival_log",
    "Autoscaler",
    "NoAutoscaler",
    "QueueDepthAutoscaler",
    "RequestState",
    "ServeRequest",
    "KVCacheModel",
    "KVCacheMetrics",
    "ChunkedKVCache",
    "PagedKVCache",
    "SharedPagedKVCache",
    "PrefixTrie",
    "OffloadPreemption",
    "PreemptionPolicy",
    "MEMORY_TIERS",
    "MemoryTier",
    "MemoryTiersLike",
    "DramTier",
    "CxlTier",
    "NvmeTier",
    "TierHierarchy",
    "parse_memory_tiers",
    "resolve_memory_tiers",
    "Scheduler",
    "SchedulerView",
    "FcfsScheduler",
    "ShortestPromptScheduler",
    "MemoryAwareScheduler",
    "WeightedFairScheduler",
    "parse_tenant_weights",
    "ServingConfig",
    "ServingSimulator",
    "ServingResult",
    "run_serving",
    "SloConfig",
    "ServingReport",
    "ServingReportAccumulator",
    "percentile",
    "ServeClusterResult",
    "dispatch_requests",
    "run_serving_cluster",
    "Interconnect",
    "PcieInterconnect",
    "NvlinkInterconnect",
    "DisaggServingResult",
    "run_serving_disagg",
    "FaultModel",
    "NoFaults",
    "ReplicaCrashFaults",
    "StragglerFaults",
    "LinkDegradeFaults",
    "CrashSchedule",
    "DegradedInterconnect",
    "RetryPolicy",
    "NoRetry",
    "BudgetRetry",
    "HedgeRetry",
]
