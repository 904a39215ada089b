"""The discrete-event online serving simulator (one GPU replica).

Where the offline engine replays a *fixed* allocation trace, this loop
decides admissions online, with the allocator in the loop:

* requests arrive on their own clock (arrival process) and wait in a
  queue; waiting past ``queue_timeout_s`` rejects them (timeout SLO);
* the scheduler picks what to admit, possibly consulting live
  ``allocator.stats()`` headroom;
* admission provisions the request's KV cache through a pluggable
  :class:`~repro.serve.kvcache.KVCacheModel` — ``chunked`` (contiguous
  per-request tensors grown by re-alloc, the new block allocated
  before the old is freed as a real KV copy requires, stressing the
  allocator's pool) or ``paged`` (vLLM-style fixed-size blocks with a
  per-request block table, moving fragmentation from the pool into the
  cache layer);
* an OOM during KV growth **preempts** the youngest other running
  request (its KV is freed, the request requeued with its generated
  tokens kept — vLLM-style recompute preemption) instead of crashing
  the job like the offline replay does;
* every lifecycle timestamp is recorded so :mod:`repro.serve.metrics`
  can report TTFT / TPOT / tail latency / goodput.

Time is the device's simulated clock: driver costs charged by the
allocator, prefill and per-step decode compute all advance it, so
allocation latency shows up in TTFT exactly as it would in production.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Tuple, Union

from repro.allocators.stats import AllocatorStats
from repro.api.spec import SpecLike, resolve, resolve_allocator
from repro.gpu.device import GpuDevice
from repro.obs.gauges import GaugePoint, GaugeSampler
from repro.obs.trace import TraceRecorder
from repro.serve.faults import (
    CrashSchedule,
    FaultModel,
    RetryPolicy,
    StragglerState,
)
from repro.serve.kvcache import KVCacheMetrics, KVCacheModel
from repro.serve.memtier import MemoryTiersLike, resolve_memory_tiers
from repro.serve.preemption import PreemptionPolicy
from repro.serve.request import REJECT_REASONS, RequestState, ServeRequest
from repro.serve.metrics import ServingReport, SloConfig
from repro.serve.scheduler import Scheduler, SchedulerView
from repro.sim.engine import AllocatorFactory, ReplaySession
from repro.sim.timeline import TimelinePoint
from repro.units import A100_80GB, GB
from repro.workloads.inference import (
    DECODE_TOKENS_PER_S,
    decode_workspace_bytes,
)
from repro.workloads.models import ModelSpec, get_model

#: Slack for floating-point arrival-time comparisons, seconds.
_EPS = 1e-9

#: States a request can hold only while waiting in the admission queue.
_QUEUE_STATES = (RequestState.QUEUED, RequestState.PREEMPTED)


@dataclass
class ServingConfig:
    """Tunables of one serving replica.

    Attributes
    ----------
    max_batch:
        Cap on concurrently running (decoding) requests.
    queue_timeout_s:
        A request waiting longer than this is rejected (timeout SLO).
    max_preemptions:
        A request preempted more than this many times is rejected
        rather than thrashing forever.
    prefill_tokens_per_s / decode_tokens_per_s / step_overhead_us:
        The compute model: prefill is linear in context, one decode
        step costs ``overhead + batch / decode_rate`` so per-GPU token
        throughput saturates at ``decode_tokens_per_s``.
    record_timeline:
        Sample the memory timeline once per decode step.
    """

    max_batch: int = 16
    queue_timeout_s: float = 60.0
    max_preemptions: int = 8
    prefill_tokens_per_s: float = 25_000.0
    decode_tokens_per_s: float = DECODE_TOKENS_PER_S
    step_overhead_us: float = 150.0
    record_timeline: bool = False

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if not (self.queue_timeout_s > 0 and math.isfinite(self.queue_timeout_s)):
            raise ValueError("queue_timeout_s must be positive and finite")
        if self.max_preemptions < 0:
            raise ValueError("max_preemptions must be >= 0")
        if min(self.prefill_tokens_per_s, self.decode_tokens_per_s) <= 0:
            raise ValueError("token rates must be positive")


@dataclass
class ServingResult:
    """Everything one replica measured: per-request lifecycles plus the
    allocator-side statistics the offline engine also reports."""

    allocator_name: str
    scheduler_name: str
    model_name: str
    capacity: int
    requests: List[ServeRequest]
    makespan_s: float
    stats: AllocatorStats
    timeline: List[TimelinePoint] = field(default_factory=list)
    replica_id: int = 0
    kv_cache_name: str = "chunked"
    kv_metrics: Optional[KVCacheMetrics] = None
    preemption_name: str = "recompute"
    gauges: List[GaugePoint] = field(default_factory=list)
    #: Canonical tier hierarchy this replica served with ("" = none).
    memory_tiers: str = ""
    _tallies: "Optional[tuple]" = field(default=None, init=False,
                                        repr=False, compare=False)

    def _request_tallies(self) -> "tuple":
        """(completed, rejected, preemptions, retries, failed), once.

        The request population is final when the simulator builds this
        result, and these counts back several derived metrics
        (throughput, extras, reports) — one pass instead of one scan
        per property access.
        """
        if self._tallies is None:
            done = rejected = preempted = retried = failed = 0
            for request in self.requests:
                done += request.finished
                rejected += request.rejected
                preempted += request.preemptions
                retried += request.retries
                failed += request.reject_reason == "failed"
            self._tallies = (done, rejected, preempted, retried, failed)
        return self._tallies

    @property
    def completed(self) -> int:
        return self._request_tallies()[0]

    @property
    def rejected(self) -> int:
        return self._request_tallies()[1]

    @property
    def preemptions(self) -> int:
        return self._request_tallies()[2]

    @property
    def retries(self) -> int:
        """Crash-forced re-dispatches summed over the population."""
        return self._request_tallies()[3]

    @property
    def failed(self) -> int:
        """Requests rejected permanently by replica faults."""
        return self._request_tallies()[4]

    @property
    def utilization(self) -> float:
        return self.stats.utilization_ratio

    @property
    def peak_reserved_gb(self) -> float:
        return self.stats.peak_reserved_bytes / GB

    # -- the :class:`repro.api.RunResult` shared surface ---------------
    @property
    def peak_active_bytes(self) -> int:
        return self.stats.peak_active_bytes

    @property
    def peak_reserved_bytes(self) -> int:
        return self.stats.peak_reserved_bytes

    @property
    def utilization_ratio(self) -> float:
        return self.stats.utilization_ratio

    @property
    def fragmentation_ratio(self) -> float:
        return self.stats.fragmentation_ratio

    @property
    def throughput(self) -> float:
        """Completed requests per second of makespan."""
        return self.completed / max(self.makespan_s, 1e-9)

    @property
    def oom(self) -> bool:
        """Serving preempts instead of crashing; an OOM surfaces as
        preemptions and rejections, never as a failed run."""
        return False

    def extras(self) -> Dict[str, object]:
        """Serving-specific metrics beyond the shared surface."""
        out: Dict[str, object] = {
            "completed": self.completed,
            "rejected": self.rejected,
            "preemptions": self.preemptions,
            "makespan_s": self.makespan_s,
            "kv_cache": self.kv_cache_name,
            "preemption": self.preemption_name,
        }
        if self.retries:
            out["retries"] = self.retries
        if self.failed:
            out["failed"] = self.failed
        if self.kv_metrics is not None:
            out.update(self.kv_metrics.extras(per_replica=True))
        if self.memory_tiers:
            out["memory_tiers"] = self.memory_tiers
        return out

    def report(self, slo: Optional[SloConfig] = None,
               streaming: bool = False) -> ServingReport:
        """Aggregate SLO metrics for this replica's request population.

        ``streaming=True`` aggregates through constant-memory quantile
        sketches (see :mod:`repro.obs.sketch`) instead of sorted
        sample lists.
        """
        migrated = (self.kv_metrics.migrated_bytes
                    if self.kv_metrics is not None else 0)
        return ServingReport.from_requests(
            self.requests, self.makespan_s, slo,
            utilization=self.utilization,
            peak_reserved_gb=self.peak_reserved_gb,
            streaming=streaming,
            migrated_mb=migrated / (1 << 20),
        )


class ServingSimulator:
    """One GPU replica serving an online request stream."""

    def __init__(
        self,
        model: Union[ModelSpec, str],
        allocator: Union[SpecLike, AllocatorFactory] = "gmlake",
        capacity: int = A100_80GB,
        scheduler: Union[SpecLike, Scheduler] = "fcfs",
        config: Optional[ServingConfig] = None,
        replica_id: int = 0,
        kv_cache: Union[SpecLike, KVCacheModel] = "chunked",
        preemption: Union[SpecLike, PreemptionPolicy] = "recompute",
        trace: Optional[TraceRecorder] = None,
        gauges: Optional[GaugeSampler] = None,
        faults: Union[SpecLike, FaultModel] = "none",
        retry: Union[SpecLike, RetryPolicy] = "none",
        memory_tiers: MemoryTiersLike = "",
    ):
        self.model = get_model(model) if isinstance(model, str) else model
        self.config = config if config is not None else ServingConfig()
        self.capacity = capacity
        self.replica_id = replica_id
        self.device = GpuDevice(capacity=capacity)
        self.allocator = resolve_allocator(allocator, self.device)
        self.scheduler = resolve("scheduler", scheduler)
        self.session = ReplaySession(self.allocator)
        # Telemetry is strictly passive: recording/sampling never
        # advances the clock or changes a decision, so a traced run is
        # byte-identical to an untraced one.
        self.trace = trace
        self.gauges = gauges
        if trace is not None:
            trace.attach_allocator(self.allocator, self.session,
                                   replica=replica_id)
        self.kv = resolve("kv-cache", kv_cache, self.model)
        self.kv.bind(self.session, self.allocator)
        if trace is not None:
            self.kv.attach_trace(trace, replica_id)
        # Tiered slow memory (optional).  ``memory_tiers=""`` builds no
        # hierarchy and leaves every code path byte-identical to the
        # pre-tier simulator (the committed goldens enforce this).
        self.hierarchy = resolve_memory_tiers(memory_tiers)
        if self.hierarchy is not None:
            self.hierarchy.bind(self.session, self.device)
            if trace is not None:
                self.hierarchy.attach_trace(trace, replica_id)
            if hasattr(self.kv, "attach_hierarchy"):
                self.kv.attach_hierarchy(self.hierarchy)
        # The hierarchy *is* the offload target: on a tiered replica
        # the default policy demotes preempted KV into it instead of
        # dropping it.
        self.preemption = resolve("preemption", preemption, self.hierarchy)
        self.preemption.bind(self)
        # decode_workspace_bytes is a pure function of (model, batch),
        # evaluated once per decode step — memoize per batch size.
        self._workspace_bytes: Dict[int, int] = {}
        #: Min-heap of (deadline, req_id, seq, request) queue-timeout
        #: events, owned by :meth:`run`; filled by :meth:`_push_timeout`.
        self._timeouts: List[Tuple[float, int, int, ServeRequest]] = []
        # Fault injection.  With faults="none" the replica context is
        # None, so the loop body's fault branches never fire and the
        # run stays byte-identical to the pre-fault simulator (the
        # committed hotpath goldens enforce this).
        self.faults = resolve("faults", faults)
        self.retry = resolve("retry", retry)
        context = self.faults.replica_context(replica_id)
        self._crash = context if isinstance(context, CrashSchedule) else None
        self._straggler = (context if isinstance(context, StragglerState)
                           else None)
        #: Min-heap of (ready_s, seq, request) re-entries: retries
        #: landing after backoff and hedge duplicates, drained into
        #: the admission queue alongside arrivals.
        self._injected: List[Tuple[float, int, ServeRequest]] = []
        #: Push counter shared by both heaps: it orders full ties (a
        #: hedge clone and its original share deadline *and* req_id),
        #: so a heap never falls through to comparing requests.
        self._heap_seq = 0
        #: ``id()`` of requests that left this replica (re-dispatched
        #: to another one, or cancelled hedge losers): their stale
        #: timeout-heap entries are skipped and they are dropped from
        #: this replica's result population.
        self._gone: set = set()
        #: Requests injected here that did not arrive with the shard.
        self._adopted: List[ServeRequest] = []
        self._adopted_ids: set = set()
        self._home_ids: set = set()
        #: Orchestrator hook, (request, ready_s) -> None.
        #: When set (fleet co-simulation), crash victims and failover
        #: re-routes go fleet-wide; when None they re-enter *this*
        #: replica's queue after the retry delay.
        self._fault_sink = None
        # Run state owned by start()/tick()/finish().
        self._pending: List[ServeRequest] = []
        self._queue: "Deque[ServeRequest]" = deque()
        self._running: List[ServeRequest] = []
        self._index = 0

    # ------------------------------------------------------------------
    # Time helpers
    # ------------------------------------------------------------------
    def _now(self) -> float:
        """Simulated seconds since the run started."""
        return self.session.elapsed_s

    # ------------------------------------------------------------------
    # Lifecycle transitions
    # ------------------------------------------------------------------
    def _finish(self, request: ServeRequest,
                running: List[ServeRequest]) -> None:
        self.preemption.on_finish(request)
        self.kv.release(request)
        running.remove(request)
        request.state = RequestState.FINISHED
        request.finished_s = self._now()
        if self.trace is not None:
            self.trace.request_event("finish", request, request.finished_s,
                                     tokens=request.tokens_done)

    def _reject(self, request: ServeRequest, reason: str) -> None:
        # The single reject path: the taxonomy is closed here, so every
        # downstream consumer may partition rejections by reason.
        assert reason in REJECT_REASONS, f"unknown reject reason {reason!r}"
        self.kv.release(request)
        self.preemption.forget(request)
        request.state = RequestState.REJECTED
        request.rejected_s = self._now()
        request.reject_reason = reason
        if reason == "failed":
            request.failed_s = request.rejected_s
        if self.trace is not None:
            self.trace.request_event("reject", request, request.rejected_s,
                                     reason=reason)

    def _preempt(self, request: ServeRequest, running: List[ServeRequest],
                 queue: "Deque[ServeRequest]") -> None:
        """Evict a running request: the preemption policy handles its
        KV (free, or offload to host), then requeue (or reject).

        ``requeue`` tells the policy whether the victim will come back
        — a real stack knows the preemption budget before evicting, so
        a swap policy must not pay PCIe to offload a request that is
        about to be rejected anyway.
        """
        requeue = request.preemptions + 1 <= self.config.max_preemptions
        self.preemption.evict(request, requeue=requeue)
        if request in running:
            running.remove(request)
        request.preemptions += 1
        if self.trace is not None:
            self.trace.request_event("preempt", request, self._now(),
                                     requeue=requeue,
                                     preemptions=request.preemptions)
        if not requeue:
            self._reject(request, "preempted-out")
            return
        request.state = RequestState.PREEMPTED
        queue.appendleft(request)
        # While the request was RUNNING its deadline entry may have
        # been lazily dropped from the timeout heap as stale; re-push
        # on every requeue so a preempted request can still time out.
        # A surviving duplicate is harmless: the first expiry pop
        # rejects, later pops see a non-queued state and skip.
        self._push_timeout(request)

    def _push_timeout(self, request: ServeRequest) -> None:
        """Arm ``request``'s queue-timeout deadline (end-to-end: its
        original arrival plus the timeout, however often it requeues)."""
        self._heap_seq += 1
        heapq.heappush(
            self._timeouts,
            (request.arrival_s + self.config.queue_timeout_s,
             request.req_id, self._heap_seq, request))

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _try_admit(self, request: ServeRequest,
                   running: List[ServeRequest]) -> bool:
        """Admit: allocate prompt KV, run prefill, emit the first token."""
        context = request.context_tokens
        if not self.kv.admit(request):
            return False
        if request.admitted_s is None:
            request.admitted_s = self._now()
        if self.trace is not None:
            self.trace.request_event("admit", request, self._now(),
                                     resumed=request.preemptions > 0,
                                     context=context)
        # Make the request decode-ready: prefill over the full context
        # for fresh (and recompute-restored) requests, a PCIe swap-in
        # for requests a swap policy parked in host memory.
        self.session.advance(self.preemption.restore_us(request, context))
        request.state = RequestState.RUNNING
        running.append(request)
        if request.tokens_done == 0:
            request.tokens_done = 1
            request.first_token_s = self._now()
            if self.trace is not None:
                self.trace.request_event("first_token", request,
                                         request.first_token_s)
            if request.tokens_done >= request.output_tokens:
                self._finish(request, running)
        return True

    @staticmethod
    def _queue_discard(queue: "Deque[ServeRequest]",
                       request: ServeRequest) -> None:
        """Drop ``request`` from the queue by identity.

        O(1) for the head (the FCFS and memory-aware common case);
        schedulers that pick mid-queue pay one identity scan.  Raises
        like ``list.remove`` did if the request is not queued — a
        scheduler returning an already-admitted request is a bug that
        must not silently double-admit.
        """
        if queue and queue[0] is request:
            queue.popleft()
            return
        for i, queued in enumerate(queue):
            if queued is request:
                del queue[i]
                return
        raise ValueError(
            f"request {request.req_id} is not in the admission queue"
        )

    def _run_admissions(self, queue: "Deque[ServeRequest]",
                        running: List[ServeRequest]) -> None:
        flushed = False
        while queue and len(running) < self.config.max_batch:
            view = SchedulerView(
                allocator=self.allocator, model=self.model,
                running=len(running), max_batch=self.config.max_batch,
                capacity=self.capacity, kv=self.kv,
            )
            request = self.scheduler.select(queue, view)
            if request is None:
                if flushed or running:
                    # Under load a decline means "wait for a
                    # retirement"; flushing the pool here would destroy
                    # the allocator's converged state on every step.
                    break
                # Idle server, waiting requests, yet the policy sees no
                # headroom: only stale pool reservations can be in the
                # way.  Release cached memory and ask once more (what
                # PyTorch does under pressure) so a conservative policy
                # cannot starve an idle machine.
                self.allocator.empty_cache()
                flushed = True
                continue
            self._queue_discard(queue, request)
            if self._try_admit(request, running):
                continue
            if not running:
                # Nothing left to retire or preempt: even an empty
                # server cannot hold this request's prompt KV.
                self._reject(request, "too-large")
                continue
            # Memory is full; hold the request at the head of the queue
            # until a retirement (or timeout) changes the picture.
            request.state = RequestState.QUEUED
            queue.appendleft(request)
            break

    def _expire_timeouts(self, queue: "Deque[ServeRequest]") -> None:
        """Reject queued requests that waited past the timeout SLO.

        ``self._timeouts`` is a min-heap of ``(deadline, req_id, seq,
        request)`` pushed at arrival and again on every requeue.
        Entries for requests that already left the queue (admitted,
        finished, rejected) are skipped lazily.  The expiry test is the
        same float expression the per-step queue scan used
        (``now - arrival > timeout``), and subtraction's weak
        monotonicity guarantees that if the earliest deadline has not
        expired, no later one has — so popping in deadline order
        rejects exactly the set the full scan would.
        """
        now = self._now()
        timeout_s = self.config.queue_timeout_s
        timeouts = self._timeouts
        while timeouts:
            request = timeouts[0][-1]
            if (request.state not in _QUEUE_STATES
                    or id(request) in self._gone):
                heapq.heappop(timeouts)  # left the queue (or replica)
                continue
            if now - request.arrival_s > timeout_s:
                heapq.heappop(timeouts)
                self._queue_discard(queue, request)
                self._reject(request, "timeout")
                continue
            break

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------
    def _grow_kv(self, request: ServeRequest, running: List[ServeRequest],
                 queue: "Deque[ServeRequest]") -> bool:
        """Grow the request's KV capacity; preempt on OOM.

        Returns ``False`` when ``request`` itself had to be preempted
        (no other victim could free enough memory).
        """
        while True:
            if self.kv.grow(request):
                return True
            victim = self.preemption.select_victim(running, request)
            if victim is None:
                self._preempt(request, running, queue)
                return False
            # Evict the policy's victim (default: the youngest other
            # request, vLLM-style) and retry the growth.
            self._preempt(victim, running, queue)

    def _decode_step(self, queue: "Deque[ServeRequest]",
                     running: List[ServeRequest]) -> None:
        batch = len(running)
        step_us = (self.config.step_overhead_us
                   + batch * 1e6 / self.config.decode_tokens_per_s)
        if self._straggler is not None:
            step_us *= self._straggler.step_factor()
        self.session.advance(step_us)
        # Transient per-step activation workspace, like the offline
        # serving generator's ``ws`` tensors: small, short-lived churn
        # alongside the big KV blocks.  Best-effort — under pressure
        # the step runs from reserved slack rather than preempting.
        ws_bytes = self._workspace_bytes.get(batch)
        if ws_bytes is None:
            ws_bytes = self._workspace_bytes[batch] = decode_workspace_bytes(
                self.model, batch)
        self.session.try_malloc_free(ws_bytes)
        for request in list(running):
            if request.state is not RequestState.RUNNING:
                continue  # preempted by an earlier request's growth
            request.tokens_done += 1
            if request.tokens_done >= request.output_tokens:
                self._finish(request, running)
                continue
            if request.context_tokens + 1 > request.kv_capacity_tokens:
                self._grow_kv(request, running, queue)
        self.kv.note_decode_step(running)
        if self.config.record_timeline:
            self.session.sample()

    # ------------------------------------------------------------------
    # Fault hooks (no-ops on the faults="none" default path)
    # ------------------------------------------------------------------
    def inject(self, request: ServeRequest, ready_s: float) -> None:
        """Queue ``request`` to (re-)enter this replica at ``ready_s``.

        Used by the local retry path (a crash victim coming back after
        backoff) and by the fleet orchestrator (failover re-routes and
        hedge duplicates landing from another replica).  The request
        joins the admission queue when the replica's clock reaches
        ``ready_s``; its *original* arrival keeps driving the timeout
        SLO — deadlines are end-to-end, retries do not reset them.
        """
        rid = id(request)
        self._gone.discard(rid)
        if rid not in self._home_ids and rid not in self._adopted_ids:
            self._adopted_ids.add(rid)
            self._adopted.append(request)
        self._heap_seq += 1
        heapq.heappush(self._injected, (ready_s, self._heap_seq, request))

    def cancel(self, request: ServeRequest) -> None:
        """Withdraw ``request`` from this replica (a hedge copy lost
        the race): free any KV it holds through the KV model, forget
        any preemption-policy state, and drop it from this replica's
        result population with no reject accounting — exactly one copy
        of a hedged request survives fleet-wide.
        """
        if request.state is RequestState.RUNNING:
            self.kv.release(request)
            if request in self._running:
                self._running.remove(request)
        elif request.state in _QUEUE_STATES:
            self.kv.release(request)
            try:
                self._queue_discard(self._queue, request)
            except ValueError:
                pass  # still in the injection heap; the drain skips it
        self.preemption.forget(request)
        # Terminal-but-unaccounted: heaps lazily skip REJECTED entries,
        # and _gone drops the object from finish()'s population.
        request.state = RequestState.REJECTED
        self._gone.add(id(request))

    def _crash_victim(self, request: ServeRequest,
                      running: List[ServeRequest]) -> None:
        """The replica died under a running request: its device KV is
        gone (freed through the KV model, so the no-leak invariants
        keep holding), its generated text survives, and the retry
        policy decides whether it re-enters the fleet — recompute
        prefill over the full context rebuilds the KV on re-admission,
        exactly like recompute preemption."""
        self.kv.release(request)
        self.preemption.forget(request)
        running.remove(request)
        now = self._now()
        delay = self.retry.next_delay_s(request)
        if delay is None:
            self._reject(request, "failed")
            return
        request.retries += 1
        request.state = RequestState.QUEUED
        if self.trace is not None:
            self.trace.request_event("retry", request, now,
                                     attempt=request.retries,
                                     delay_s=delay)
        if self._fault_sink is not None:
            self._gone.add(id(request))
            self._fault_sink(request, now + delay)
        else:
            self.inject(request, now + delay)

    def _crash_poll(self, queue: "Deque[ServeRequest]",
                    running: List[ServeRequest]) -> None:
        """Cross crash/recover window boundaries the clock has passed.

        Idle jumps can leap whole windows, so this loops: recover from
        an expired window, enter the next one if it is already due.
        At crash entry every running request is evicted to the retry
        policy; under fleet orchestration the queued requests fail
        over too (re-routed by the front-end, no retry budget spent —
        they lost no work).  While down, the replica admits nothing
        and decodes nothing; queued requests keep aging toward their
        timeout deadlines.
        """
        crash = self._crash
        now = self._now()
        while True:
            if crash.down:
                if now < crash.end_s:
                    return
                recover_s = crash.end_s
                crash.recover()
                if self.trace is not None:
                    self.trace.record("recover", max(now, recover_s),
                                      replica=self.replica_id)
                if self.gauges is not None:
                    self.gauges.note_recover(max(now, recover_s),
                                             self.replica_id)
            if now < crash.start_s:
                return
            crash.crash()
            if self.trace is not None:
                self.trace.record("crash", max(now, crash.start_s),
                                  replica=self.replica_id,
                                  mttr_s=crash.end_s - crash.start_s)
            if self.gauges is not None:
                self.gauges.note_crash(max(now, crash.start_s),
                                       self.replica_id)
            for request in list(running):
                self._crash_victim(request, running)
            if self._fault_sink is not None:
                while queue:
                    request = queue.popleft()
                    self._gone.add(id(request))
                    self._fault_sink(request, now)

    @property
    def busy(self) -> bool:
        """True while :meth:`tick` still has work to do."""
        return bool(self._index < len(self._pending) or self._queue
                    or self._running or self._injected)

    @property
    def outstanding(self) -> int:
        """Requests currently queued or running here — the load signal
        the fleet front-end uses for failover and hedge targeting."""
        return len(self._queue) + len(self._running)

    # ------------------------------------------------------------------
    def start(self, requests: Iterable[ServeRequest]) -> None:
        """Begin a run: sort arrivals, place the weights, reset state.

        ``start`` / :meth:`tick` / :meth:`finish` decompose
        :meth:`run` so a fleet orchestrator can co-simulate replicas
        (stepping whichever holds the earliest clock) — ``run`` is
        exactly ``start``, ``tick`` until done, ``finish``.
        """
        self._pending = sorted(requests, key=lambda r: (r.arrival_s, r.req_id))
        for request in self._pending:
            request.replica = self.replica_id
        self._home_ids = {id(r) for r in self._pending}
        self.session.alloc("weights", self.model.weight_bytes)
        self._queue = deque()
        self._running = []
        self._timeouts.clear()
        self._index = 0

    def tick(self) -> bool:
        """One serving-loop iteration; ``False`` once drained.

        Every iteration either admits, decodes one step, rejects, or
        jumps the clock to the next arrival/timeout/re-entry/recovery
        event — so the loop terminates for any finite stream.

        Event plumbing is heap/deque-driven so each step is O(log n)
        bookkeeping: arrivals come off a presorted list by index, the
        admission queue is a deque (O(1) head pops and preemption
        re-queues), and queue timeouts live in a ``heapq`` of deadlines
        instead of being re-scanned against the whole queue per step —
        the earliest pending event (next arrival or earliest deadline)
        is the heap top, not a min() over rebuilt lists.
        """
        pending, queue, running = self._pending, self._queue, self._running
        if not (self._index < len(pending) or queue or running
                or self._injected):
            return False
        timeouts = self._timeouts
        now = self._now()
        if self._crash is not None:
            self._crash_poll(queue, running)
        while (self._index < len(pending)
               and pending[self._index].arrival_s <= now + _EPS):
            request = pending[self._index]
            queue.append(request)
            self._push_timeout(request)
            if self.trace is not None:
                self.trace.request_event("arrival", request,
                                         request.arrival_s,
                                         prompt=request.prompt_tokens,
                                         output=request.output_tokens)
            self._index += 1
        while self._injected and self._injected[0][0] <= now + _EPS:
            _, _, request = heapq.heappop(self._injected)
            if id(request) in self._gone:  # cancelled before landing
                continue
            request.replica = self.replica_id
            request.state = RequestState.QUEUED
            queue.append(request)
            self._push_timeout(request)
        self._expire_timeouts(queue)
        down = self._crash is not None and self._crash.down
        if not down:
            self._run_admissions(queue, running)
        if self.gauges is not None:
            self.gauges.poll(self, queue, running)
        if running:
            self._decode_step(queue, running)
            return True
        # Idle (or admission-blocked with an empty batch): jump to
        # whatever happens next — an arrival, a queue timeout, a
        # retry/hedge re-entry, or the crash window's end.  Stale heap
        # entries (requests that already left the queue) are discarded
        # first so they can never shorten the jump.
        while timeouts and (timeouts[0][-1].state not in _QUEUE_STATES
                            or id(timeouts[0][-1]) in self._gone):
            heapq.heappop(timeouts)
        horizons = []
        if self._index < len(pending):
            horizons.append(pending[self._index].arrival_s)
        if queue and timeouts:
            horizons.append(timeouts[0][0])
        if self._injected:
            horizons.append(self._injected[0][0])
        if down:
            horizons.append(self._crash.end_s)
        if not horizons:
            return False
        target = max(min(horizons), now)
        # The extra microsecond pushes strictly past the boundary so
        # the event fires on the next pass (no busy-spinning).
        self.session.advance((target - now) * 1e6 + 1.0)
        return True

    def finish(self) -> ServingResult:
        """Close the run and collect this replica's result.

        The population is every request that *ended* here: the shard's
        arrivals minus the ones faults moved elsewhere (re-dispatched
        crash victims, failover re-routes, cancelled hedge losers),
        plus adopted re-entries from other replicas.  On the
        fault-free path that is exactly the shard, untouched.
        """
        requests = self._pending
        if self._gone or self._adopted:
            requests = [r for r in requests if id(r) not in self._gone]
            requests.extend(r for r in self._adopted
                            if id(r) not in self._gone)
            requests.sort(key=lambda r: (r.arrival_s, r.req_id))
        return ServingResult(
            allocator_name=self.allocator.name,
            scheduler_name=self.scheduler.name,
            model_name=self.model.name,
            capacity=self.capacity,
            requests=requests,
            makespan_s=self._now(),
            stats=self.allocator.stats(),
            timeline=list(self.session.timeline),
            replica_id=self.replica_id,
            kv_cache_name=self.kv.name,
            kv_metrics=self.kv.metrics,
            preemption_name=self.preemption.name,
            gauges=(self.gauges.series(self.replica_id)
                    if self.gauges is not None else []),
            memory_tiers=(",".join(self.hierarchy.spec_strings())
                          if self.hierarchy is not None else ""),
        )

    def run(self, requests: Iterable[ServeRequest]) -> ServingResult:
        """Serve ``requests`` to completion (or rejection).

        Exactly :meth:`start`, :meth:`tick` until drained,
        :meth:`finish` — the same operation sequence the historical
        single-method loop performed, so the committed goldens pin
        this path byte-for-byte.
        """
        self.start(requests)
        while self.tick():
            pass
        return self.finish()


def run_serving(
    requests: Iterable[ServeRequest],
    model: Union[ModelSpec, str],
    allocator: Union[SpecLike, AllocatorFactory] = "gmlake",
    capacity: int = A100_80GB,
    scheduler: Union[SpecLike, Scheduler] = "fcfs",
    config: Optional[ServingConfig] = None,
    kv_cache: Union[SpecLike, KVCacheModel] = "chunked",
    preemption: Union[SpecLike, PreemptionPolicy] = "recompute",
    trace: Optional[TraceRecorder] = None,
    gauges: Optional[GaugeSampler] = None,
    faults: Union[SpecLike, FaultModel] = "none",
    retry: Union[SpecLike, RetryPolicy] = "none",
    memory_tiers: MemoryTiersLike = "",
) -> ServingResult:
    """Convenience wrapper: build one replica and serve ``requests``.

    ``trace`` (a :class:`~repro.obs.trace.TraceRecorder`) and
    ``gauges`` (a :class:`~repro.obs.gauges.GaugeSampler`) opt into
    lifecycle tracing and time-series sampling; both are passive.
    ``faults`` / ``retry`` (see :mod:`repro.serve.faults`) opt into
    fault injection; crash victims retry *locally* on a single replica
    (there is nowhere else to go) and hedging is inert without a fleet.
    ``memory_tiers`` (see :mod:`repro.serve.memtier`) names an optional
    slow-memory hierarchy below HBM, e.g. ``"dram?gb=64,cxl?gb=256"``
    — preempted KV and pressure-evicted prefix tails demote into it
    instead of being dropped.
    """
    simulator = ServingSimulator(model, allocator=allocator,
                                 capacity=capacity, scheduler=scheduler,
                                 config=config, kv_cache=kv_cache,
                                 preemption=preemption, trace=trace,
                                 gauges=gauges, faults=faults, retry=retry,
                                 memory_tiers=memory_tiers)
    return simulator.run(requests)
