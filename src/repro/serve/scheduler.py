"""Admission scheduling policies with the allocator in the loop.

The simulator asks its scheduler which queued request to admit next —
and the scheduler may inspect *live allocator state* before answering.
This is the feedback path the offline trace replay cannot express: a
memory-aware policy holds a request back when the pool has no headroom,
so fragmentation (allocator-dependent!) directly changes admission
timing, queueing delay and therefore every latency metric.

Policies (registered under the ``scheduler`` component kind, named by
the same ``"name?key=value"`` mini-DSL as allocators)
--------------------------------------------------------------------
``fcfs``            strict arrival order.
``shortest-prompt`` admit the queued request with the smallest current
                    context first (SJF on prefill work; alias ``sjf``).
``memory-aware``    arrival order, but skip requests whose projected
                    full-context KV footprint exceeds the allocator's
                    current headroom (``margin`` is the safety factor:
                    ``"memory-aware?margin=1.5"``).
``wfq``             weighted fair queueing across tenants: each tenant
                    accrues virtual time as it is served, scaled by
                    1/weight, and the head request of the
                    lowest-virtual-time tenant is admitted next
                    (``"wfq?weights=t0:2,t1:1"``; unlisted tenants
                    weigh 1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.allocators.base import BaseAllocator
from repro.api.registry import (
    Param,
    SpecError,
    register_component,
    register_kind,
)
from repro.serve.kvcache import KVCacheModel
from repro.serve.request import RequestState, ServeRequest
from repro.workloads.models import ModelSpec

register_kind("scheduler", label="scheduler")


@dataclass
class SchedulerView:
    """What an admission policy may observe about the serving state."""

    allocator: BaseAllocator
    model: ModelSpec
    running: int
    max_batch: int
    capacity: int
    kv: KVCacheModel

    def projected_kv_bytes(self, request: ServeRequest) -> int:
        """KV bytes the request occupies at its *full* context, as the
        replica's KV-cache model lays it out (chunk-rounded for the
        chunked model, whole blocks for the paged model)."""
        return self.kv.projected_bytes(request)

    def headroom_bytes(self, pool_reuse: float = 0.5) -> int:
        """Bytes of KV the allocator can plausibly hand out right now.

        Delegates to the KV-cache model, because reusability of
        reserved-but-inactive pool memory is a property of the KV
        layout.  Under **chunked** KV, unreserved memory counts in full
        and idle pool memory only at ``pool_reuse`` — whether a
        shredded pool can serve a *large* contiguous block depends on
        the allocator (a splitting allocator may have fragmented it
        beyond use, a stitching one can fuse it back), which is the
        feedback path that makes admission allocator-dependent.  Under
        **paged** KV every allocation is one fixed-size block, so the
        model counts whole free blocks and idle pool memory reuses in
        full — admission consults the free-block count, like vLLM's
        block manager.
        """
        return self.kv.headroom_bytes(
            self.allocator.stats(), self.capacity, pool_reuse)


class Scheduler(ABC):
    """Base admission policy."""

    name: str = "scheduler"

    @abstractmethod
    def select(
        self, queue: Sequence[ServeRequest], view: SchedulerView
    ) -> Optional[ServeRequest]:
        """Pick the queued request to admit next, or ``None`` to wait.

        The simulator only calls this while the batch has a free slot;
        the policy never needs to re-check ``view.running``.
        """


@register_component(
    "scheduler", "fcfs",
    description="first-come-first-served: strict arrival order",
)
class FcfsScheduler(Scheduler):
    """First-come-first-served: strict arrival order."""

    name = "fcfs"

    def select(self, queue, view):
        del view
        return queue[0] if queue else None


@register_component(
    "scheduler", "shortest-prompt",
    aliases=("sjf",),
    description="admit the smallest prefill first (SJF on current context)",
)
class ShortestPromptScheduler(Scheduler):
    """Admit the smallest prefill first (SJF on the current context).

    Cuts mean TTFT under load at the cost of tail latency for long
    prompts; ``req_id`` breaks ties deterministically.
    """

    name = "shortest-prompt"

    def select(self, queue, view):
        del view
        if not queue:
            return None
        return min(queue, key=lambda r: (r.context_tokens, r.req_id))


@register_component(
    "scheduler", "memory-aware",
    params=(
        Param("margin", float, 1.25, kind="float",
              doc="safety factor on the projected KV footprint"),
    ),
    description="FCFS, but only admit what the allocator can hold "
                "(skips requests whose projected KV exceeds headroom)",
)
class MemoryAwareScheduler(Scheduler):
    """FCFS, but only admit what the allocator can actually hold.

    Skips any request whose projected full-context KV (times a safety
    ``margin``) exceeds the current headroom reported by
    ``allocator.stats()`` — trading a little head-of-line blocking for
    far fewer mid-flight OOM preemptions.
    """

    name = "memory-aware"

    def __init__(self, margin: float = 1.25):
        if margin < 1.0:
            raise ValueError(f"margin must be >= 1.0, got {margin}")
        self.margin = margin

    def select(self, queue, view):
        headroom = view.headroom_bytes()
        for request in queue:
            if view.projected_kv_bytes(request) * self.margin <= headroom:
                return request
        return None


def parse_tenant_weights(weights: str) -> Dict[str, float]:
    """Parse a WFQ weights string into ``{tenant: weight}``.

    Two entry forms, comma-separated: ``tenant:weight`` pairs
    (``"t0:2,t1:1"``) and bare positional weights (``"2,1"``, assigned
    to tenants ``t0``, ``t1``, … in order).  Weights must be positive;
    a tenant repeated with a *different* weight is an error, while
    exact duplicates collapse (``"t0:2,t0:2"`` ≡ ``"t0:2"``).  Scaling
    every weight by a constant yields the same schedule — only ratios
    matter — so ``"t0:4,t1:2"`` normalizes to the ``"t0:2,t1:1"``
    behaviour.
    """
    parsed: Dict[str, float] = {}
    position = 0
    for entry in filter(None, (e.strip() for e in weights.split(","))):
        if ":" in entry:
            tenant, _, raw = entry.partition(":")
            tenant = tenant.strip()
        else:
            tenant, raw = f"t{position}", entry
            position += 1
        try:
            weight = float(raw)
        except ValueError:
            raise SpecError(
                f"wfq weight for tenant {tenant!r} must be a number, "
                f"got {raw!r}") from None
        if not weight > 0:
            raise SpecError(
                f"wfq weight for tenant {tenant!r} must be positive, "
                f"got {weight}")
        if tenant in parsed and parsed[tenant] != weight:
            raise SpecError(
                f"wfq tenant {tenant!r} given conflicting weights "
                f"{parsed[tenant]} and {weight}")
        parsed[tenant] = weight
    return parsed


@register_component(
    "scheduler", "wfq",
    aliases=("weighted-fair",),
    params=(
        Param("weights", str, "", kind="str",
              doc="per-tenant weights, 'tenant:weight' pairs or bare "
                  "positional weights, comma-separated "
                  "(e.g. 't0:2,t1:1' or '2,1'); unlisted tenants "
                  "weigh 1"),
    ),
    description="weighted fair queueing across tenants: admit the "
                "head request of the tenant with the lowest "
                "service-per-weight virtual time",
)
class WeightedFairScheduler(Scheduler):
    """Weighted fair queueing over the ``tenant`` field of requests.

    Classic virtual-time WFQ, with *expected decode work* (remaining
    prompt + output tokens) as the service currency: each tenant
    accrues ``work / weight`` virtual time when a request of theirs is
    admitted, and ``select`` picks the head-of-line request of the
    tenant with the smallest virtual time (FCFS within a tenant, so
    one tenant's order is never reshuffled).  A tenant first seen
    mid-run joins at the *current* minimum virtual time — it cannot
    cash in service credit for the time before it existed.

    The charge is applied lazily on the next ``select`` call, and only
    if the previously returned request actually entered the batch — a
    request bounced by an allocator OOM costs its tenant nothing.
    Scaling all weights by a constant leaves the schedule unchanged
    (only ``work/weight`` ratios are compared).
    """

    name = "wfq"

    def __init__(self, weights: str = ""):
        self.weights = (parse_tenant_weights(weights)
                        if isinstance(weights, str) else dict(weights))
        self._vtime: Dict[str, float] = {}
        self._pending: Optional[ServeRequest] = None
        self._pending_work: float = 0.0

    def _weight(self, tenant: str) -> float:
        return self.weights.get(tenant, 1.0)

    def _settle(self) -> None:
        """Charge the last selection if it was actually admitted."""
        request, self._pending = self._pending, None
        if request is None:
            return
        if request.state in (RequestState.RUNNING, RequestState.FINISHED):
            tenant = request.tenant
            self._vtime[tenant] = (self._vtime.get(tenant, 0.0)
                                   + self._pending_work
                                   / self._weight(tenant))

    def select(self, queue, view):
        del view
        self._settle()
        if not queue:
            return None
        heads: Dict[str, ServeRequest] = {}
        for request in queue:
            heads.setdefault(request.tenant, request)
        floor = min((self._vtime[t] for t in heads if t in self._vtime),
                    default=0.0)
        for tenant in heads:
            if tenant not in self._vtime:
                self._vtime[tenant] = floor
        request = min(
            heads.values(),
            key=lambda r: (self._vtime[r.tenant], r.arrival_s, r.req_id))
        # Expected service: tokens still to prefill + decode.
        self._pending = request
        self._pending_work = float(
            request.context_tokens
            + (request.output_tokens - request.tokens_done))
        return request
