"""The unit of serving work: one inference request and its lifecycle.

A :class:`ServeRequest` is created by an arrival process with an
arrival time and sampled prompt/output token counts, then mutated by
the simulator as it moves through the queue: admitted (prefill),
decoded token by token, possibly preempted back to the queue on
allocator OOM, and finally finished or rejected.  All timestamps are
simulated seconds relative to the start of the run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class RequestState(enum.Enum):
    """Lifecycle states of a serving request."""

    QUEUED = "queued"
    RUNNING = "running"
    PREEMPTED = "preempted"
    FINISHED = "finished"
    REJECTED = "rejected"


#: The closed reject-reason taxonomy.  Every rejection the simulator
#: issues must carry one of these (asserted in the single reject path,
#: ``ServingSimulator._reject``); metrics may therefore partition
#: rejections by reason without an "other" bucket.
REJECT_REASONS = ("timeout", "preempted-out", "too-large", "failed")


@dataclass
class ServeRequest:
    """One inference request flowing through the serving simulator.

    Attributes
    ----------
    req_id:
        Position in the arrival stream (unique, monotonically rising).
    arrival_s:
        When the request reached the server, in simulated seconds.
    prompt_tokens / output_tokens:
        Sampled prompt length and target output length.
    state:
        Current lifecycle state.
    replica:
        Index of the replica the front-end dispatched this request to.
    admitted_s / first_token_s / finished_s / rejected_s:
        Lifecycle timestamps (``None`` until reached).  ``admitted_s``
        is the *first* admission — preemption does not reset it.
    tokens_done:
        Output tokens generated so far; survives preemption (the KV
        cache is recomputed on re-admission, the text is kept).
    preemptions:
        How many times this request was kicked out of the batch.
    reject_reason:
        One of :data:`REJECT_REASONS`: ``"timeout"`` (queued past the
        timeout SLO), ``"preempted-out"`` (preemption budget
        exhausted), ``"too-large"`` (prompt KV cannot fit an empty
        device) or ``"failed"`` (replica crashes exhausted the retry
        budget — permanent failure).
    retries:
        How many times a replica crash forced this request to be
        re-dispatched (0 on the fault-free path).  Unlike
        ``preemptions`` this counts *failures*, not memory pressure,
        and does not draw on ``max_preemptions``.
    failed_s:
        When the request failed permanently (its last crash with no
        retry budget left); ``None`` unless ``reject_reason`` is
        ``"failed"``.
    prefill_wait_s / decode_wait_s:
        Per-phase queue-wait attribution, set only by disaggregated
        serving (:mod:`repro.serve.disagg`): time spent queued before
        the prefill replica admitted the request, and time spent
        queued (KV parked on the wire's far side) before the decode
        replica did.  ``None`` for colocated runs.
    tenant:
        Owning tenant id (``""`` for single-tenant streams).  Set by
        multi-tenant arrival processes; consumed by the weighted-fair
        scheduler and the per-tenant report rows.
    prefix_id / prefix_tokens:
        Declared shared token prefix: the first ``prefix_tokens``
        tokens of the prompt are byte-identical across every request
        carrying the same ``prefix_id`` (a shared system prompt,
        few-shot preamble, …).  A prefix-sharing KV-cache model may
        serve those tokens from shared, ref-counted blocks;
        ``prefix_id=None`` (the default) opts out.
    """

    req_id: int
    arrival_s: float
    prompt_tokens: int
    output_tokens: int
    state: RequestState = RequestState.QUEUED
    replica: int = 0
    admitted_s: Optional[float] = None
    first_token_s: Optional[float] = None
    finished_s: Optional[float] = None
    rejected_s: Optional[float] = None
    reject_reason: Optional[str] = None
    tokens_done: int = 0
    preemptions: int = 0
    retries: int = 0
    failed_s: Optional[float] = field(default=None, repr=False)
    prefill_wait_s: Optional[float] = field(default=None, repr=False)
    decode_wait_s: Optional[float] = field(default=None, repr=False)
    tenant: str = field(default="", repr=False)
    prefix_id: Optional[str] = field(default=None, repr=False)
    prefix_tokens: int = field(default=0, repr=False)
    # KV bookkeeping maintained by the replica's KVCacheModel: the
    # token capacity currently provisioned (chunk-rounded for chunked
    # KV, whole blocks for paged KV).  The model holds the allocations
    # themselves, keyed by req_id.
    kv_capacity_tokens: int = field(default=0, repr=False)

    # ------------------------------------------------------------------
    @property
    def context_tokens(self) -> int:
        """Tokens the KV cache must currently cover (prompt + output)."""
        return self.prompt_tokens + self.tokens_done

    @property
    def total_tokens(self) -> int:
        """Prompt plus full target output."""
        return self.prompt_tokens + self.output_tokens

    @property
    def finished(self) -> bool:
        return self.state is RequestState.FINISHED

    @property
    def rejected(self) -> bool:
        return self.state is RequestState.REJECTED

    # ------------------------------------------------------------------
    @property
    def ttft_s(self) -> Optional[float]:
        """Time to first token (arrival → end of first prefill)."""
        if self.first_token_s is None:
            return None
        return self.first_token_s - self.arrival_s

    @property
    def latency_s(self) -> Optional[float]:
        """End-to-end latency (arrival → last token)."""
        if self.finished_s is None:
            return None
        return self.finished_s - self.arrival_s

    @property
    def tpot_s(self) -> Optional[float]:
        """Mean time per output token after the first (decode pace)."""
        if self.finished_s is None or self.first_token_s is None:
            return None
        if self.tokens_done <= 1:
            return 0.0
        return (self.finished_s - self.first_token_s) / (self.tokens_done - 1)

    def __str__(self) -> str:
        return (
            f"req{self.req_id}[{self.state.value} "
            f"p={self.prompt_tokens} o={self.tokens_done}/{self.output_tokens}]"
        )
