"""LLM inference serving sizes — the §6 vLLM-adjacent scenario.

The paper positions GMLake as orthogonal to vLLM: vLLM defragments
*inside* the attention KV cache, GMLake defragments the *memory pool*
under any workload.  Serving is the harshest pool workload there is —
requests with wildly different prompt/output lengths arrive and retire
continuously, so KV-cache tensors of many sizes churn forever and a
splitting allocator shreds its pool.

This module holds the sizes and the decode rate the serving simulator
(:mod:`repro.serve`) charges: per-request KV bytes, the per-step
activation workspace, and the decode throughput.  An offline serving
trace is a recording of that simulator's allocator stream
(:class:`repro.sim.engine.AllocationRecorder`), replayed with
:func:`repro.sim.engine.run_trace`.
"""

from __future__ import annotations

from repro.workloads.models import ModelSpec

#: Serving decode throughput used for the compute model (tokens/s/GPU,
#: conservative A100 figure for a mid-size model).
DECODE_TOKENS_PER_S = 3000.0


def kv_bytes(model: ModelSpec, seq: int) -> int:
    """KV-cache bytes for one request with ``seq`` total tokens."""
    return 2 * model.n_layers * seq * model.hidden * model.dtype_bytes


def decode_workspace_bytes(model: ModelSpec, batch: int) -> int:
    """Transient activation workspace of one decode step for ``batch``
    running requests (a few live layer activations; never zero so the
    allocation is always valid): small, short-lived churn alongside the
    big KV blocks."""
    return model.activation_bytes(batch, 1) * 4 or 1
