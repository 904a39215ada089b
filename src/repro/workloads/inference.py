"""LLM inference serving workloads — the §6 vLLM-adjacent scenario.

The paper positions GMLake as orthogonal to vLLM: vLLM defragments
*inside* the attention KV cache, GMLake defragments the *memory pool*
under any workload.  Serving is the harshest pool workload there is —
requests with wildly different prompt/output lengths arrive and retire
continuously, so KV-cache tensors of many sizes churn forever and a
splitting allocator shreds its pool.

This generator models a continuous-batching server:

* model weights resident (no sharding — single-GPU serving);
* per-request KV cache: ``2 (K,V) × layers × seq × hidden`` bytes,
  allocated at admission for the request's full context length;
* per-step activation workspace for the running batch;
* requests retire after their (sampled) output length, freeing their
  KV block — out of order with respect to admission.

Sequence lengths are sampled from a seeded log-normal-ish mixture, like
production traces; sizes therefore *never* repeat exactly, which is the
worst case for exact-match caching and a stress test beyond the paper's
training workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Union

from repro.units import align_up
from repro.workloads.models import ModelSpec, get_model
from repro.workloads.request import Trace

#: Serving decode throughput used for the compute model (tokens/s/GPU,
#: conservative A100 figure for a mid-size model).
DECODE_TOKENS_PER_S = 3000.0


def kv_bytes(model: ModelSpec, seq: int) -> int:
    """KV-cache bytes for one request with ``seq`` total tokens."""
    return 2 * model.n_layers * seq * model.hidden * model.dtype_bytes


def decode_workspace_bytes(model: ModelSpec, batch: int) -> int:
    """Transient activation workspace of one decode step for ``batch``
    running requests (a few live layer activations; never zero so the
    allocation is always valid).  Shared by the offline serving trace
    generator and the online simulator so their churn matches."""
    return model.activation_bytes(batch, 1) * 4 or 1


@dataclass
class ServingWorkload:
    """A continuous-batching inference server trace.

    Attributes
    ----------
    model:
        Model spec or registry name.
    n_requests:
        Total requests served.
    max_batch:
        Admission cap on concurrently running requests.
    mean_prompt / mean_output:
        Means of the sampled prompt and output token counts.
    kv_cache:
        KV-cache layout spec (a ``kv-cache`` component in the
        ``name?key=value`` mini-DSL).  ``"chunked"`` (default) allocates one contiguous KV
        tensor per request — sizes never repeat, the pool-fragmentation
        stress case.  ``"paged?block_tokens=16"`` allocates fixed-size
        blocks per request instead — every allocation is the same size,
        so the offline replay shows what cache-level defragmentation
        does to pool metrics.
    seed:
        RNG seed; the trace is a deterministic function of the config.
    """

    model: Union[ModelSpec, str]
    n_requests: int = 200
    max_batch: int = 16
    mean_prompt: int = 512
    mean_output: int = 256
    kv_cache: str = "chunked"
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.model, str):
            self.model = get_model(self.model)
        if self.n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        # Validate and canonicalize the KV layout spec up front (lazy
        # imports: repro.serve, which registers the kv-cache kind,
        # pulls in this module for kv_bytes).
        import repro.serve  # noqa: F401
        from repro.api.spec import ComponentSpec, SpecError

        spec = ComponentSpec.parse(self.kv_cache, "kv-cache")
        if spec.name == "paged-shared":
            # Prefix sharing needs request identity (who shares what),
            # which a pre-built offline trace doesn't carry.
            raise SpecError(
                "paged-shared is an online-serving KV model; offline "
                "traces use 'chunked' or 'paged' (run mode=serve for "
                "prefix sharing)")
        self.kv_cache = spec.spec_string()
        self._block_tokens = 0
        if spec.name == "paged":
            self._block_tokens = spec.resolved_params()["block_tokens"]

    def _sample_len(self, rng: random.Random, mean: int) -> int:
        """Heavy-tailed length sample, clamped to the model context."""
        value = int(rng.lognormvariate(0.0, 0.6) * mean)
        return max(16, min(self.model.seq_len, align_up(value, 16)))

    def build_trace(self) -> Trace:
        """Generate the serving allocation trace.

        The trace interleaves admissions (KV allocation) and
        retirements (KV free) exactly as continuous batching does:
        whenever a slot frees up, the next request is admitted.
        """
        model = self.model
        rng = random.Random(self.seed * 6151 + 17)
        trace = Trace(meta={
            "model": model.name,
            "kind": "serving",
            "n_requests": self.n_requests,
            "max_batch": self.max_batch,
            "global_batch": self.max_batch,
            "kv_cache": self.kv_cache,
            "label": f"{model.name}/serving/{self.n_requests}req",
        })
        trace.alloc("weights", model.weight_bytes)

        def admit_kv(req_id: int, tokens: int) -> None:
            if self._block_tokens:
                # Paged layout: fixed-size blocks, one per block-table
                # slot — the pool only ever sees one allocation size.
                blocks = -(-tokens // self._block_tokens)
                for j in range(blocks):
                    trace.alloc(f"kv{req_id}.b{j}",
                                kv_bytes(model, self._block_tokens))
            else:
                trace.alloc(f"kv{req_id}", kv_bytes(model, tokens))

        def retire_kv(req_id: int, tokens: int) -> None:
            if self._block_tokens:
                blocks = -(-tokens // self._block_tokens)
                for j in range(blocks):
                    trace.free(f"kv{req_id}.b{j}")
            else:
                trace.free(f"kv{req_id}")

        # Pre-sample every request's lifetime.
        requests = []
        for i in range(self.n_requests):
            prompt = self._sample_len(rng, self.mean_prompt)
            output = self._sample_len(rng, self.mean_output)
            requests.append((i, prompt, output))
        total_by_id = {i: prompt + output for i, prompt, output in requests}

        running: List[List[int]] = []  # [request id, remaining steps]
        admitted = 0
        step = 0
        total_tokens = 0
        trace.iter_start(0)
        while admitted < self.n_requests or running:
            # Admit up to the batch cap.
            while admitted < self.n_requests and len(running) < self.max_batch:
                req_id, prompt, output = requests[admitted]
                admit_kv(req_id, prompt + output)
                running.append([req_id, output])
                admitted += 1
            # One decode step for the whole batch.
            workspace = f"ws{step}"
            trace.alloc(workspace, decode_workspace_bytes(model, len(running)))
            trace.free(workspace)
            total_tokens += len(running)
            # Retire finished requests (out of admission order).
            for entry in list(running):
                entry[1] -= 1
                if entry[1] <= 0:
                    retire_kv(entry[0], total_by_id[entry[0]])
                    running.remove(entry)
            step += 1
        trace.iter_end(0)
        trace.compute_us_per_iter.append(
            total_tokens / DECODE_TOKENS_PER_S * 1e6
        )
        trace.meta["decode_steps"] = step
        return trace
