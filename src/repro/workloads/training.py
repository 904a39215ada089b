"""Fine-tuning trace builder: assembles a full training run.

The builder emits the allocation stream one GPU rank observes while
fine-tuning a transformer: persistent setup allocations (weight /
gradient / optimizer shards), then per iteration a forward pass,
backward pass and optimizer step, shaped by the active memory-reduction
strategies and the distributed configuration.

Two properties of real fine-tuning matter for fragmentation and are
modelled explicitly:

1. **Size variation** — batches are padded to the longest sequence in
   the batch, so activation sizes wobble between iterations
   (``seq_jitter``).
2. **Lifetime interleaving** — plain training allocates activations in
   forward order and frees them in reverse (LIFO), which a coalescing
   allocator handles perfectly; recomputation, LoRA, offload and ZeRO-3
   gathers interleave short transient allocations with long-lived ones,
   which is what strands free sub-blocks inside caching-allocator
   segments (the paper's Observations 1 and 2).

Without sequence-length jitter every iteration is the same stream
under its own ``i{it}.`` names, so the builder emits iteration 0 and
stamps the others from it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.workloads.models import ModelSpec, get_model
from repro.workloads.platforms import Platform, profile_for, round_gather
from repro.workloads.request import Trace, TraceEvent
from repro.workloads.strategies import StrategySet
from repro.workloads.transformer import (
    checkpoint_bytes,
    dgrad_bytes,
    logits_bytes,
    recompute_piece_sizes,
    saved_activation_tensors,
    workspace_bytes,
)
from repro.workloads.zero import ZeroConfig

#: fp32 Adam state per fp16 parameter byte: master copy + momentum +
#: variance, each 4 bytes per 2-byte parameter.
OPTIMIZER_STATE_FACTOR = 6

#: Sustained compute throughput of one simulated A100 (fp16 FLOP/s).
GPU_FLOPS = 312e12 * 0.45

#: Interconnect bandwidths (bytes/s) and overlap factors.
NVLINK_BW = 200e9
PCIE_BW = 25e9
COMM_EXPOSED_FRACTION = 0.4
OFFLOAD_EXPOSED_FRACTION = 0.4


def estimate_compute_us(
    model: ModelSpec,
    batch: int,
    seq: int,
    strategies: StrategySet,
    zero: ZeroConfig,
) -> float:
    """Simulated compute+communication time of one iteration, in µs.

    Uses the standard 6·N·tokens training-FLOPs rule (8·N with
    recomputation's extra forward), plus exposed ZeRO all-gather time
    and exposed optimizer-offload transfer time.
    """
    tokens = batch * seq
    flops_per_token = 6 * model.n_params
    if strategies.recompute:
        flops_per_token = 8 * model.n_params
    t_compute = flops_per_token * tokens / GPU_FLOPS

    t_comm = 0.0
    if zero.shards_params:
        # Each layer is gathered once forward and once backward.
        gathered = 2 * model.weight_bytes * (zero.n_gpus - 1) / zero.n_gpus
        t_comm = gathered / NVLINK_BW * COMM_EXPOSED_FRACTION

    t_offload = 0.0
    if strategies.offload:
        trainable = _trainable_bytes(model, strategies)
        per_rank = trainable * OPTIMIZER_STATE_FACTOR / zero.n_gpus
        t_offload = per_rank / PCIE_BW * OFFLOAD_EXPOSED_FRACTION

    return (t_compute + t_comm + t_offload) * 1e6


def _trainable_bytes(model: ModelSpec, strategies: StrategySet) -> int:
    """Bytes of trainable parameters at training precision."""
    if not strategies.lora:
        return model.weight_bytes
    total = 0
    for layer in range(model.n_layers):
        total += strategies.adapter_params(model.hidden, layer) * model.dtype_bytes
    return total


class _GatherWindow:
    """ZeRO-3 all-gather buffers with prefetching.

    Keeps up to ``depth`` per-layer gather buffers live; requesting
    layer ``l`` allocates buffers for ``l .. l+depth-1`` and frees
    everything older — the overlapping transient lifetimes DeepSpeed's
    prefetcher creates.
    """

    def __init__(self, trace: Trace, prefix: str, sizes: List[int], depth: int):
        self._trace = trace
        self._prefix = prefix
        self._sizes = sizes
        self._depth = depth
        self._live: List[int] = []

    def require(self, layer: int, order: "List[int]") -> None:
        """Ensure gathers for ``layer`` and its prefetch successors are
        live; ``order`` is the traversal order of remaining layers."""
        pos = order.index(layer)
        wanted = order[pos : pos + self._depth]
        for l in wanted:
            if l not in self._live:
                self._trace.alloc(f"{self._prefix}.g{l}", self._sizes[l])
                self._live.append(l)
        for l in list(self._live):
            if l not in wanted:
                self._trace.free(f"{self._prefix}.g{l}")
                self._live.remove(l)

    def drain(self) -> None:
        """Free every remaining gather buffer."""
        for l in self._live:
            self._trace.free(f"{self._prefix}.g{l}")
        self._live.clear()


@dataclass
class TrainingWorkload:
    """One fine-tuning configuration — a cell of the paper's grids.

    Attributes
    ----------
    model:
        Model spec or registry name (``"opt-13b"``).
    batch_size:
        Per-GPU micro-batch size.
    n_gpus:
        Data-parallel world size (ZeRO-3 when > 1).
    strategies:
        Memory-reduction strategies, as a :class:`StrategySet` or a
        paper-style label (``"LR"``).
    platform:
        DeepSpeed / FSDP / Colossal-AI preset.
    iterations:
        Training iterations to emit (the paper's runs converge within
        ~4; 8 leaves room to observe the steady state).
    seed:
        RNG seed for sequence-length jitter and bucket wobble.
    seq_jitter:
        Per-iteration sequence length factor range.  The default (1, 1)
        models the common practice of padding every batch to the
        maximum length — the regular stream of the paper's Figure 5
        left; pass e.g. ``(0.7, 1.0)`` to model longest-in-batch
        padding.  The memory-reduction strategies inject their own
        irregularity regardless.
    """

    model: Union[ModelSpec, str]
    batch_size: int
    n_gpus: int = 1
    strategies: Union[StrategySet, str] = field(default_factory=StrategySet)
    platform: Platform = Platform.DEEPSPEED
    iterations: int = 8
    seed: int = 0
    seq_jitter: Tuple[float, float] = (1.0, 1.0)
    #: ZeRO stage override; None selects stage 3 for multi-GPU runs and
    #: stage 0 (plain DDP) for single-GPU runs, the paper's settings.
    zero_stage: Optional[int] = None

    def __post_init__(self):
        if isinstance(self.model, str):
            self.model = get_model(self.model)
        if isinstance(self.strategies, str):
            self.strategies = StrategySet.from_label(self.strategies)
        if isinstance(self.platform, str):
            self.platform = Platform.from_name(self.platform)
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.n_gpus < 1:
            raise ValueError(f"n_gpus must be >= 1, got {self.n_gpus}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")

    # ------------------------------------------------------------------
    @property
    def zero(self) -> ZeroConfig:
        """Distributed configuration implied by the GPU count."""
        profile = profile_for(self.platform)
        if self.zero_stage is not None:
            stage = self.zero_stage
        else:
            stage = 3 if self.n_gpus > 1 else 0
        return ZeroConfig(n_gpus=self.n_gpus, stage=stage,
                          prefetch_depth=profile.prefetch_depth)

    @property
    def reads_seed(self) -> bool:
        """Whether :meth:`build_trace` depends on ``seed``.  The seed's
        only draw is ``rng.uniform(lo, hi)`` per iteration, with
        ``(lo, hi) = seq_jitter``, and that is ``lo`` when ``lo == hi``
        (the default), whatever the generator's state."""
        lo, hi = self.seq_jitter
        return lo != hi

    @property
    def label(self) -> str:
        """Human-readable workload id used in reports."""
        return (
            f"{self.model.name}/{self.strategies.label}/bs{self.batch_size}"
            f"/{self.n_gpus}gpu/{self.platform.value}"
        )

    # ------------------------------------------------------------------
    def build_trace(self) -> Trace:
        """Generate the allocation trace for this workload."""
        model = self.model
        strategies = self.strategies
        rng = random.Random(self.seed * 7919 + len(self.label))
        trace = Trace(meta={
            "model": model.name,
            "batch_size": self.batch_size,
            "n_gpus": self.n_gpus,
            "strategies": strategies.label,
            "platform": self.platform.value,
            "iterations": self.iterations,
            "global_batch": self.batch_size * self.n_gpus,
            "label": self.label,
        })

        self._emit_setup(trace)
        self._emit_iterations(trace, rng)
        return trace

    def _emit_iterations(self, trace: Trace, rng: random.Random) -> None:
        """Emit every iteration.  A trace that does not read its seed
        (:attr:`reads_seed`) repeats iteration 0 under each later
        index, so only iteration 0 is emitted: iterations 1..N-1 are
        stamped from it, each tensor's ``i0.`` prefix rewritten to
        ``i{it}.``, with its compute time."""
        if self.reads_seed:
            for it in range(self.iterations):
                self._emit_iteration(trace, it, rng)
            return
        start = len(trace.events)
        self._emit_iteration(trace, 0, rng)
        # Between the iteration markers every event names an ``i0.`` tensor.
        body = [(e.op, e.tensor[3:], e.size) for e in trace.events[start + 1:-1]]
        compute_us = trace.compute_us_per_iter[-1]
        for it in range(1, self.iterations):
            prefix = f"i{it}."
            trace.iter_start(it)
            trace.events.extend([TraceEvent(op, prefix + name, size)
                                 for op, name, size in body])
            trace.iter_end(it)
            trace.compute_us_per_iter.append(compute_us)

    def _emit_iteration(self, trace: Trace, it: int, rng: random.Random) -> None:
        """Emit iteration ``it``: its padded length (``rng``'s one draw),
        forward, backward and optimizer step, and its compute time."""
        model = self.model
        lo, hi = self.seq_jitter
        seq_t = max(16, int(model.seq_len * rng.uniform(lo, hi)) // 16 * 16)
        order_fwd = list(range(model.n_layers))
        trace.iter_start(it)
        self._emit_forward(trace, it, seq_t, rng, order_fwd)
        self._emit_backward(trace, it, seq_t, rng, order_fwd[::-1])
        self._emit_step(trace, it, rng)
        trace.iter_end(it)
        trace.compute_us_per_iter.append(estimate_compute_us(
            model, self.batch_size, seq_t, self.strategies, self.zero))

    # ------------------------------------------------------------------
    # Setup: persistent parameter / gradient / optimizer storage
    # ------------------------------------------------------------------
    def _emit_setup(self, trace: Trace) -> None:
        model = self.model
        strategies = self.strategies
        zero = self.zero
        for layer in range(model.n_layers):
            layer_bytes = model.layer_weight_bytes
            trace.alloc(f"w{layer}", zero.param_shard(layer_bytes))
            if strategies.lora:
                adapter = strategies.adapter_params(model.hidden, layer)
                adapter_bytes = adapter * model.dtype_bytes
                trace.alloc(f"ada{layer}", adapter_bytes)
                trace.alloc(f"adag{layer}", adapter_bytes)
                if not strategies.offload:
                    trace.alloc(f"opt{layer}",
                                adapter_bytes * OPTIMIZER_STATE_FACTOR)
            else:
                trace.alloc(f"grad{layer}", zero.grad_shard(layer_bytes))
                if not strategies.offload:
                    trace.alloc(
                        f"opt{layer}",
                        zero.optimizer_shard(layer_bytes * OPTIMIZER_STATE_FACTOR),
                    )
        trace.alloc("emb", zero.param_shard(model.embedding_bytes))
        if not strategies.lora:
            trace.alloc("embgrad", zero.grad_shard(model.embedding_bytes))
            if not strategies.offload:
                trace.alloc(
                    "embopt",
                    zero.optimizer_shard(
                        model.embedding_bytes * OPTIMIZER_STATE_FACTOR
                    ),
                )

    # ------------------------------------------------------------------
    # Forward pass
    # ------------------------------------------------------------------
    def _gather_sizes(self) -> List[int]:
        return [
            round_gather(self.platform, self.model.layer_weight_bytes)
            for _ in range(self.model.n_layers)
        ]

    def _emit_forward(self, trace: Trace, it: int, seq: int,
                      rng: random.Random, order: List[int]) -> None:
        model = self.model
        strategies = self.strategies
        batch = self.batch_size
        window: Optional[_GatherWindow] = None
        if self.zero.shards_params:
            window = _GatherWindow(
                trace, f"i{it}.f", self._gather_sizes(),
                self.zero.prefetch_depth,
            )
        trace.alloc(f"i{it}.embout", model.activation_bytes(batch, seq))
        for layer in order:
            if window is not None:
                window.require(layer, order)
            ws = f"i{it}.ws{layer}"
            trace.alloc(ws, workspace_bytes(model, batch, seq))
            if strategies.recompute:
                trace.alloc(f"i{it}.ckpt{layer}",
                            checkpoint_bytes(model, batch, seq))
            else:
                for name, size in saved_activation_tensors(model, batch, seq):
                    trace.alloc(f"i{it}.a{layer}.{name}", size)
            trace.free(ws)
        if window is not None:
            window.drain()
        trace.alloc(f"i{it}.logits", logits_bytes(model, batch, seq))

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def _emit_backward(self, trace: Trace, it: int, seq: int,
                       rng: random.Random, order: List[int]) -> None:
        model = self.model
        strategies = self.strategies
        batch = self.batch_size
        window: Optional[_GatherWindow] = None
        if self.zero.shards_params:
            window = _GatherWindow(
                trace, f"i{it}.b", self._gather_sizes(),
                self.zero.prefetch_depth,
            )
        trace.alloc(f"i{it}.dlogits", logits_bytes(model, batch, seq))
        trace.free(f"i{it}.logits")
        prev_dgrad: Optional[str] = None
        # Seed the gradient chain from the loss.
        dgrad0 = f"i{it}.dg.top"
        trace.alloc(dgrad0, dgrad_bytes(model, batch, seq))
        trace.free(f"i{it}.dlogits")
        prev_dgrad = dgrad0

        for layer in order:
            if window is not None:
                window.require(layer, order)
            recompute_names: List[str] = []
            if strategies.recompute:
                # Re-materialize this layer's activations in uneven
                # pieces — more, smaller allocations than the forward.
                for t_idx, (name, size) in enumerate(
                    saved_activation_tensors(model, batch, seq)
                ):
                    for k, piece in enumerate(
                        recompute_piece_sizes(size, layer * 37 + t_idx)
                    ):
                        piece_name = f"i{it}.r{layer}.{name}.{k}"
                        trace.alloc(piece_name, piece)
                        recompute_names.append(piece_name)
            dgrad = f"i{it}.dg{layer}"
            trace.alloc(dgrad, dgrad_bytes(model, batch, seq))
            if prev_dgrad is not None:
                trace.free(prev_dgrad)
            prev_dgrad = dgrad
            # Weight gradients.
            if strategies.lora:
                rank = strategies.lora_rank(layer)
                wgrad = f"i{it}.awg{layer}"
                trace.alloc(wgrad, 4 * 2 * model.hidden * rank * model.dtype_bytes)
                trace.free(wgrad)
            elif self.zero.shards_params:
                # Full-layer fp16 gradient lives until reduce-scatter.
                wgrad = f"i{it}.wg{layer}"
                trace.alloc(wgrad, model.layer_weight_bytes)
                trace.free(wgrad)
            # Release the recomputed pieces and this layer's stash.
            for name in recompute_names:
                trace.free(name)
            if strategies.recompute:
                trace.free(f"i{it}.ckpt{layer}")
            else:
                for name, _ in saved_activation_tensors(model, batch, seq):
                    trace.free(f"i{it}.a{layer}.{name}")
        if window is not None:
            window.drain()
        if prev_dgrad is not None:
            trace.free(prev_dgrad)
        if not strategies.lora:
            # Embedding gradient materializes once at the end.
            eg = f"i{it}.embg"
            trace.alloc(eg, self.zero.param_shard(model.embedding_bytes))
            trace.free(eg)
        trace.free(f"i{it}.embout")

    # ------------------------------------------------------------------
    # Optimizer step
    # ------------------------------------------------------------------
    def _emit_step(self, trace: Trace, it: int, rng: random.Random) -> None:
        model = self.model
        strategies = self.strategies
        zero = self.zero
        profile = profile_for(self.platform)
        if strategies.offload:
            # Stage optimizer traffic through uneven transfer buckets,
            # freed in transfer order with an overlap window of 2.
            trainable = _trainable_bytes(model, strategies)
            per_rank = max(
                256, trainable * OPTIMIZER_STATE_FACTOR // zero.n_gpus
            )
            n_buckets = profile.offload_buckets
            # Bucket proportions mirror uneven parameter-group sizes:
            # diverse within a step, identical across iterations.
            weights = [0.5 + ((b * 37) % 11) / 10.0 for b in range(n_buckets)]
            total_w = sum(weights)
            sizes = [max(256, int(per_rank * w / total_w)) for w in weights]
            live: List[str] = []
            for b, size in enumerate(sizes):
                name = f"i{it}.stage{b}"
                trace.alloc(name, size)
                live.append(name)
                if len(live) > 2:
                    trace.free(live.pop(0))
            for name in live:
                trace.free(name)
        elif strategies.lora:
            for layer in range(model.n_layers):
                adapter = strategies.adapter_params(model.hidden, layer)
                upd = f"i{it}.upd{layer}"
                trace.alloc(upd, adapter * 4)  # fp32 update buffer
                trace.free(upd)
        else:
            for layer in range(model.n_layers):
                upd = f"i{it}.upd{layer}"
                # fp32 update buffer over this rank's optimizer partition.
                trace.alloc(
                    upd, zero.optimizer_shard(model.layer_weight_bytes) * 2
                )
                trace.free(upd)
