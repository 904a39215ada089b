"""ZeRO-3 style sharded data parallelism (§2.4).

With ZeRO-3 every rank stores only ``1/N`` of each layer's parameters,
gradients and optimizer state, and materializes full layers on demand:
an all-gather buffer before a layer's forward/backward, a
reduce-scatter buffer for its gradients.  As N grows the persistent
shards shrink while the transient full-size buffers stay, which is the
irregularity mechanism behind the paper's Figure 4 utilization decline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import align_up


def shard_bytes(total: int, n_gpus: int, alignment: int = 256) -> int:
    """Per-rank shard of a ``total``-byte tensor across ``n_gpus``.

    Shards are padded to ``alignment`` like real flat-parameter shards.
    """
    if n_gpus <= 0:
        raise ValueError(f"n_gpus must be positive, got {n_gpus}")
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    return align_up((total + n_gpus - 1) // n_gpus, alignment)


@dataclass(frozen=True)
class ZeroConfig:
    """Distributed training configuration.

    Attributes
    ----------
    n_gpus:
        Data-parallel world size.
    stage:
        ZeRO stage: 0 = plain DDP (everything replicated); 1 = shard
        optimizer state only; 2 = shard optimizer state and gradients;
        3 = shard parameters too (the paper's setting, the only stage
        that needs gather buffers).
    prefetch_depth:
        How many layer all-gathers are kept in flight; 2 matches
        DeepSpeed's default prefetching and creates the overlapping
        transient lifetimes that fragment the caching allocator.
    """

    n_gpus: int = 1
    stage: int = 3
    prefetch_depth: int = 2

    def __post_init__(self):
        if self.n_gpus < 1:
            raise ValueError(f"n_gpus must be >= 1, got {self.n_gpus}")
        if self.stage not in (0, 1, 2, 3):
            raise ValueError(f"ZeRO stage must be 0-3, got {self.stage}")
        if self.prefetch_depth < 1:
            raise ValueError("prefetch_depth must be >= 1")

    @property
    def shards_params(self) -> bool:
        """True when parameters are sharded (gathers are needed)."""
        return self.stage == 3 and self.n_gpus > 1

    @property
    def shards_grads(self) -> bool:
        """True when gradients are sharded (stages 2 and 3)."""
        return self.stage >= 2 and self.n_gpus > 1

    @property
    def shards_optimizer(self) -> bool:
        """True when optimizer state is sharded (stages 1-3)."""
        return self.stage >= 1 and self.n_gpus > 1

    def param_shard(self, layer_bytes: int) -> int:
        """Bytes of one rank's parameter shard for a layer."""
        if not self.shards_params:
            return layer_bytes
        return shard_bytes(layer_bytes, self.n_gpus)

    def grad_shard(self, layer_bytes: int) -> int:
        """Bytes of one rank's gradient shard for a layer."""
        if not self.shards_grads:
            return layer_bytes
        return shard_bytes(layer_bytes, self.n_gpus)

    def optimizer_shard(self, state_bytes: int) -> int:
        """Bytes of one rank's optimizer-state shard."""
        if not self.shards_optimizer:
            return state_bytes
        return shard_bytes(state_bytes, self.n_gpus)
