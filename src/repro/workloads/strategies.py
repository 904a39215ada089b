"""Memory-reduction strategies and their allocation-pattern effects.

The paper evaluates combinations of three techniques (§2.3):

* **Recomputation (R)** — drop forward activations, keep one checkpoint
  per layer, re-materialize during backward.  Allocation effect: fewer
  live bytes, but backward interleaves fresh (and finer-grained)
  activation allocations with gradient buffers, defeating the LIFO
  discipline the caching allocator relies on.
* **LoRA (L)** — freeze base weights and train small rank-decomposition
  adapters.  Allocation effect: gradients/optimizer states shrink to
  adapter size, adding many small allocations with lifetimes that span
  iteration phases.
* **Offload (O)** — keep optimizer state in host memory (ZeRO-Offload).
  Allocation effect: per-step staging buffers of uneven bucket sizes
  are allocated and freed in transfer order (not LIFO).

Labels compose as in the paper: N, R, LR, RO, LRO, ...
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

#: LoRA rank cycles across layers (different projections use different
#: ranks in the paper's recipes), producing size diversity.
LORA_RANKS: List[int] = [8, 16, 32, 64]

#: Number of optimizer-offload transfer buckets per step.
OFFLOAD_BUCKETS: int = 8


@dataclass(frozen=True)
class StrategySet:
    """Which memory-reduction strategies are active."""

    recompute: bool = False
    lora: bool = False
    offload: bool = False

    # ------------------------------------------------------------------
    @classmethod
    def from_label(cls, label: str) -> "StrategySet":
        """Parse a paper-style label: ``"N"``, ``"R"``, ``"LR"``,
        ``"RO"``, ``"LRO"`` (order-insensitive)."""
        label = label.strip().upper()
        if label == "N" or label == "":
            return cls()
        valid = set("LRO")
        if not set(label) <= valid:
            raise ValueError(f"invalid strategy label {label!r}")
        return cls(
            recompute="R" in label,
            lora="L" in label,
            offload="O" in label,
        )

    @property
    def label(self) -> str:
        """Canonical label (N when nothing is enabled)."""
        out = ""
        if self.lora:
            out += "L"
        if self.recompute:
            out += "R"
        if self.offload:
            out += "O"
        return out or "N"

    def lora_rank(self, layer: int) -> int:
        """Adapter rank used at ``layer`` (cycles through LORA_RANKS)."""
        return LORA_RANKS[layer % len(LORA_RANKS)]

    def adapter_params(self, hidden: int, layer: int) -> int:
        """Trainable LoRA parameters in one layer: A (h × r) and B
        (r × h) adapters on the QKV and output projections."""
        rank = self.lora_rank(layer)
        return 4 * 2 * hidden * rank

    def __str__(self) -> str:
        return self.label


#: The strategy combinations the paper's figures sweep.
FIG10_COMBOS = ["N", "R", "LR", "RO", "LRO"]
FIG3_COMBOS = ["N", "R", "LR", "RO", "LRO"]
