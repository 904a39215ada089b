"""The paper's experiment grids as reusable runners.

Each function runs one sweep (the workload axis of a figure) under both
the PyTorch-style caching allocator and GMLake on fresh simulated
devices, returning :class:`~repro.sim.metrics.ComparisonRow` per cell.
Benches print the rows; tests assert the shapes (who wins, direction of
trends, OOM ordering).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.api.spec import SpecLike
from repro.sim.engine import AllocatorFactory, EngineResult, run_workload
from repro.sim.metrics import ComparisonRow, compare_results
from repro.units import A100_80GB
from repro.workloads.platforms import Platform
from repro.workloads.training import TrainingWorkload

#: Default iteration count: enough to pass GMLake's ~4-iteration
#: convergence (Fig. 14) with steady state left over.
DEFAULT_ITERATIONS = 8


def _compare(
    workload: TrainingWorkload,
    baseline: Union[SpecLike, AllocatorFactory] = "caching",
    gmlake: Union[SpecLike, AllocatorFactory] = "gmlake",
    capacity: int = A100_80GB,
) -> ComparisonRow:
    base = run_workload(workload, baseline, capacity=capacity)
    gml = run_workload(workload, gmlake, capacity=capacity)
    return compare_results(workload.label, base, gml)


def strategy_sweep(
    model: str,
    batch_size: int,
    combos: Sequence[str] = ("N", "R", "LR", "RO", "LRO"),
    n_gpus: int = 4,
    iterations: int = DEFAULT_ITERATIONS,
    gmlake: Union[SpecLike, AllocatorFactory] = "gmlake",
) -> List[ComparisonRow]:
    """Figure 3 / Figure 10: memory-efficient strategy combinations."""
    rows = []
    for combo in combos:
        workload = TrainingWorkload(
            model, batch_size=batch_size, n_gpus=n_gpus,
            strategies=combo, iterations=iterations,
        )
        rows.append(_compare(workload, gmlake=gmlake))
    return rows


def scaleout_sweep(
    model: str,
    batch_size: int,
    gpu_counts: Sequence[int] = (1, 2, 4, 8, 16),
    strategies: str = "LR",
    iterations: int = DEFAULT_ITERATIONS,
    gmlake: Union[SpecLike, AllocatorFactory] = "gmlake",
) -> List[ComparisonRow]:
    """Figure 4 / Figure 11: GPU scale-out."""
    rows = []
    for n in gpu_counts:
        workload = TrainingWorkload(
            model, batch_size=batch_size, n_gpus=n,
            strategies=strategies, iterations=iterations,
        )
        rows.append(_compare(workload, gmlake=gmlake))
    return rows


def platform_sweep(
    cells: Sequence[tuple] = (
        (Platform.FSDP, "glm-10b", 8),
        (Platform.DEEPSPEED, "opt-13b", 8),
        (Platform.COLOSSALAI, "gpt-2", 16),
    ),
    n_gpus: int = 4,
    strategies: str = "LR",
    iterations: int = DEFAULT_ITERATIONS,
    gmlake: Union[SpecLike, AllocatorFactory] = "gmlake",
) -> List[ComparisonRow]:
    """Figure 12: platforms (FSDP-GLM-10B, DS-OPT-13B, CAI-GPT-2)."""
    rows = []
    for platform, model, batch in cells:
        workload = TrainingWorkload(
            model, batch_size=batch, n_gpus=n_gpus,
            strategies=strategies, platform=platform, iterations=iterations,
        )
        rows.append(_compare(workload, gmlake=gmlake))
    return rows


def batch_sweep(
    model: str,
    batch_sizes: Sequence[int],
    n_gpus: int = 4,
    strategies: str = "LR",
    iterations: int = DEFAULT_ITERATIONS,
    gmlake: Union[SpecLike, AllocatorFactory] = "gmlake",
    capacity: int = A100_80GB,
) -> List[ComparisonRow]:
    """Figure 13: end-to-end batch-size sweep with OOM detection."""
    rows = []
    for batch in batch_sizes:
        workload = TrainingWorkload(
            model, batch_size=batch, n_gpus=n_gpus,
            strategies=strategies, iterations=iterations,
        )
        rows.append(_compare(workload, capacity=capacity))
    return rows


def first_oom_batch(
    rows: Sequence[ComparisonRow],
    side: str = "baseline",
) -> Optional[int]:
    """Smallest batch size whose run OOMed on ``side`` (Fig. 13's OOM
    markers); None when the sweep never OOMed."""
    for row in rows:
        result: EngineResult = getattr(row, side)
        if result.oom:
            return int(result.meta["batch_size"])
    return None
