"""Paper metrics and baseline-vs-GMLake comparison rows (§5.1).

The per-run utilization and fragmentation ratios are defined once, on
:class:`repro.allocators.stats.MemoryHeadline`; this module adds the
cross-workload memory reduction ratio
(Σ reserved − Σ GMLake reserved) / Σ reserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.sim.engine import EngineResult


def mem_reduction_ratio(
    baseline_reserved: Sequence[int], gmlake_reserved: Sequence[int]
) -> float:
    """The paper's MemReductionRatio over a set of workloads."""
    total_base = sum(baseline_reserved)
    total_gml = sum(gmlake_reserved)
    if total_base == 0:
        return 0.0
    return (total_base - total_gml) / total_base


@dataclass
class ComparisonRow:
    """One workload measured under the baseline and under GMLake."""

    label: str
    baseline: EngineResult
    gmlake: EngineResult

    @property
    def reserved_saving_gb(self) -> float:
        """Reserved-memory saving in GB (positive = GMLake uses less)."""
        return self.baseline.peak_reserved_gb - self.gmlake.peak_reserved_gb

    @property
    def fragmentation_reduction(self) -> float:
        """Absolute fragmentation-ratio reduction (paper's "15% avg")."""
        return (
            self.baseline.fragmentation_ratio - self.gmlake.fragmentation_ratio
        )

    @property
    def throughput_ratio(self) -> Optional[float]:
        """GMLake / baseline throughput (None if baseline OOMed)."""
        if self.baseline.throughput_samples_per_s == 0:
            return None
        return (
            self.gmlake.throughput_samples_per_s
            / self.baseline.throughput_samples_per_s
        )


def compare_results(
    label: str, baseline: EngineResult, gmlake: EngineResult
) -> ComparisonRow:
    """Bundle two engine results into a comparison row."""
    return ComparisonRow(label=label, baseline=baseline, gmlake=gmlake)
