"""Multi-rank cluster simulation.

The figure benches replay rank 0's allocation stream, which is exact
for symmetric data parallelism.  :func:`run_cluster` simulates *every*
rank with per-rank trace seeds (real ranks diverge slightly: different
data shards, different kernel autotuning) and aggregates the way a real
job does:

* the job OOMs iff **any** rank OOMs (collectives deadlock without it);
* the job's step time is the **slowest** rank's (synchronous SGD);
* reserved/active peaks are reported per-rank and fleet-wide.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Union

from repro.api.result import WorstMemberRunResult
from repro.api.spec import SpecLike, resolve_allocator
from repro.sim.engine import AllocatorFactory, EngineResult, run_trace
from repro.gpu.device import GpuDevice
from repro.units import A100_80GB
from repro.workloads.training import TrainingWorkload


@dataclass
class ClusterResult(WorstMemberRunResult):
    """Aggregated outcome of one multi-rank run."""

    ranks: List[EngineResult] = field(default_factory=list)

    @property
    def n_ranks(self) -> int:
        return len(self.ranks)

    @property
    def oom(self) -> bool:
        """A synchronous job fails as soon as one rank fails."""
        return any(rank.oom for rank in self.ranks)

    @property
    def max_peak_reserved_bytes(self) -> int:
        """The worst rank's reserved peak — what capacity planning sees."""
        return max(rank.peak_reserved_bytes for rank in self.ranks)

    @property
    def min_utilization(self) -> float:
        """The worst rank's utilization ratio."""
        return min(rank.utilization_ratio for rank in self.ranks)

    @property
    def mean_utilization(self) -> float:
        """Fleet-average utilization ratio."""
        return sum(r.utilization_ratio for r in self.ranks) / len(self.ranks)

    @property
    def throughput_samples_per_s(self) -> float:
        """Synchronous training runs at the slowest rank's pace."""
        return min(r.throughput_samples_per_s for r in self.ranks)

    # -- the :class:`repro.api.RunResult` shared surface ---------------
    # Memory figures delegate to WorstMemberRunResult (worst rank).
    def _result_members(self) -> List[EngineResult]:
        return self.ranks

    @property
    def throughput(self) -> float:
        return self.throughput_samples_per_s

    def extras(self) -> Dict[str, object]:
        """Cluster-specific metrics beyond the shared surface."""
        return {
            "n_ranks": self.n_ranks,
            "min_utilization": self.min_utilization,
            "mean_utilization": self.mean_utilization,
        }

    def summary(self) -> str:
        """One-line fleet report."""
        oom = " OOM" if self.oom else ""
        return (
            f"{self.n_ranks} ranks: util min={self.min_utilization:.3f} "
            f"mean={self.mean_utilization:.3f}, "
            f"max reserved={self.max_peak_reserved_bytes / (1 << 30):.2f} GB, "
            f"thru={self.throughput_samples_per_s:.2f} samp/s{oom}"
        )


def run_cluster(
    workload: TrainingWorkload,
    allocator: Union[SpecLike, AllocatorFactory] = "caching",
    capacity: int = A100_80GB,
    record_timeline: bool = False,
) -> ClusterResult:
    """Simulate every rank of ``workload`` on its own device.

    Each rank replays the same workload with a rank-salted seed, so
    strategy-induced irregularity (offload buckets, sequence jitter if
    enabled) diverges slightly across ranks, as on a real cluster.
    With ``record_timeline`` every rank carries its own memory timeline.
    """
    result = ClusterResult()
    for rank in range(workload.n_gpus):
        rank_workload = replace(workload, seed=workload.seed + 1009 * rank)
        trace = rank_workload.build_trace()
        device = GpuDevice(capacity=capacity)
        rank_result = run_trace(resolve_allocator(allocator, device), trace,
                                record_timeline=record_timeline)
        result.ranks.append(rank_result)
    return result
