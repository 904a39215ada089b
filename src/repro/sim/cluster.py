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

import copy
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Union

from repro.api.result import WorstMemberRunResult
from repro.api.spec import SpecLike, resolve_allocator
from repro.sim.engine import AllocatorFactory, EngineResult, run_trace
from repro.gpu.device import GpuDevice
from repro.units import A100_80GB
from repro.workloads.request import Trace
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
    def mean_utilization(self) -> float:
        """Fleet-average utilization ratio."""
        return sum(r.utilization_ratio for r in self.ranks) / len(self.ranks)

    @property
    def throughput_samples_per_s(self) -> float:
        """Synchronous training runs at the slowest rank's pace."""
        return min(r.throughput_samples_per_s for r in self.ranks)

    @property
    def converged_at(self) -> Optional[int]:
        """The last rank to converge: the greatest
        :attr:`EngineResult.converged_at`, or ``None`` when some rank
        never did."""
        marks = [rank.converged_at for rank in self.ranks]
        return None if None in marks else max(marks)

    # -- the :class:`repro.api.RunResult` shared surface ---------------
    # Memory figures and min_utilization come from WorstMemberRunResult.
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
            f"max reserved={self.peak_reserved_gb:.2f} GB, "
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
    sequence jitter, if enabled, diverges slightly across ranks, as on
    a real cluster.  Without it every rank's trace is the same, so it
    is built once and replayed once.
    With ``record_timeline`` every rank carries its own memory timeline.
    """
    return _replay_ranks(_rank_traces(workload), allocator, capacity,
                         record_timeline)


def _rank_traces(workload: TrainingWorkload) -> List[Trace]:
    """Every rank's trace, built from its rank-salted seed.  Each draws
    from a fresh ``random.Random``, so a trace serves every allocator.
    A workload that does not read its seed builds one trace, which
    every rank shares."""
    if not workload.reads_seed:
        return [workload.build_trace()] * workload.n_gpus
    return [replace(workload, seed=workload.seed + 1009 * rank).build_trace()
            for rank in range(workload.n_gpus)]


def _replay_ranks(traces: List[Trace],
                  allocator: Union[SpecLike, AllocatorFactory],
                  capacity: int, record_timeline: bool) -> ClusterResult:
    """:func:`run_cluster` over the ranks' ``traces``, each distinct
    trace replayed once on a fresh device.  A rank whose trace equals
    an earlier rank's (events, compute times and meta) gets its own
    copy of that rank's result: the replay is a function of the trace."""
    ranks: List[EngineResult] = []
    for at, trace in enumerate(traces):
        twin = next((rank for rank, earlier in zip(ranks, traces[:at])
                     if _same_trace(earlier, trace)), None)
        if twin is not None:
            ranks.append(copy.deepcopy(twin))
            continue
        ranks.append(run_trace(
            resolve_allocator(allocator, GpuDevice(capacity=capacity)),
            trace, record_timeline=record_timeline))
    return ClusterResult(ranks=ranks)


def _same_trace(one: Trace, other: Trace) -> bool:
    """Whether replaying ``one`` and ``other`` gives the same result."""
    return one is other or (
        one.events == other.events
        and one.compute_us_per_iter == other.compute_us_per_iter
        and one.meta == other.meta)
