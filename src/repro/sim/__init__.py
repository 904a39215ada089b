"""Simulation engine: replay allocation traces against allocators.

- :mod:`repro.sim.engine` — the replay loop, OOM handling, clocking,
  and the recorder that captures a live allocator stream as a trace.
- :mod:`repro.sim.metrics` — the paper's evaluation metrics
  (utilization / fragmentation ratio, memory reduction ratio).
- :mod:`repro.sim.timeline` — memory-over-time sampling and ASCII
  rendering (Figure 14).
"""

from repro.sim.cluster import ClusterResult, run_cluster
from repro.sim.engine import (
    AllocationRecorder,
    EngineResult,
    ReplaySession,
    run_trace,
    run_workload,
)
from repro.sim.metrics import ComparisonRow, compare_results, mem_reduction_ratio
from repro.sim.timeline import TimelinePoint, TimelineRecorder, render_timeline

__all__ = [
    "AllocationRecorder",
    "EngineResult",
    "ReplaySession",
    "run_trace",
    "run_workload",
    "ClusterResult",
    "run_cluster",
    "ComparisonRow",
    "compare_results",
    "mem_reduction_ratio",
    "TimelinePoint",
    "TimelineRecorder",
    "render_timeline",
]
