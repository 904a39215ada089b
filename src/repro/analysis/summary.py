"""Aggregate statistics over many workloads — the paper's §5 headline:
"GMLake reduces fragmentation by 15% on average (up to 33%) and reserved
memory by 9.2 GB on average (up to 25 GB) across 76 workloads from 8
models."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.sim.metrics import ComparisonRow, mem_reduction_ratio


@dataclass
class SummaryStats:
    """Fleet-wide aggregates of a set of baseline-vs-GMLake rows."""

    n_workloads: int
    avg_saving_gb: float
    max_saving_gb: float
    avg_frag_reduction: float
    max_frag_reduction: float
    mem_reduction_ratio: float
    baseline_ooms: int
    gmlake_ooms: int


def summarize(rows: Sequence[ComparisonRow]) -> SummaryStats:
    """Aggregate comparison rows into the §5 summary statistics.

    Rows where either side OOMed are excluded from the memory averages
    (their peaks are truncated) but counted in the OOM tallies.
    """
    complete: List[ComparisonRow] = [
        r for r in rows if not r.baseline.oom and not r.gmlake.oom
    ]
    savings = [r.reserved_saving_gb for r in complete]
    frags = [r.fragmentation_reduction for r in complete]
    return SummaryStats(
        n_workloads=len(rows),
        avg_saving_gb=sum(savings) / len(savings) if savings else 0.0,
        max_saving_gb=max(savings) if savings else 0.0,
        avg_frag_reduction=sum(frags) / len(frags) if frags else 0.0,
        max_frag_reduction=max(frags) if frags else 0.0,
        mem_reduction_ratio=mem_reduction_ratio(
            [r.baseline.peak_reserved_bytes for r in complete],
            [r.gmlake.peak_reserved_bytes for r in complete],
        ),
        baseline_ooms=sum(1 for r in rows if r.baseline.oom),
        gmlake_ooms=sum(1 for r in rows if r.gmlake.oom),
    )
