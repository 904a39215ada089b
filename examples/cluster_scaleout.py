#!/usr/bin/env python
"""Whole-cluster simulation: every rank, not just rank 0.

A synchronous data-parallel job runs at the slowest rank's pace and
dies if any single rank OOMs, so fleet-level metrics are what capacity
planning actually cares about.  This example fine-tunes OPT-1.3B across
1..8 ranks under both allocators and prints the fleet aggregates.

Run:  python examples/cluster_scaleout.py [model]
"""

import sys

from repro.analysis import format_table
from repro.sim import run_cluster
from repro.workloads import TrainingWorkload


def main() -> None:
    model = sys.argv[1] if len(sys.argv) > 1 else "opt-1.3b"
    rows = []
    for n_gpus in (1, 2, 4, 8):
        workload = TrainingWorkload(
            model, batch_size=4, n_gpus=n_gpus, strategies="LR",
            iterations=6, seq_jitter=(0.8, 1.0),
        )
        base = run_cluster(workload, "caching")
        gml = run_cluster(workload, "gmlake")
        rows.append({
            "ranks": n_gpus,
            "caching min-util": round(base.min_utilization, 3),
            "gmlake min-util": round(gml.min_utilization, 3),
            "caching worst RM (GB)": round(base.peak_reserved_gb, 2),
            "gmlake worst RM (GB)": round(gml.peak_reserved_gb, 2),
            "caching OOM": base.oom,
            "gmlake OOM": gml.oom,
        })
    print(format_table(
        rows, title=f"fleet view — {model}, LR, per-rank simulation"))
    print("\nthe worst rank defines the job: GMLake's flat utilization "
          "means no straggler rank runs out first.")


if __name__ == "__main__":
    main()
