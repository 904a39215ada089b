#!/usr/bin/env python
"""Push the batch size until OOM — the paper's Figure 13 experiment.

GMLake's defragmentation frees enough reserved memory to run larger
batches than the caching allocator on the same 80 GB device.

Run:  python examples/batch_scaling.py [model]
"""

import sys

from repro.analysis import along, comparison, format_table, grid
from repro.analysis.experiments import first_oom_batch
from repro.api import ExperimentSpec, WorkloadSpec


def main() -> None:
    model = sys.argv[1] if len(sys.argv) > 1 else "gpt-neox-20b"
    batches = [1, 12, 24, 36, 48, 60, 72]

    print(f"batch scaling {model}, LoRA+recompute, 4 GPUs, ZeRO-3\n")
    cells = grid(ExperimentSpec(workload=WorkloadSpec(model)),
                 along("batch_size", batches))
    rows = [comparison(results) for results in cells.values()]
    table = []
    for row in rows:
        def cell(result):
            if result.oom:
                return f"OOM@iter{result.oom_iteration}"
            return (f"{result.peak_reserved_gb:5.1f}GB "
                    f"{result.utilization_ratio:.0%} "
                    f"{result.throughput_samples_per_s:5.2f}smp/s")
        table.append({
            "batch/GPU": row.baseline.meta["batch_size"],
            "caching": cell(row.baseline),
            "GMLake": cell(row.gmlake),
        })
    print(format_table(table))

    oom_base = first_oom_batch(rows, "baseline")
    oom_gml = first_oom_batch(rows, "gmlake")
    print(f"\nfirst OOM: caching at batch {oom_base}, GMLake at batch {oom_gml}")
    if oom_base is not None and (oom_gml is None or oom_gml > oom_base):
        print("GMLake sustains larger batches than the caching allocator,")
        print("matching the paper's Figure 13 OOM markers.")


if __name__ == "__main__":
    main()
