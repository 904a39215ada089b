#!/usr/bin/env python
"""Disaggregated prefill/decode serving with KV migration over NVLink.

Splitwise/DistServe-style serving splits the fleet by phase: a prefill
fleet runs every request's prompt pass, then the request's KV cache
migrates over a modeled interconnect to a decode fleet that streams
the output tokens.  This example runs the same arrival stream three
ways — colocated on 2 replicas, disaggregated 1P+1D over NVLink, and
disaggregated over a deliberately slow PCIe link — and prints the
serving SLO table plus the per-phase TTFT attribution and migration
ledger that only a disaggregated run can report.

Run:  python examples/disagg_serving.py [model] [rate] [requests]
"""

import sys

from repro.analysis import format_table
from repro.analysis.serving import format_serving_summary
from repro.serve import (
    PoissonArrivals,
    ServingConfig,
    SloConfig,
    run_serving_cluster,
    run_serving_disagg,
)
from repro.units import GB, MB


def main() -> None:
    model = sys.argv[1] if len(sys.argv) > 1 else "opt-1.3b"
    rate = float(sys.argv[2]) if len(sys.argv) > 2 else 6.0
    n_requests = int(sys.argv[3]) if len(sys.argv) > 3 else 60

    capacity = 6 * GB
    config = ServingConfig(max_batch=16, queue_timeout_s=30.0)
    slo = SloConfig(ttft_s=2.0, tpot_s=0.05)

    def stream():
        return PoissonArrivals(rate_per_s=rate).generate(n_requests, seed=1)

    runs = {}
    colocated = run_serving_cluster(
        stream(), model, n_replicas=2, allocator="gmlake",
        capacity=capacity, config=config, scheduler="memory-aware")
    runs["colocated 2 GPU"] = (colocated, colocated.report(slo))

    disagg_labels = []
    for label, link in (("1P+1D nvlink", "nvlink?gb_per_s=300"),
                        ("1P+1D slow pcie", "pcie?gb_per_s=2")):
        result = run_serving_disagg(
            stream(), model, prefill_replicas=1, decode_replicas=1,
            allocator="gmlake", capacity=capacity, config=config,
            scheduler="memory-aware", interconnect=link)
        disagg_labels.append(label)
        runs[label] = (result, result.report(slo))

    print(format_serving_summary(
        runs,
        title=f"{model}: {n_requests} req at {rate:g}/s on "
              f"{capacity // GB} GB/replica",
        slo=slo))

    # Where TTFT was spent, and what the split cost on the wire.
    rows = []
    for label in disagg_labels:
        result, rep = runs[label]
        rows.append({
            "topology": label,
            "prefill wait (s)": round(rep.prefill_wait_s, 4),
            "decode wait (s)": round(rep.decode_wait_s, 4),
            "migrations": result.migrations,
            "migrated (MB)": round(result.migrated_bytes / MB, 1),
        })
    print()
    print(format_table(rows, title="per-phase TTFT attribution and "
                                   "migration ledger"))

    print("\nDisaggregation isolates the phases — decode batches never "
          "stall behind long prefills — and pays in interconnect "
          "traffic; the link's bandwidth decides whether the trade "
          "clears.")


if __name__ == "__main__":
    main()
