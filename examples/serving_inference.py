#!/usr/bin/env python
"""Inference serving under allocator churn — beyond the paper's
training focus (its §6 positions GMLake as orthogonal to vLLM).

A continuous-batching server admits requests with heavy-tailed
prompt/output lengths, so KV-cache tensors of ever-new sizes churn the
pool continuously.  This example serves 150 requests of OPT-13B once,
records the allocator stream, and replays that one stream under the
caching allocator, expandable segments and GMLake.

Run:  python examples/serving_inference.py [model] [requests]
"""

import sys

from repro.analysis import format_table
from repro.api import resolve_allocator
from repro.gpu.device import GpuDevice
from repro.serve import PoissonArrivals, ServingConfig, ServingSimulator
from repro.sim.engine import AllocationRecorder, run_trace


def main() -> None:
    model = sys.argv[1] if len(sys.argv) > 1 else "opt-13b"
    n_requests = int(sys.argv[2]) if len(sys.argv) > 2 else 150

    # Every request arrives at once and memory is ample, so the stream
    # is the scheduler's alone: no allocator decision shapes it.
    simulator = ServingSimulator(model, allocator="caching",
                                 config=ServingConfig(queue_timeout_s=1e6))
    recorder = simulator.allocator.add_observer(AllocationRecorder())
    served = simulator.run(
        PoissonArrivals(rate_per_s=1000).generate(n_requests, seed=0))
    trace = recorder.trace
    print(f"serving {n_requests} requests of {model}: "
          f"{trace.stats().n_allocs} allocations over "
          f"{served.makespan_s:.1f} simulated s\n")

    rows = []
    for name in ("caching", "expandable", "gmlake"):
        result = run_trace(resolve_allocator(name, GpuDevice()), trace)
        rows.append({
            "allocator": name,
            "reserved (GB)": round(result.peak_reserved_gb, 2),
            "active (GB)": round(result.peak_active_gb, 2),
            "utilization": round(result.utilization_ratio, 3),
            "OOM": result.oom,
        })
    print(format_table(rows, title="serving memory by allocator"))
    print("\nKV sizes never repeat, so exact-match caching cannot help — "
          "only stitching keeps reserved ~= active.")


if __name__ == "__main__":
    main()
