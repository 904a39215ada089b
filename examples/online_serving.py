#!/usr/bin/env python
"""Online inference serving with the allocator in the admission loop.

Unlike examples/serving_inference.py — which records one run's
allocator stream and replays it, open-loop, under each allocator —
this keeps the allocator in the loop of ``repro.serve``'s
discrete-event simulator: requests arrive on a Poisson clock, a
memory-aware scheduler checks live allocator headroom before
admitting, KV caches grow chunk by chunk, and an OOM preempts and
requeues a request instead of failing the run.  The printed table
shows the serving SLO metrics (TTFT, tail latency, goodput) next to
the memory metrics.

Run:  python examples/online_serving.py [model] [rate] [requests]
"""

import sys

from repro.analysis.serving import format_serving_summary
from repro.serve import (
    PoissonArrivals,
    ServingConfig,
    SloConfig,
    run_serving,
    run_serving_cluster,
)
from repro.units import GB


def main() -> None:
    model = sys.argv[1] if len(sys.argv) > 1 else "opt-1.3b"
    rate = float(sys.argv[2]) if len(sys.argv) > 2 else 6.0
    n_requests = int(sys.argv[3]) if len(sys.argv) > 3 else 80

    capacity = 4 * GB  # tight enough that KV headroom is contested
    config = ServingConfig(max_batch=16, queue_timeout_s=30.0)
    slo = SloConfig(ttft_s=2.0, tpot_s=0.05)

    runs = {}
    for name in ("caching", "expandable", "gmlake"):
        stream = PoissonArrivals(rate_per_s=rate).generate(n_requests, seed=1)
        result = run_serving(stream, model, allocator=name,
                             capacity=capacity, config=config,
                             scheduler="memory-aware")
        runs[name] = (result, result.report(slo))
    # Cache-level defragmentation: vLLM-style paged KV blocks make the
    # pool see a single allocation size, so even the splitting caching
    # allocator stops fragmenting.
    stream = PoissonArrivals(rate_per_s=rate).generate(n_requests, seed=1)
    result = run_serving(stream, model, allocator="caching",
                         capacity=capacity, config=config,
                         scheduler="memory-aware",
                         kv_cache="paged?block_tokens=16")
    runs["caching+paged"] = (result, result.report(slo))
    print(format_serving_summary(
        runs,
        title=f"{model}: {n_requests} req at {rate:g}/s on {capacity // GB} GB",
        slo=slo))

    print("\nSame stream over 2 load-balanced replicas:")
    stream = PoissonArrivals(rate_per_s=rate).generate(n_requests, seed=1)
    cluster = run_serving_cluster(stream, model, n_replicas=2,
                                  allocator="gmlake", capacity=capacity,
                                  config=config, scheduler="memory-aware")
    print(cluster.summary())

    print("\nPreemption (OOM -> requeue) and queueing, not job failure, "
          "absorb the pressure; fragmentation decides how much goodput "
          "survives.")


if __name__ == "__main__":
    main()
