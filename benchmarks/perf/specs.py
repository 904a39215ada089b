"""The five benchmark workloads, as ``ExperimentSpec`` dicts.

Names are fixed: later issues refer to them.  Every spec goes through
the public ``ExperimentSpec.from_dict`` and ``repro.api.run``; the
harness seed is written into ``workload.seed`` / ``serving.seed`` and
the program sees nothing else of the benchmark.  Sizes give 4.5-5.5
CPU-seconds per run on the 2-core sandbox.
"""

from __future__ import annotations

import copy
from typing import Any, Dict

#: name -> one-line reason (copied into BENCHMARK.json; the test
#: asserts the two stay equal).
WHY: Dict[str, str] = {
    "train_replay": (
        "paper's own traffic: recompute+offload training trace replayed on "
        "caching and gmlake; core+sortedlist+gpu do most of the work, "
        "serve/obs none"),
    "serve_stitch": (
        "one gmlake replica, chunked KV at a sustainable rate: step loop and "
        "allocator fast paths, no fleet, no obs; control for serve_observed"),
    "serve_observed": (
        "serve_stitch with chrome trace, gauges and streaming report on: the "
        "only workload where obs works, so obs overhead is a row"),
    "fleet_shared": (
        "fault-free 4-replica fleet (sequential-shard path), paged-shared KV "
        "under pressure with wfq: radix-trie sharing, COW, block churn"),
    "fleet_chaos": (
        "crash-faulted 4-replica fleet (_co_simulate path) with budget retry "
        "and dram+cxl tiers: re-dispatch, rejections, demote/promote"),
}

_SERVE_STITCH: Dict[str, Any] = {
    "mode": "serve",
    "allocators": ["gmlake"],
    "capacity": "4GB",
    "serving": {
        "model": "opt-1.3b", "rate_per_s": 6, "n_requests": 2400,
        "scheduler": "memory-aware", "kv_cache": "chunked",
        "max_batch": 32, "queue_timeout_s": 30,
    },
}

_SPECS: Dict[str, Dict[str, Any]] = {
    "train_replay": {
        "mode": "replay",
        "allocators": ["caching", "gmlake"],
        "workload": {
            "model": "gpt-neox-20b", "batch_size": 8, "n_gpus": 4,
            "strategies": "LRO", "iterations": 36,
        },
    },
    "serve_stitch": _SERVE_STITCH,
    # serve_observed is serve_stitch plus the obs knobs; spec() fills in
    # the trace path, which must lie inside the checkout.
    "serve_observed": {
        **_SERVE_STITCH,
        "serving": {**_SERVE_STITCH["serving"],
                    "trace": "chrome?path={trace_path}",
                    "gauge_every_s": 0.5, "streaming": True},
    },
    "fleet_shared": {
        "mode": "serve",
        "allocators": ["caching"],
        "capacity": "4GB",
        "serving": {
            "model": "opt-1.3b",
            "arrivals": ("multi-tenant?tenants=16&rate=32"
                         "&shared_prefix_tokens=250"),
            "n_requests": 400, "replicas": 4, "scheduler": "wfq",
            "kv_cache": "paged?block_tokens=16", "prefix_sharing": True,
            "max_batch": 16, "queue_timeout_s": 30,
        },
    },
    # retry is "budget", not "hedge": hedge on a loaded crash fleet dies
    # in ServingSimulator._expire_timeouts (see README, findings).
    "fleet_chaos": {
        "mode": "serve",
        "allocators": ["caching"],
        "capacity": "3GB",
        "serving": {
            "model": "opt-1.3b", "rate_per_s": 32, "n_requests": 1000,
            "replicas": 4, "scheduler": "memory-aware",
            "kv_cache": "paged?block_tokens=16", "max_batch": 32,
            "queue_timeout_s": 30,
            "memory_tiers": ("dram?gb=0.2,"
                             "cxl?gb=16&gb_per_s=40&latency_us=1"),
            "faults": "replica-crash?mtbf_s=15&mttr_s=5",
            "retry": "budget?max=3",
        },
    },
}

NAMES = tuple(_SPECS)

#: The workload whose untraced CPU is the base of obs.overhead_share.
OBS_CONTROL = {"serve_observed": "serve_stitch"}


def spec(name: str, seed: int, trace_path: str = "") -> Dict[str, Any]:
    """The spec dict of workload ``name`` for harness seed ``seed``.

    ``trace_path`` is where a workload with a trace sink writes it.
    """
    out = copy.deepcopy(_SPECS[name])
    block = out["workload" if out["mode"] == "replay" else "serving"]
    block["seed"] = seed
    if "trace" in block:
        block["trace"] = block["trace"].format(trace_path=trace_path)
    return out
