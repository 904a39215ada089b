"""Fixed-seed equivalence tests against pre-refactor golden fixtures.

The hot-path overhaul (incremental pool accounting, indexed pools,
chunked sorted lists, the heap-driven serving loop) must be a pure
*performance* change: every simulated metric — peak memory, counters,
simulated wall-clock, per-request lifecycles — must stay byte-identical
under fixed seeds.  The fixtures in ``tests/golden/hotpath_goldens.json``
were generated by the code *before* the refactor; these tests re-run
the same scenarios and compare exactly (floats included: the simulation
is deterministic, so any drift means an operation was reordered).

Regenerate (only when a change intentionally alters simulated
behaviour) with::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/test_equivalence_goldens.py -q
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import pytest

from reference import reference
from repro.gpu.device import GpuDevice
from repro.serve import LengthSampler, MMPPArrivals, PoissonArrivals
from repro.serve.cluster import run_serving_cluster
from repro.serve.simulator import run_serving
from repro.sim import engine
from repro.sim.engine import run_workload
from repro.units import GB
from repro.workloads import TrainingWorkload

GOLDEN_PATH = Path(__file__).parent / "golden" / "hotpath_goldens.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDENS") == "1"


# ----------------------------------------------------------------------
# Scenario digests
# ----------------------------------------------------------------------
def engine_digest(result) -> dict:
    """Every metric an :class:`EngineResult` reports, JSON-exact."""
    return {
        "allocator": result.allocator_name,
        "peak_active_bytes": result.peak_active_bytes,
        "peak_reserved_bytes": result.peak_reserved_bytes,
        "oom": result.oom,
        "oom_iteration": result.oom_iteration,
        "iterations_completed": result.iterations_completed,
        "malloc_count": result.malloc_count,
        "total_time_s": result.total_time_s,
        "driver_time_us": result.driver_time_us,
        "host_time_us": result.host_time_us,
        "throughput": result.throughput_samples_per_s,
        "iter_times_s": result.iter_times_s,
    }


def _request_digest(requests) -> str:
    """MD5 over every request's full lifecycle (repr-exact floats)."""
    rows = [
        (r.req_id, r.state.name, r.replica, r.tokens_done, r.preemptions,
         repr(r.arrival_s), repr(r.admitted_s), repr(r.first_token_s),
         repr(r.finished_s), repr(r.rejected_s), r.reject_reason)
        for r in sorted(requests, key=lambda r: r.req_id)
    ]
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.md5(blob).hexdigest()


def serving_digest(result, slo=None) -> dict:
    """Every metric a :class:`ServingResult` (or cluster) reports."""
    report = result.report(slo)
    extras = result.extras()
    out = {
        "completed": extras["completed"],
        "rejected": extras["rejected"],
        "preemptions": extras["preemptions"],
        "makespan_s": result.makespan_s,
        "peak_active_bytes": result.peak_active_bytes,
        "peak_reserved_bytes": result.peak_reserved_bytes,
        "goodput_req_s": report.goodput_req_s,
        "p99_ttft_s": report.p99_ttft_s,
        "mean_tpot_s": report.mean_tpot_s,
        "slo_attainment": report.slo_attainment,
        "requests_md5": _request_digest(result.requests),
    }
    metrics = result.kv_metrics
    if metrics is not None:
        out["kv"] = {
            "kv_allocs": metrics.kv_allocs,
            "kv_frees": metrics.kv_frees,
            "peak_kv_bytes": metrics.peak_kv_bytes,
            "peak_blocks": metrics.peak_blocks,
            "grow_copy_bytes": metrics.grow_copy_bytes,
            "preempt_copy_bytes": metrics.preempt_copy_bytes,
            "util_sum": metrics.util_sum,
            "util_samples": metrics.util_samples,
        }
    return out


# ----------------------------------------------------------------------
# Scenarios (keep in lockstep with the committed goldens)
# ----------------------------------------------------------------------
def _replay(model, allocator, **kw):
    def run():
        workload = TrainingWorkload(model, **kw)
        return engine_digest(run_workload(workload, allocator))
    return run


def _serve(allocator, kv_cache, scheduler, *, arrival="poisson", rate=4.0,
           n=120, capacity=8 * GB, replicas=1, seed=0, mean_prompt=512,
           mean_output=256, timeout_s=None, max_batch=None):
    def run():
        from repro.serve.simulator import ServingConfig

        if arrival == "poisson":
            arrivals = PoissonArrivals(rate_per_s=rate)
        else:
            arrivals = MMPPArrivals(rate_calm_per_s=rate,
                                    rate_burst_per_s=4.0 * rate,
                                    mean_dwell_s=10.0)
        lengths = LengthSampler(mean_prompt=mean_prompt,
                                mean_output=mean_output)
        stream = arrivals.generate(n, lengths, seed=seed)
        config = None
        if timeout_s is not None or max_batch is not None:
            config = ServingConfig(
                max_batch=max_batch if max_batch is not None else 16,
                queue_timeout_s=timeout_s if timeout_s is not None else 60.0)
        if replicas > 1:
            result = run_serving_cluster(
                stream, "opt-1.3b", n_replicas=replicas, allocator=allocator,
                capacity=capacity, scheduler=scheduler, kv_cache=kv_cache,
                config=config)
        else:
            result = run_serving(
                stream, "opt-1.3b", allocator=allocator, capacity=capacity,
                scheduler=scheduler, kv_cache=kv_cache, config=config)
        return serving_digest(result)
    return run


SCENARIOS = {
    "replay/opt-13b-LR-caching": _replay(
        "opt-13b", "caching", batch_size=4, n_gpus=4, strategies="LR",
        iterations=6),
    "replay/opt-13b-LR-gmlake": _replay(
        "opt-13b", "gmlake", batch_size=4, n_gpus=4, strategies="LR",
        iterations=6),
    "replay/gpt-2-RO-caching": _replay(
        "gpt-2", "caching", batch_size=16, n_gpus=1, strategies="RO",
        iterations=4),
    "replay/gpt-2-RO-gmlake": _replay(
        "gpt-2", "gmlake", batch_size=16, n_gpus=1, strategies="RO",
        iterations=4),
    # The only replay pins of the two VMM-backed baselines: they hold
    # the create -> map -> setAccess call order (the simulated clock)
    # and the arena's grow / split / coalesce decisions.
    "replay/opt-13b-LR-expandable": _replay(
        "opt-13b", "expandable", batch_size=4, n_gpus=4, strategies="LR",
        iterations=6),
    "replay/gpt-2-RO-vmm-naive": _replay(
        "gpt-2", "vmm-naive", batch_size=16, n_gpus=1, strategies="RO",
        iterations=4),
    "replay/llama-7b-LRO-gmlake-chunk256": _replay(
        "llama-7b", "gmlake?chunk_mb=256", batch_size=8, n_gpus=2,
        strategies="LRO", iterations=4),
    "serve/caching-chunked-memaware": _serve(
        "caching", "chunked", "memory-aware"),
    "serve/gmlake-chunked-fcfs": _serve(
        "gmlake", "chunked", "fcfs"),
    "serve/caching-paged-memaware-mmpp": _serve(
        "caching", "paged?block_tokens=16", "memory-aware", arrival="mmpp",
        n=100),
    # Ample capacity: the arenas only ever grow (no OOM, no trim), so
    # this cell is independent of the release-and-retry path.
    "serve/expandable-chunked-ample": _serve(
        "expandable", "chunked", "memory-aware"),
    "serve/gmlake-chunked-pressure": _serve(
        "gmlake", "chunked", "memory-aware", rate=8.0, n=100,
        capacity=6 * GB),
    "serve/cluster-2x-caching-chunked": _serve(
        "caching", "chunked", "memory-aware", rate=6.0, n=80, replicas=2),
    # The preemption + tight-timeout regime: long prompts on a small
    # device force preemptions while a 3 s queue timeout keeps firing,
    # so requests cycle RUNNING -> PREEMPTED -> (timeout).  This is the
    # case where a requeued request's deadline event must survive its
    # stint in the running batch.
    "serve/preempt-timeout-regime": _serve(
        "caching", "chunked", "fcfs", rate=6.0, n=30, capacity=4 * GB,
        mean_prompt=1500, mean_output=900, timeout_s=3.0, max_batch=8),
}


# ----------------------------------------------------------------------
def _load_goldens() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(f"golden fixture missing: {GOLDEN_PATH}")
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.skipif(REGEN, reason="regenerating goldens")
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_matches_pre_refactor_golden(name):
    goldens = _load_goldens()
    assert name in goldens, f"no golden for scenario {name!r} — regenerate"
    measured = SCENARIOS[name]()
    assert measured == goldens[name]


@pytest.mark.skipif(not REGEN, reason="set REPRO_REGEN_GOLDENS=1 to regen")
def test_regenerate_goldens():
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    goldens = {name: fn() for name, fn in sorted(SCENARIOS.items())}
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True)
                           + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# GMLake's stitches and splits, one driver call and one re-key at a time
# ----------------------------------------------------------------------
def _replayed(name):
    """Replay cell ``name``; returns its digest and the driver state of
    its device: clock, VMM and runtime counters, committed
    bytes, next chunk handle."""
    devices = []

    class Kept(GpuDevice):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            devices.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "GpuDevice", Kept)
        digest = SCENARIOS[name]()
    (device,) = devices
    phys = device.phys
    return (digest, device.clock.now_us, device.vmm.counters.snapshot(),
            dataclasses.asdict(device.runtime.counters),
            (phys.committed, phys._next_handle))


@pytest.mark.parametrize("name", sorted(n for n in SCENARIOS
                                        if n.startswith("replay/")
                                        and "gmlake" in n))
def test_gmlake_replay_equals_per_call_maps_and_per_sblock_rekeys(name):
    """A stitch or split maps its chunks as one record, and a split
    pools its halves under their final references: the same run as
    every map its own call and each half re-keyed once per sBlock."""
    shipped = _replayed(name)
    with reference("vmm-sequences", "split-refs"):
        assert _replayed(name) == shipped
    assert shipped[2]["map_calls"] > 0  # not vacuous
