"""The registry-wide twin: every cell runs as shipped and with every
group of ``tests/reference.py`` swapped in at once, and the two runs
must agree exactly on everything ``reference.observe`` records.

The matrix is every scheduler x {chunked, paged, paged-shared} x seven
topologies: one replica, a straggler, a traced replica with gauges,
a crash-faulted tiered 2-replica fleet (each pick runs ahead to the
next crash hand-off), a hedged fleet (one tick per pick), a 1P+1D
disaggregated run and an uncoupled 2-replica GMLake fleet.
Hypothesis draws each cell's seed: one example under the default
profile (its simplest, seed 0, comes first) and four under the
nightly one.
"""

import contextlib
import functools
import itertools
import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import GROUPS, REFERENCE, observe, reference
from repro.api import component_names
from repro.core import GMLakeAllocator
from repro.obs import TraceRecorder
from repro.serve import (
    LengthSampler,
    MultiTenantArrivals,
    ServingConfig,
    ServingSimulator,
    run_serving,
    run_serving_cluster,
    run_serving_disagg,
)
from repro.serve.request import ServeRequest
from repro.units import MB
from repro.workloads import get_model

MODEL = get_model("opt-1.3b")

SCHEDULERS = component_names("scheduler")
KV_CACHES = {
    "chunked": "chunked?chunk_tokens=32",
    "paged": "paged?block_tokens=16",
    "paged-shared": "paged-shared?block_tokens=16",
}
TIERS = "dram?gb=0.05,cxl?gb=1&gb_per_s=40&latency_us=1"


def _stream(seed, n=8, rate=60.0, mean_output=48):
    return MultiTenantArrivals(
        tenants=3, rate_per_s=rate, shared_prefix_tokens=48).generate(
            n, LengthSampler(mean_prompt=64, mean_output=mean_output,
                             min_tokens=4, max_tokens=400), seed=seed)


def _config(**kwargs):
    return ServingConfig(**{"max_batch": 6, "queue_timeout_s": 0.4,
                            "max_preemptions": 3, **kwargs})


def _serve(topology, scheduler, kv, seed, trace, gauges):
    """Run one cell; returns its result."""
    common = dict(allocator="caching", scheduler=scheduler,
                  kv_cache=KV_CACHES[kv])
    tight = MODEL.weight_bytes + 100 * MB
    if topology == "single":
        return run_serving(_stream(seed), MODEL, capacity=tight,
                           config=_config(), **common)
    if topology == "straggler":
        return run_serving(
            _stream(seed), MODEL, capacity=tight, config=_config(),
            faults=f"straggler?slowdown=3&prob=0.3&seed={seed}", **common)
    if topology == "observed":
        return run_serving(_stream(seed), MODEL, capacity=tight,
                           config=_config(), trace=trace, gauges=gauges,
                           **common)
    if topology == "crash-tiers-fleet":
        # Crashes every ~0.1 s against long decodes: crash hand-offs
        # land on a peer in the middle of its quiet runs.
        return run_serving_cluster(
            _stream(seed, n=10, rate=30.0, mean_output=96), MODEL,
            n_replicas=2, capacity=tight + 20 * MB, config=_config(),
            trace=trace, gauges=gauges,
            faults=f"replica-crash?mtbf_s=0.1&mttr_s=0.03&seed={seed}",
            retry="budget?max=2&backoff_s=0.02", memory_tiers=TIERS,
            **common)
    if topology == "hedged-fleet":
        return run_serving_cluster(
            _stream(seed, n=10), MODEL, n_replicas=2, capacity=tight,
            config=_config(), retry="hedge?after_s=0.05", **common)
    if topology == "disagg":
        return run_serving_disagg(
            _stream(seed), MODEL, prefill_replicas=1, decode_replicas=1,
            capacity=tight, config=_config(), **common)
    # One pick per replica, GMLake's transient and the VMM sequences.
    assert topology == "gmlake-fleet"
    return run_serving_cluster(
        _stream(seed, n=10), MODEL, n_replicas=2, capacity=tight + 100 * MB,
        config=_config(), faults=f"straggler?slowdown=3&prob=0.3&seed={seed}",
        retry="budget?max=2", **{**common, "allocator": "gmlake"})


TOPOLOGIES = ("single", "straggler", "observed", "crash-tiers-fleet",
              "hedged-fleet", "disagg", "gmlake-fleet")


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("kv", sorted(KV_CACHES))
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@settings(max_examples=max(1, settings().max_examples // 100))
@given(seed=st.integers(0, 2 ** 16))
def test_quiet_runs_equal_one_step_ticks(scheduler, kv, topology, seed):
    """The shipped run equals the run with every registered slow
    definition swapped in.  The quiet run is one of them, so the
    reference ticks one step at a time: it ticks more often, except in
    the hedged fleet, which has no quiet runs."""
    cell = functools.partial(_serve, topology, scheduler, kv, seed)
    fast = observe(cell)
    slow = observe(cell, slow=GROUPS)
    assert fast.seen == slow.seen
    if topology == "hedged-fleet":
        assert fast.ticks == slow.ticks  # hedging allows no lookahead
    else:
        assert fast.ticks < slow.ticks  # not vacuous: quiet runs ran


def test_every_entry_replaces_a_shipped_attribute():
    for group, entries in REFERENCE.items():
        assert entries, group
        for owner, name, slow in entries:
            assert hasattr(owner, name), (group, owner, name)
            assert getattr(owner, name) is not slow, (group, owner, name)


def test_every_group_fires_in_the_shipped_runs():
    """A fast path no shipped run calls would turn the twin into
    shipped-vs-shipped for its group.  The twin's cells at seed 0 (its
    first example), as shipped, until every group has fired."""
    hits = Counter()
    for scheduler, kv, topology in itertools.product(
            SCHEDULERS, sorted(KV_CACHES), TOPOLOGIES):
        hits.update(observe(functools.partial(
            _serve, topology, scheduler, kv, 0)).hits)
        if all(hits[group] for group in GROUPS):
            return
    pytest.fail(f"no shipped cell runs {set(GROUPS) - set(hits)}")


def test_a_request_in_flight_back_times_out_when_it_lands():
    """Request 6 fails over back to replica 1, which still holds its
    timeout entry from an earlier stay, and its deadline passes while it
    is in flight.  The stale entry is skipped: the request times out
    once, when it lands, not before its deadline."""
    result = _serve("crash-tiers-fleet", "fcfs", "paged", 2, None, None)
    assert sorted(r.req_id for r in result.requests) == list(range(10))
    (request,) = [r for r in result.requests if r.req_id == 6]
    assert request.reject_reason == "timeout"
    assert request.rejected_s >= request.arrival_s + _config().queue_timeout_s


def test_a_failed_over_wfq_selection_leaves_its_replica_alone():
    """Replica 1's wfq selected request 1, which a crash then failed
    over to replica 0.  Replica 1 does not read what replica 0 made of
    it, so running ahead keeps the one-tick-per-pick schedule."""
    cell = functools.partial(_serve, "crash-tiers-fleet", "wfq", "chunked",
                             2991)
    assert observe(cell).seen == observe(cell, slow=("fleet-loop",)).seen


def _calls(output_tokens, trace=None, slow=()):
    """Serve four requests that arrive together on one GMLake replica
    whose 512-token chunks never grow (after admission, one quiet run
    to the last step), with the groups ``slow`` swapped in; returns how
    often ``malloc_free``, ``transient_repeat`` and ``_decode_step``
    ran."""
    counts = Counter()
    requests = [ServeRequest(req_id=i, arrival_s=0.0, prompt_tokens=64,
                             output_tokens=output_tokens) for i in range(4)]
    with reference(*slow) if slow else contextlib.nullcontext(), \
            pytest.MonkeyPatch.context() as patch:
        for owner, name in ((GMLakeAllocator, "malloc_free"),
                            (GMLakeAllocator, "transient_repeat"),
                            (ServingSimulator, "_decode_step")):
            def counting(*args, _called=getattr(owner, name), _name=name):
                counts[_name] += 1
                return _called(*args)
            patch.setattr(owner, name, counting)
        run_serving(requests, MODEL, allocator="gmlake",
                    kv_cache="chunked?chunk_tokens=512",
                    config=_config(), trace=trace)
    return counts


class TestQuietRunWorkspaceCalls:
    """A quiet run asks the allocator whether its workspace hit repeats;
    unobserved, it then makes no workspace call at all, and traced, it
    makes one at each hook the trace samples."""

    def test_one_workspace_call_per_full_step(self):
        short, long = _calls(40), _calls(160)
        assert short["malloc_free"] == short["_decode_step"]
        assert long == short  # the quiet run's length costs no call
        # Made every step, as before, the workspace calls grow with it.
        slow = _calls(160, slow=("transient-repeats",))
        assert slow["_decode_step"] == long["_decode_step"]
        assert slow["malloc_free"] >= long["malloc_free"] + 120

    def test_an_observed_run_calls_every_step_and_traces_the_same(self):
        traces, counts = [], []
        for slow in ((), ("transient-repeats",)):
            trace = TraceRecorder(memory_every=1)
            counts.append(_calls(160, trace=trace, slow=slow))
            traces.append(json.dumps(trace.chrome_trace()))
        assert counts[0] == counts[1]
        assert counts[0]["malloc_free"] >= counts[0]["_decode_step"] + 120
        assert traces[0] == traces[1]

    @pytest.mark.parametrize("every", [1, 3, 5, 64])
    def test_a_traced_run_samples_what_every_call_samples(self, every):
        """The trace equals the one whose quiet runs call ``malloc_free``
        every step.  At an odd stride samples land on ``on_alloc``
        hooks too, where ``active_mb`` includes the workspace."""
        traces = []
        for slow in ((), ("observed-repeats",)):
            trace = TraceRecorder(memory_every=every)
            _calls(160, trace=trace, slow=slow)
            traces.append(trace.chrome_trace()["traceEvents"])
        assert json.dumps(traces[0]) == json.dumps(traces[1])
        samples = [e for e in traces[0] if e["name"] == "memory (MB)"]
        assert len(samples) > 160 // every  # not vacuous

    @pytest.mark.parametrize("every, calls", [(3, 104), (5, 63), (64, 5)])
    def test_a_traced_run_asks_again_after_every_call(self, every, calls):
        """Of 156 quiet steps, a step whose trace ignores fewer than two
        hooks makes its call and asks again (an answer of zero pairs),
        so an odd stride still repeats between its samples: every
        step would make 156 calls, a stride of 3 makes 104."""
        traced = _calls(160, trace=TraceRecorder(memory_every=every))
        assert traced["malloc_free"] - traced["_decode_step"] == calls

    @pytest.mark.parametrize("every", [1, 2])
    def test_a_trace_that_samples_every_pair_is_asked_once(self, every):
        """A stride of 1 or 2 never leaves a pair of hooks unsampled,
        so the allocator answers ``None`` once and every step makes
        its call, with no question before each."""
        traced = _calls(160, trace=TraceRecorder(memory_every=every))
        assert traced["malloc_free"] - traced["_decode_step"] == 156
        assert traced["transient_repeat"] == 1

    def test_a_traced_run_calls_once_per_sample(self):
        """At the default stride of 64 a trace samples one hook in 64,
        so a quiet run calls ``malloc_free`` once in 32 steps, plus one
        for where between two samples the run starts."""
        every_step = _calls(160, slow=("transient-repeats",))
        steps = every_step["malloc_free"] - every_step["_decode_step"]
        traced = _calls(160, trace=TraceRecorder(memory_every=64))
        assert traced["_decode_step"] == every_step["_decode_step"]
        calls = traced["malloc_free"] - traced["_decode_step"]
        assert 0 < calls <= math.ceil(steps / 32) + 1
