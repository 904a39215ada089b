"""Twin tests for the quiet run: a tick that decodes many steps.

After a quiet decode step (nothing finished, grew or was preempted,
admission settled, the allocator's reserved/active bytes unmoved) a
tick goes on decoding until the next event (see
``ServingSimulator._quiet_run``).  The slow replacement below patches
that loop out, which leaves the one-step-per-tick loop it replaced.
Every scenario runs both ways and must agree exactly: every request's
fields; each replica's allocator stats, final clock and KV metrics;
the memory timeline, the gauge points and the trace events.

The matrix is every scheduler x {chunked, paged, paged-shared} x six
topologies: one replica, a straggler, a traced replica with gauges
and a timeline, a crash-faulted tiered 2-replica fleet (co-simulated
with the crash-window lookahead), a hedged fleet (no lookahead) and a
1P+1D disaggregated run.  Hypothesis draws each cell's seed: one
example under the default profile (its simplest, seed 0, comes first)
and four under the nightly one.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import component_names
from repro.obs import GaugeSampler, TraceRecorder
from repro.serve import (
    LengthSampler,
    MultiTenantArrivals,
    ServingConfig,
    ServingSimulator,
    run_serving,
    run_serving_cluster,
    run_serving_disagg,
)
from repro.units import MB
from repro.workloads import get_model

MODEL = get_model("opt-1.3b")


def one_step_per_tick(self, running, until_s):
    """Slow replacement of ``ServingSimulator._quiet_run``: no quiet
    run, so every busy tick decodes exactly one step."""


#: (owner, attribute, slow replacement) pairs: patching each attribute
#: to its replacement gives the reference simulator.
REFERENCE = ((ServingSimulator, "_quiet_run", one_step_per_tick),)

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


def _serve(topology, scheduler, kv, seed):
    """Run one cell; returns (result, trace recorder, gauge sampler)."""
    trace, gauges = TraceRecorder(memory_every=16), GaugeSampler(every_s=0.1)
    common = dict(allocator="caching", scheduler=scheduler,
                  kv_cache=KV_CACHES[kv])
    tight = MODEL.weight_bytes + 100 * MB
    if topology == "single":
        result = run_serving(_stream(seed), MODEL, capacity=tight,
                             config=_config(), **common)
    elif topology == "straggler":
        result = run_serving(
            _stream(seed), MODEL, capacity=tight, config=_config(),
            faults=f"straggler?slowdown=3&prob=0.3&seed={seed}", **common)
    elif topology == "observed":
        result = run_serving(_stream(seed), MODEL, capacity=tight,
                             config=_config(record_timeline=True),
                             trace=trace, gauges=gauges, **common)
    elif topology == "crash-tiers-fleet":
        # Crashes every ~0.1 s against long decodes: crash hand-offs
        # land on a peer in the middle of its quiet runs.
        result = run_serving_cluster(
            _stream(seed, n=10, rate=30.0, mean_output=96), MODEL,
            n_replicas=2, capacity=tight + 20 * MB, config=_config(),
            trace=trace, gauges=gauges,
            faults=f"replica-crash?mtbf_s=0.1&mttr_s=0.03&seed={seed}",
            retry="budget?max=2&backoff_s=0.02", memory_tiers=TIERS,
            **common)
    elif topology == "hedged-fleet":
        result = run_serving_cluster(
            _stream(seed, n=10), MODEL, n_replicas=2, capacity=tight,
            config=_config(), retry="hedge?after_s=0.05", **common)
    else:
        assert topology == "disagg"
        result = run_serving_disagg(
            _stream(seed), MODEL, prefill_replicas=1, decode_replicas=1,
            capacity=tight, config=_config(), **common)
    return result, trace, gauges


TOPOLOGIES = ("single", "straggler", "observed", "crash-tiers-fleet",
              "hedged-fleet", "disagg")


def observe(topology, scheduler, kv, seed, reference):
    """Everything the twins must agree on, plus the tick count."""
    replicas, ticks = [], []
    finish, tick = ServingSimulator.finish, ServingSimulator.tick

    def recording_finish(sim):
        result = finish(sim)
        replicas.append((
            sim.replica_id, sim.allocator.stats(), sim.device.clock.now_us,
            dataclasses.replace(sim.kv.metrics),
            [dict(vars(r)) for r in result.requests],
            result.timeline, result.gauge_points))
        return result

    def counting_tick(sim, *args, **kwargs):
        ticks.append(sim.replica_id)
        return tick(sim, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ServingSimulator, "finish", recording_finish)
        patch.setattr(ServingSimulator, "tick", counting_tick)
        if reference:
            for owner, name, slow in REFERENCE:
                patch.setattr(owner, name, slow)
        try:
            result, trace, gauges = _serve(topology, scheduler, kv, seed)
        except ValueError as error:
            # A crash fleet can time out a request still in transit to
            # a replica it left earlier, and the queue discard raises;
            # the twins must then raise alike.
            return ("raised", str(error)), len(ticks)
    # A replica's own events keep their order; the fleet's recorder
    # interleaves replicas by tick, which a quiet run reorders.
    events = [(e.replica, e.t_s, e.kind, e.req_id, e.args)
              for e in sorted(trace.events, key=lambda e: (e.replica, e.seq))]
    observed = (
        [dict(vars(r)) for r in result.requests], replicas, events,
        list(gauges.points), trace.chrome_trace())
    return observed, len(ticks)


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("kv", sorted(KV_CACHES))
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@settings(max_examples=max(1, settings().max_examples // 100))
@given(seed=st.integers(0, 2 ** 16))
def test_quiet_runs_equal_one_step_ticks(scheduler, kv, topology, seed):
    fast, fast_ticks = observe(topology, scheduler, kv, seed, reference=False)
    slow, slow_ticks = observe(topology, scheduler, kv, seed, reference=True)
    assert fast == slow
    if topology == "hedged-fleet":
        assert fast_ticks == slow_ticks  # hedging allows no lookahead
    else:
        assert fast_ticks < slow_ticks  # not vacuous: quiet runs ran
