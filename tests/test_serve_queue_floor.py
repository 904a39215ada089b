"""Tests for the queue floor: a declined memory-aware admission decides
without scanning the queue.

Three layers:

- the KV models' ``projected_floor``: a lower bound of
  ``projected_bytes`` for every registered model, unchanged while the
  prefix trie grows and is evicted;
- an oracle: ``MemoryAwareScheduler.select`` given any floor that
  bounds the queue returns the same object as the scan-only select it
  replaced (kept verbatim as ``reference.ScanOnlyMemoryAware``);
- serving-level twins: a run with the registry's queue-floor group
  swapped in (a floor of 0, so every select scans) equals the fast run
  on everything ``reference.observe`` records, on one replica under
  each KV model, a crash-faulted tiered fleet and a disaggregated run.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import ScanOnlyMemoryAware, observe
from repro.api import component_names, resolve
from repro.serve import (
    LengthSampler,
    MemoryAwareScheduler,
    MultiTenantArrivals,
    PoissonArrivals,
    SchedulerView,
    ServingConfig,
    run_serving,
    run_serving_cluster,
    run_serving_disagg,
)
from repro.serve.request import ServeRequest
from repro.units import GB, MB
from repro.workloads import get_model
from tests.test_serve_prefix import (
    BLOCK_BYTES,
    harness,
    prefix_request,
    reset_shared,
)

MODEL = get_model("opt-1.3b")
KV_NAMES = component_names("kv-cache")
PREFIX_GROUPS = 3


@dataclass
class FixedHeadroomView(SchedulerView):
    """A view whose headroom is drawn, not read off an allocator."""

    headroom: float = 0

    def headroom_bytes(self, pool_reuse: float = 0.5) -> float:
        return self.headroom


def shared_kv_with_trie(depths):
    """A ``paged-shared`` model whose trie holds ``depths[g]`` resident
    blocks for prefix ``p{g}``.  ``projected_bytes`` reads only the
    trie's paths, so the model needs no allocator."""
    kv = resolve("kv-cache", "paged-shared", MODEL)
    for group, depth in enumerate(depths):
        for i in range(depth):
            kv.trie.extend(f"p{group}", f"x{group}.{i}")
    return kv


REQUEST = st.tuples(
    st.integers(1, 4096),                 # prompt
    st.integers(1, 2048),                 # output
    st.integers(0, 2047),                 # tokens done (clamped < output)
    st.integers(0, PREFIX_GROUPS),        # prefix group (0 = none)
    st.integers(0, 4096),                 # declared prefix tokens
)


def make_request(req_id, prompt, output, done, group, prefix):
    return ServeRequest(
        req_id=req_id, arrival_s=0.0, prompt_tokens=prompt,
        output_tokens=output, tokens_done=min(done, output - 1),
        prefix_id=f"p{group - 1}" if group else None,
        prefix_tokens=prefix if group else 0)


class TestProjectedFloor:
    @settings(max_examples=60)
    @given(shapes=st.lists(REQUEST, min_size=1, max_size=8),
           depths=st.lists(st.integers(0, 300), min_size=PREFIX_GROUPS,
                           max_size=PREFIX_GROUPS))
    def test_floor_bounds_projection_for_every_kv_model(self, shapes, depths):
        queue = [make_request(i, *shape) for i, shape in enumerate(shapes)]
        for name in KV_NAMES:
            kv = (shared_kv_with_trie(depths) if name == "paged-shared"
                  else resolve("kv-cache", name, MODEL))
            for request in queue:
                assert 0 <= kv.projected_floor(request) \
                    <= kv.projected_bytes(request), name

    def test_floor_is_the_projection_where_nothing_is_shared(self):
        request = make_request(0, 700, 300, 0, 1, 512)
        for name in ("chunked", "paged"):
            kv = resolve("kv-cache", name, MODEL)
            assert kv.projected_floor(request) == kv.projected_bytes(request)

    def test_shared_floor_is_the_projection_with_the_whole_head_resident(
            self):
        request = make_request(0, 700, 300, 0, 1, 512)  # 32 sharable blocks
        assert (shared_kv_with_trie([32, 0, 0]).projected_bytes(request)
                == shared_kv_with_trie([0, 0, 0]).projected_floor(request))

    TRIE_STEP = st.one_of(
        st.tuples(st.just("admit"), st.integers(0, PREFIX_GROUPS - 1),
                  st.integers(1, 120), st.integers(1, 200)),
        st.tuples(st.just("release"), st.integers(0, 10 ** 6),
                  st.just(0), st.just(0)),
        st.tuples(st.just("evict"), st.integers(1, 40),
                  st.just(0), st.just(0)),
        st.tuples(st.just("reset_shared"), st.just(0), st.just(0),
                  st.just(0)),
    )

    @settings(max_examples=40)
    @given(steps=st.lists(TRIE_STEP, min_size=1, max_size=30))
    def test_shared_floor_is_unchanged_across_trie_extends_and_evictions(
            self, steps):
        """Real admissions extend the trie and real pressure evicts it:
        every waiting request's floor stays put and stays a bound."""
        kv, _ = harness(capacity_blocks=64)
        probes = [prefix_request(1000 + g, f"p{g}", 16 * (g + 2) + 5,
                                 prompt=96 + 16 * g, output=40)
                  for g in range(PREFIX_GROUPS)]
        probes.append(prefix_request(1010, prompt=50, output=20))
        floors = [kv.projected_floor(r) for r in probes]
        live = []
        for i, (op, a, b, c) in enumerate(steps):
            if op == "admit":
                request = prefix_request(i, f"p{a}", b, prompt=c, output=8)
                if kv.admit(request):
                    live.append(request)
            elif op == "release" and live:
                kv.release(live.pop(a % len(live)))
            elif op == "evict":
                kv._evict_idle(a * BLOCK_BYTES)
            elif op == "reset_shared":
                reset_shared(kv)
            assert [kv.projected_floor(r) for r in probes] == floors
            for request in probes:
                assert kv.projected_floor(request) \
                    <= kv.projected_bytes(request)


class TestSelectOracle:
    @settings(max_examples=200)
    @given(data=st.data(),
           shapes=st.lists(REQUEST, min_size=1, max_size=12),
           depths=st.lists(st.integers(0, 300), min_size=PREFIX_GROUPS,
                           max_size=PREFIX_GROUPS),
           name=st.sampled_from(KV_NAMES),
           margin=st.one_of(st.sampled_from([1.0, 1.25, 1.5, 2.0]),
                            st.floats(1.0, 8.0)))
    def test_fast_select_returns_the_scan_s_object(
            self, data, shapes, depths, name, margin):
        queue = [make_request(i, *shape) for i, shape in enumerate(shapes)]
        kv = (shared_kv_with_trie(depths) if name == "paged-shared"
              else resolve("kv-cache", name, MODEL))
        floor = min(kv.projected_floor(r) for r in queue)
        # A stale heap entry can only lower what the replica reports.
        stale = data.draw(st.one_of(st.just(0), st.integers(0, floor)))
        # Exact ties with the floor and with each footprint are drawn
        # on purpose: they separate `>` from `>=`.
        projections = [kv.projected_bytes(r) * margin for r in queue]
        headroom = data.draw(st.one_of(
            st.integers(0, 8 * GB),
            st.sampled_from([floor * margin, *projections]),
        ))
        view = FixedHeadroomView(
            allocator=None, capacity=8 * GB, kv=kv,
            queue_floor_bytes=floor - stale, headroom=headroom)
        expected = ScanOnlyMemoryAware(margin).select(queue, view)
        assert MemoryAwareScheduler(margin).select(queue, view) is expected

    def test_a_floor_over_headroom_declines_without_projecting(self):
        kv = resolve("kv-cache", "paged", MODEL)
        queue = [make_request(i, 512, 256, 0, 0, 0) for i in range(4)]
        floor = kv.projected_floor(queue[0])
        view = FixedHeadroomView(
            allocator=None, capacity=8 * GB, kv=kv,
            queue_floor_bytes=floor, headroom=floor * 1.25 - 1)
        calls = []
        view.projected_kv_bytes = lambda r: calls.append(r) or 0
        assert MemoryAwareScheduler(1.25).select(queue, view) is None
        assert calls == []


def _stream(n, rate, seed, mean_prompt=512, mean_output=256):
    return PoissonArrivals(rate_per_s=rate).generate(
        n, LengthSampler(mean_prompt=mean_prompt, mean_output=mean_output),
        seed=seed)


def _config(**kwargs):
    return ServingConfig(**{"max_batch": 16, "queue_timeout_s": 20.0,
                            **kwargs})


#: Each scenario runs memory-aware under pressure: the fast path
#: declines, and replicas preempt (so requeued requests must re-enter
#: the floor heap).
TWIN_SCENARIOS = {
    "chunked": lambda trace, gauges: run_serving(
        _stream(120, 10.0, 1), MODEL, allocator="gmlake",
        capacity=MODEL.weight_bytes + 1200 * MB,
        scheduler="memory-aware", kv_cache="chunked", config=_config()),
    "paged": lambda trace, gauges: run_serving(
        _stream(40, 12.0, 2), MODEL, allocator="caching",
        capacity=MODEL.weight_bytes + 900 * MB,
        scheduler="memory-aware?margin=1", kv_cache="paged?block_tokens=16",
        config=_config()),
    "paged-shared": lambda trace, gauges: run_serving(
        MultiTenantArrivals(tenants=4, rate_per_s=14.0,
                            shared_prefix_tokens=250).generate(40, seed=3),
        MODEL, allocator="caching", capacity=MODEL.weight_bytes + 900 * MB,
        scheduler="memory-aware", kv_cache="paged-shared?block_tokens=16",
        config=_config()),
    "crash-tiers-fleet": lambda trace, gauges: run_serving_cluster(
        _stream(100, 24.0, 4), MODEL, n_replicas=3, allocator="caching",
        capacity=MODEL.weight_bytes + 900 * MB,
        scheduler="memory-aware", kv_cache="paged?block_tokens=16",
        config=_config(max_batch=32),
        faults="replica-crash?mtbf_s=4&mttr_s=1", retry="budget?max=3",
        memory_tiers="dram?gb=0.2,cxl?gb=16&gb_per_s=40&latency_us=1"),
    "disagg": lambda trace, gauges: run_serving_disagg(
        _stream(60, 12.0, 5, mean_prompt=1500, mean_output=600), MODEL,
        prefill_replicas=1, decode_replicas=2, allocator="caching",
        capacity=MODEL.weight_bytes + 1000 * MB,
        scheduler="memory-aware", kv_cache="chunked",
        config=_config(max_batch=8)),
}


class TestServingTwin:
    """With the queue-floor group swapped in (a floor of 0 and the
    scan-only select) every select scans, as before the floor existed;
    the fast path must not change one bit of the run."""

    @pytest.mark.parametrize("scenario", sorted(TWIN_SCENARIOS))
    def test_fast_run_equals_the_scan_only_run(self, scenario, monkeypatch):
        projected = []
        project = SchedulerView.projected_kv_bytes
        monkeypatch.setattr(SchedulerView, "projected_kv_bytes",
                            lambda view, r: projected.append(r)
                            or project(view, r))
        fast = observe(TWIN_SCENARIOS[scenario])
        fast_projected = len(projected)
        scan = observe(TWIN_SCENARIOS[scenario], slow=("queue-floor",))
        assert fast.seen == scan.seen
        # Not vacuous: the floor declined selects the scan walked, and
        # some replica requeued a preempted request.
        assert fast_projected < len(projected) - fast_projected
        assert fast.result.preemptions > 0
