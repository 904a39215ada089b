"""Tests for admission scheduling policies and the allocator loop."""

import pytest

from repro.api import (
    ComponentSpec,
    component_names,
    resolve,
    resolve_allocator,
)
from repro.gpu.device import GpuDevice
from repro.serve import (
    FcfsScheduler,
    MemoryAwareScheduler,
    SchedulerView,
    ShortestPromptScheduler,
    WeightedFairScheduler,
    parse_tenant_weights,
)
from repro.serve.request import RequestState, ServeRequest
from repro.units import GB
from repro.workloads import get_model
from repro.workloads.inference import kv_bytes


def request(req_id, prompt=256, output=128, arrival=0.0):
    return ServeRequest(req_id=req_id, arrival_s=arrival,
                        prompt_tokens=prompt, output_tokens=output)


def view_on(capacity=4 * GB, model="opt-1.3b", kv_cache="chunked"):
    device = GpuDevice(capacity=capacity)
    allocator = resolve_allocator("caching", device)
    spec = get_model(model)
    kv = resolve("kv-cache", kv_cache, spec)
    return SchedulerView(
        allocator=allocator, model=spec, running=0,
        max_batch=16, capacity=capacity, kv=kv,
    ), allocator


class TestResolve:
    def test_known_names(self):
        for name in component_names("scheduler", include_aliases=True):
            assert resolve("scheduler", name).name in (
                "fcfs", "shortest-prompt", "memory-aware", "wfq")

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            resolve("scheduler", "priority-lottery")

    def test_passthrough(self):
        scheduler = FcfsScheduler()
        assert resolve("scheduler", scheduler) is scheduler

    def test_spec_carries_params(self):
        scheduler = resolve("scheduler", "memory-aware?margin=1.75")
        assert isinstance(scheduler, MemoryAwareScheduler)
        assert scheduler.margin == 1.75

    def test_bad_margin_fails_at_parse_time(self):
        from repro.api import SpecError

        with pytest.raises(SpecError, match="margin"):
            ComponentSpec.parse("memory-aware?margin=0.5", "scheduler")


class TestFcfs:
    def test_takes_queue_head(self):
        view, _ = view_on()
        queue = [request(3), request(1), request(2)]
        assert FcfsScheduler().select(queue, view) is queue[0]

    def test_empty_queue(self):
        view, _ = view_on()
        assert FcfsScheduler().select([], view) is None


class TestShortestPrompt:
    def test_prefers_smallest_context(self):
        view, _ = view_on()
        queue = [request(0, prompt=1024), request(1, prompt=64),
                 request(2, prompt=512)]
        assert ShortestPromptScheduler().select(queue, view).req_id == 1

    def test_counts_generated_tokens(self):
        """A preempted request's context includes its decoded tokens."""
        view, _ = view_on()
        fresh = request(0, prompt=256)
        resumed = request(1, prompt=128)
        resumed.tokens_done = 512
        assert ShortestPromptScheduler().select(
            [fresh, resumed], view) is fresh

    def test_tie_break_by_id(self):
        view, _ = view_on()
        queue = [request(5, prompt=256), request(2, prompt=256)]
        assert ShortestPromptScheduler().select(queue, view).req_id == 2


class TestMemoryAware:
    def test_admits_when_empty(self):
        view, _ = view_on()
        assert MemoryAwareScheduler().select([request(0)], view) is not None

    def test_declines_when_active_fills_device(self):
        view, allocator = view_on(capacity=4 * GB)
        allocator.malloc(int(3.8 * GB))  # nearly everything is active
        big = request(0, prompt=1024, output=1024)
        assert MemoryAwareScheduler().select([big], view) is None

    def test_skips_to_fitting_request(self):
        view, allocator = view_on(capacity=4 * GB)
        allocator.malloc(int(3.2 * GB))
        big = request(0, prompt=2048, output=2048)     # ~850 MB projected
        small = request(1, prompt=64, output=32)       # one 50 MB chunk
        assert MemoryAwareScheduler().select([big, small], view) is small

    def test_fragmented_pool_shrinks_headroom(self):
        """Reserved-but-inactive memory only half-counts: a shredded
        pool admits less than a clean one at the same active bytes."""
        clean, _ = view_on(capacity=4 * GB)
        shredded, allocator = view_on(capacity=4 * GB)
        hoard = allocator.malloc(3 * GB)
        allocator.free(hoard)  # reserved stays ~3 GB, active 0
        assert shredded.headroom_bytes() < clean.headroom_bytes()

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            MemoryAwareScheduler(margin=0.5)


class TestSchedulerView:
    def test_projected_kv_is_chunk_rounded(self):
        view, _ = view_on()
        model = get_model("opt-1.3b")
        tiny = request(0, prompt=17, output=1)
        assert view.projected_kv_bytes(tiny) == kv_bytes(model, 256)
        exact = request(1, prompt=200, output=56)
        assert view.projected_kv_bytes(exact) == kv_bytes(model, 256)
        over = request(2, prompt=200, output=57)
        assert view.projected_kv_bytes(over) == kv_bytes(model, 512)

    def test_paged_projection_counts_whole_blocks(self):
        view, _ = view_on(kv_cache="paged?block_tokens=16")
        model = get_model("opt-1.3b")
        tiny = request(0, prompt=17, output=1)      # 18 tokens -> 2 blocks
        assert view.projected_kv_bytes(tiny) == kv_bytes(model, 32)
        exact = request(1, prompt=200, output=56)   # 256 -> 16 blocks
        assert view.projected_kv_bytes(exact) == kv_bytes(model, 256)

    def test_paged_headroom_is_block_quantized_and_fully_reuses_pool(self):
        """Idle pool memory counts in full under paged KV (exact-fit
        blocks), where chunked KV discounts it — the admission-side
        face of cache-level defragmentation."""
        paged, allocator = view_on(kv_cache="paged?block_tokens=16")
        chunked, chunked_alloc = view_on()
        for alloc in (allocator, chunked_alloc):
            hoard = alloc.malloc(3 * GB)
            alloc.free(hoard)  # reserved stays ~3 GB, active 0
        assert paged.headroom_bytes() % paged.kv.block_bytes == 0
        assert paged.headroom_bytes() > chunked.headroom_bytes()
        free = paged.kv.free_blocks(allocator.stats(), paged.capacity)
        assert free * paged.kv.block_bytes == paged.headroom_bytes()


def tenant_request(req_id, tenant, prompt=256, output=128, arrival=0.0):
    return ServeRequest(req_id=req_id, arrival_s=arrival,
                        prompt_tokens=prompt, output_tokens=output,
                        tenant=tenant)


def _drain(scheduler, queue, view, rounds):
    """Run the select/admit loop ``rounds`` times, admitting every
    selection (state -> RUNNING), and return the tenant order."""
    order = []
    for _ in range(rounds):
        request = scheduler.select(queue, view)
        if request is None:
            break
        request.state = RequestState.RUNNING
        queue.remove(request)
        order.append(request.tenant)
    return order


class TestParseTenantWeights:
    def test_pairs(self):
        assert parse_tenant_weights("t0:2,t1:1") == {"t0": 2.0, "t1": 1.0}

    def test_bare_positional(self):
        assert parse_tenant_weights("2,1") == {"t0": 2.0, "t1": 1.0}

    def test_empty(self):
        assert parse_tenant_weights("") == {}

    def test_identical_duplicate_collapses(self):
        assert parse_tenant_weights("t0:2,t0:2") == {"t0": 2.0}

    def test_conflicting_duplicate_rejected(self):
        from repro.api import SpecError

        with pytest.raises(SpecError, match="conflicting"):
            parse_tenant_weights("t0:2,t0:3")

    def test_non_numeric_rejected(self):
        from repro.api import SpecError

        with pytest.raises(SpecError, match="must be a number"):
            parse_tenant_weights("t0:lots")

    def test_non_positive_rejected(self):
        from repro.api import SpecError

        with pytest.raises(SpecError, match="positive"):
            parse_tenant_weights("t0:0")

    def test_spec_roundtrip(self):
        scheduler = resolve("scheduler", "wfq?weights=t0:2,t1:1")
        assert isinstance(scheduler, WeightedFairScheduler)
        assert scheduler.weights == {"t0": 2.0, "t1": 1.0}


class TestWeightedFair:
    def test_equal_weights_alternate(self):
        view, _ = view_on()
        queue = ([tenant_request(i, "a") for i in range(4)]
                 + [tenant_request(10 + i, "b") for i in range(4)])
        order = _drain(WeightedFairScheduler(), queue, view, 8)
        assert order == ["a", "b", "a", "b", "a", "b", "a", "b"]

    def test_two_to_one_service_ratio(self):
        view, _ = view_on()
        queue = ([tenant_request(i, "a") for i in range(30)]
                 + [tenant_request(100 + i, "b") for i in range(30)])
        order = _drain(
            WeightedFairScheduler(weights="a:2,b:1"), queue, view, 30)
        assert order.count("a") == 20
        assert order.count("b") == 10

    def test_weight_scaling_gives_identical_schedule(self):
        """Only weight *ratios* matter: 4:2 schedules exactly like 2:1."""
        orders = []
        for weights in ("a:2,b:1", "a:4,b:2"):
            view, _ = view_on()
            queue = ([tenant_request(i, "a") for i in range(30)]
                     + [tenant_request(100 + i, "b") for i in range(30)])
            orders.append(_drain(
                WeightedFairScheduler(weights=weights), queue, view, 60))
        assert orders[0] == orders[1]

    def test_failed_admission_costs_nothing(self):
        """A selection bounced by the allocator (state never leaves
        QUEUED) is not charged to its tenant's virtual time."""
        view, _ = view_on()
        scheduler = WeightedFairScheduler()
        queue = [tenant_request(0, "a"), tenant_request(1, "b")]
        first = scheduler.select(queue, view)
        assert first.tenant == "a"        # vtime tie -> req_id order
        # Admission failed: the simulator requeues it still QUEUED.
        again = scheduler.select(queue, view)
        assert again is first             # uncharged, "a" still cheapest
        assert scheduler._vtime.get("a", 0.0) == 0.0

    def test_new_tenant_joins_at_current_floor(self):
        """A tenant first seen mid-run gets no banked credit for the
        time before it existed."""
        view, _ = view_on()
        scheduler = WeightedFairScheduler()
        queue = [tenant_request(i, "a") for i in range(6)]
        _drain(scheduler, queue, view, 4)
        assert scheduler._vtime["a"] > 0.0
        queue.append(tenant_request(100, "b"))
        scheduler.select(queue, view)
        assert scheduler._vtime["b"] == scheduler._vtime["a"]

    def test_fcfs_within_tenant(self):
        view, _ = view_on()
        queue = [tenant_request(3, "a", arrival=0.3),
                 tenant_request(1, "a", arrival=0.1),
                 tenant_request(2, "a", arrival=0.2)]
        order = []
        scheduler = WeightedFairScheduler()
        for _ in range(3):
            request = scheduler.select(queue, view)
            request.state = RequestState.RUNNING
            queue.remove(request)
            order.append(request.req_id)
        assert order == [3, 1, 2]         # queue order, never reshuffled


class TestWfqFairnessEndToEnd:
    """Fleet-level fairness: the scheduler inside the real simulator."""

    MODEL = "opt-1.3b"

    @staticmethod
    def _stream(per_tenant, weights_tenants=("a", "b"), stagger_s=0.0):
        requests = []
        for k, tenant in enumerate(weights_tenants):
            for i in range(per_tenant):
                requests.append(ServeRequest(
                    req_id=k * 1000 + i,
                    arrival_s=k * stagger_s,
                    prompt_tokens=256, output_tokens=128,
                    tenant=tenant))
        return requests

    def _run(self, scheduler, requests, timeout_s=60.0, max_batch=4):
        from repro.serve import ServingConfig, run_serving

        return run_serving(
            requests, self.MODEL, allocator="caching", capacity=8 * GB,
            scheduler=scheduler, kv_cache="paged?block_tokens=16",
            config=ServingConfig(max_batch=max_batch,
                                 queue_timeout_s=timeout_s))

    def test_saturated_2to1_weights_give_2to1_goodput(self):
        """Under saturation (a timeout rejects the excess), completed
        token share lands within tolerance of the 2:1 weights."""
        result = self._run("wfq?weights=a:2,b:1",
                           self._stream(per_tenant=40), timeout_s=2.0)
        tokens = {"a": 0, "b": 0}
        for request in result.requests:
            if request.finished:
                tokens[request.tenant] += request.tokens_done
        assert result.report().rejected > 0   # genuinely saturated
        assert tokens["b"] > 0
        ratio = tokens["a"] / tokens["b"]
        assert 1.6 <= ratio <= 2.5

    def test_wfq_bounds_late_tenant_ttft_vs_fcfs(self):
        """Tenant b arrives behind tenant a's 40-request flood: FCFS
        makes b wait out the whole backlog, WFQ interleaves it."""
        from repro.serve import percentile

        def p99_ttft(scheduler):
            stream = self._stream(per_tenant=40, stagger_s=0.5)
            stream = [r for r in stream if r.tenant == "a"] + \
                     [r for r in stream if r.tenant == "b"][:5]
            result = self._run(scheduler, stream, max_batch=2)
            waits = [r.ttft_s for r in result.requests
                     if r.tenant == "b" and r.finished]
            assert len(waits) == 5
            return percentile(waits, 99.0)

        assert p99_ttft("wfq") < p99_ttft("fcfs")
