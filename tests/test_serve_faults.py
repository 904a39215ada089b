"""Fault-tolerant serving: fault models, retry policies, failover.

Four layers:

- unit tests for the ``faults`` / ``retry`` component registries and
  their mechanics (alias resolution, seeded crash windows, the
  ``DownCalendar`` the dispatcher consults, budget backoff, degraded
  interconnects);
- end-to-end fleet physics through ``run_serving_cluster``: crashes
  without retries fail requests permanently (``reject_reason="failed"``,
  availability < 1), a retry budget recovers them, and hedging beats
  plain backoff on p99 TTFT at identical seeds;
- observability: crash/recover/retry/hedge trace events, the chrome
  "down replicas" counter track, and ``GaugeSampler`` down points;
- a hypothesis ``RuleBasedStateMachine`` driving random inject/tick
  traffic over a crashing two-replica fleet with failover wired the
  way the cluster front-end wires it, asserting after every step that
  **every request is either terminal or resident on exactly one
  replica** and on drain that **no KV block leaks and no request is
  stranded** — the fault-tolerance analogue of the prefix-sharing
  ledger fuzz.
"""

import itertools

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.api import ComponentSpec, component_names, resolve
from repro.obs import GaugeSampler, TraceRecorder
from repro.obs.trace import validate_chrome_trace
from repro.serve import (
    BudgetRetry,
    HedgeRetry,
    LinkDegradeFaults,
    NoFaults,
    NoRetry,
    NvlinkInterconnect,
    PoissonArrivals,
    ReplicaCrashFaults,
    RequestState,
    ServeRequest,
    ServingSimulator,
    StragglerFaults,
    run_serving_cluster,
)
from repro.serve.cluster import DownCalendar
from repro.units import GB

CLUSTER = dict(
    n_replicas=3, allocator="caching", capacity=6 * GB,
    kv_cache="paged?block_tokens=16", scheduler="memory-aware",
)
CRASHY = "replica-crash?mtbf_s=15&mttr_s=5"


def stream(n=400, rate=20.0, seed=7):
    return PoissonArrivals(rate_per_s=rate).generate(n, seed=seed)


def run_fleet(faults="none", retry="none", n=400, **kwargs):
    return run_serving_cluster(stream(n=n), "opt-1.3b", faults=faults,
                               retry=retry, **CLUSTER, **kwargs)


class TestRegistries:
    def test_registered_names(self):
        assert set(component_names("faults")) == {
            "none", "replica-crash", "straggler", "link-degrade"}
        assert set(component_names("retry")) == {"none", "budget", "hedge"}

    def test_crash_alias(self):
        model = resolve("faults", "crash?mtbf_s=15&mttr_s=5")
        assert isinstance(model, ReplicaCrashFaults)
        assert model.mtbf_s == 15.0 and model.mttr_s == 5.0

    def test_degrade_alias(self):
        model = resolve("faults", "degrade?factor=8")
        assert isinstance(model, LinkDegradeFaults)
        assert model.factor == 8.0

    def test_resolvers_accept_strings_specs_and_instances(self):
        assert isinstance(resolve("faults", "none"), NoFaults)
        assert isinstance(resolve("faults", "straggler?prob=0.2"),
                          StragglerFaults)
        model = ReplicaCrashFaults(mtbf_s=9.0)
        assert resolve("faults", model) is model
        assert isinstance(resolve("retry", "none"), NoRetry)
        policy = HedgeRetry(after_s=1.0)
        assert resolve(
            "retry", ComponentSpec.parse("hedge?after_s=1", "retry")
        ).after_s == 1.0
        assert resolve("retry", policy) is policy


class TestCrashWindows:
    def test_windows_are_pure_in_seed_and_replica(self):
        model = ReplicaCrashFaults(mtbf_s=20.0, mttr_s=4.0, seed=11)
        first = list(itertools.islice(model.crash_windows(1), 6))
        again = list(itertools.islice(model.crash_windows(1), 6))
        other = list(itertools.islice(model.crash_windows(2), 6))
        assert first == again
        assert first != other

    def test_windows_are_ordered_and_disjoint(self):
        model = ReplicaCrashFaults(mtbf_s=10.0, mttr_s=3.0, seed=0)
        windows = list(itertools.islice(model.crash_windows(0), 20))
        last_end = 0.0
        for start_s, end_s in windows:
            assert start_s > last_end
            assert end_s > start_s
            last_end = end_s

    def test_down_calendar_answers_backwards_queries(self):
        model = ReplicaCrashFaults(mtbf_s=10.0, mttr_s=3.0, seed=0)
        (start_s, end_s) = next(model.crash_windows(0))
        calendar = DownCalendar(model, 1)
        mid = (start_s + end_s) / 2
        # Forward past the window, then back inside, then back before.
        assert not calendar.down_at(0, end_s + 1.0)
        assert calendar.down_at(0, mid)
        assert not calendar.down_at(0, start_s - 0.5)
        assert not calendar.down_at(0, end_s)       # recovery instant is up

    def test_no_faults_is_never_down(self):
        calendar = DownCalendar(NoFaults(), 2)
        assert not calendar.down_at(0, 1e9)
        assert not calendar.down_at(1, 0.0)


class TestBudgetRetry:
    def _request(self, req_id=0, retries=0):
        request = ServeRequest(req_id=req_id, arrival_s=0.0,
                               prompt_tokens=32, output_tokens=8)
        request.retries = retries
        return request

    def test_backoff_doubles_per_attempt(self):
        policy = BudgetRetry(max=4, backoff_s=0.5, jitter=0.0)
        delays = [policy.next_delay_s(self._request(retries=k))
                  for k in range(4)]
        assert delays == [0.5, 1.0, 2.0, 4.0]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = BudgetRetry(max=1, backoff_s=1.0, jitter=0.25, seed=3)
        d1 = policy.next_delay_s(self._request(req_id=7))
        d2 = policy.next_delay_s(self._request(req_id=7))
        other = policy.next_delay_s(self._request(req_id=8))
        assert d1 == d2
        assert d1 != other
        assert 1.0 <= d1 <= 1.25

    def test_budget_exhaustion_returns_none(self):
        policy = BudgetRetry(max=2, backoff_s=0.1)
        assert policy.next_delay_s(self._request(retries=1)) is not None
        assert policy.next_delay_s(self._request(retries=2)) is None

    def test_hedge_retries_immediately_and_arms_hedging(self):
        policy = HedgeRetry(after_s=1.5)
        assert policy.hedge_after_s == 1.5
        assert policy.next_delay_s(self._request()) == 0.0
        assert BudgetRetry().hedge_after_s is None
        assert NoRetry().next_delay_s(self._request()) is None


class TestDegradedInterconnect:
    def test_transfers_stretch_by_factor(self):
        inner = NvlinkInterconnect()
        wrapped = LinkDegradeFaults(factor=4.0).wrap_interconnect(inner)
        assert wrapped.name == "nvlink~degraded"
        assert wrapped.transfer_us(64 * 1024 * 1024, None) == pytest.approx(
            4.0 * inner.transfer_us(64 * 1024 * 1024, None))

    def test_other_models_leave_the_link_alone(self):
        inner = NvlinkInterconnect()
        assert NoFaults().wrap_interconnect(inner) is inner
        assert ReplicaCrashFaults().wrap_interconnect(inner) is inner


class TestClusterFaultTolerance:
    """End-to-end fleet physics at identical seeds."""

    def test_crashes_without_retries_fail_requests(self):
        result = run_fleet(faults=CRASHY, retry="none")
        report = result.report()
        assert report.failed > 0
        assert report.completed + report.rejected == 400
        assert report.availability < 1.0
        assert result.extras()["failed"] == report.failed
        failed = [r for replica in result.replicas for r in replica.requests
                  if r.reject_reason == "failed"]
        assert len(failed) == report.failed
        assert all(r.failed_s is not None for r in failed)

    def test_retry_budget_recovers_crash_victims(self):
        baseline = run_fleet(faults=CRASHY, retry="none")
        retried = run_fleet(faults=CRASHY, retry="budget?max=3")
        report = retried.report()
        assert report.failed == 0
        assert report.retries > 0
        assert report.availability == 1.0
        assert report.completed > baseline.report().completed

    def test_hedging_beats_backoff_on_tail_ttft(self):
        budget = run_fleet(faults=CRASHY, retry="budget?max=3")
        hedge = run_fleet(faults=CRASHY, retry="hedge?after_s=1")
        assert hedge.report().completed == budget.report().completed == 400
        assert hedge.report().p99_ttft_s < budget.report().p99_ttft_s

    def test_population_is_conserved_under_hedging(self):
        # Hedging clones requests; the merged population must still be
        # exactly one record per arrival, every one terminal.
        result = run_fleet(faults="straggler?slowdown=6&prob=0.2",
                           retry="hedge?after_s=0.5")
        population = [r for replica in result.replicas
                      for r in replica.requests]
        assert len(population) == 400
        assert len({r.req_id for r in population}) == 400
        assert all(r.state in (RequestState.FINISHED, RequestState.REJECTED)
                   for r in population)

    def test_hedge_clone_may_tie_its_original_in_one_timeout_heap(self):
        """benchmarks/perf README finding 2: on a loaded crash fleet a
        failed-over original lands on its hedge clone's replica, where
        both carry the same (deadline, req_id) — the timeout heap must
        order the tie itself, never compare the requests."""
        result = run_serving_cluster(
            stream(n=600, rate=32.0, seed=0), "opt-1.3b", n_replicas=4,
            allocator="caching", capacity=3 * GB,
            kv_cache="paged?block_tokens=16", scheduler="memory-aware",
            faults="replica-crash?mtbf_s=15&mttr_s=5",
            retry="hedge?after_s=1")
        assert sorted(r.req_id for r in result.requests) == list(range(600))
        assert all(r.finished or r.rejected for r in result.requests)

    def test_fault_none_paths_are_identical(self):
        plain = run_serving_cluster(stream(n=120), "opt-1.3b", **CLUSTER)
        gated = run_fleet(n=120)        # explicit faults="none"/"none"
        assert gated.report().summary() == plain.report().summary()
        assert [r.makespan_s for r in gated.replicas] == \
            [r.makespan_s for r in plain.replicas]


class TestFaultObservability:
    def test_trace_and_down_counter(self):
        trace = TraceRecorder()
        gauges = GaugeSampler(every_s=0.5)
        result = run_fleet(faults=CRASHY, retry="budget?max=3",
                           trace=trace, gauges=gauges)
        assert result.report().retries > 0
        kinds = {event.kind for event in trace.events}
        assert {"crash", "recover", "retry"} <= kinds
        data = trace.chrome_trace()
        assert validate_chrome_trace(data) > 0
        names = {event.get("name") for event in data["traceEvents"]}
        assert {"crash", "recover", "down replicas"} <= names
        downs = [event["args"]["down"] for event in data["traceEvents"]
                 if event.get("name") == "down replicas"]
        assert max(downs) >= 1 and downs[-1] == 0
        assert any(n > 0 for _, n in gauges.down_points)
        assert gauges.down_points[-1][1] == 0

    def test_hedge_events_name_source_and_target(self):
        trace = TraceRecorder()
        run_fleet(faults=CRASHY, retry="hedge?after_s=1", trace=trace)
        hedges = [e for e in trace.events if e.kind == "hedge"]
        assert hedges
        assert all(e.args["source"] != e.args["target"] for e in hedges)


class FaultFleetMachine(RuleBasedStateMachine):
    """Random inject/tick traffic over a crashing two-replica fleet.

    Failover is wired exactly the way ``_co_simulate`` wires it: each
    replica's ``_fault_sink`` re-dispatches crash victims to the
    least-loaded healthy peer per the shared ``DownCalendar``.  After
    every rule, each tracked request must be terminal or resident on
    exactly one replica; teardown drains the fleet and asserts zero
    leaked KV and zero stranded requests.
    """

    N_REPLICAS = 2

    def __init__(self):
        super().__init__()
        self.faults = ReplicaCrashFaults(mtbf_s=6.0, mttr_s=2.0, seed=3)
        self.retry = BudgetRetry(max=2, backoff_s=0.05, jitter=0.1)
        self.calendar = DownCalendar(self.faults, self.N_REPLICAS)
        self.sims = [
            ServingSimulator(
                "opt-1.3b", allocator="caching", capacity=4 * GB,
                kv_cache="paged?block_tokens=16", scheduler="memory-aware",
                replica_id=i, faults=self.faults, retry=self.retry)
            for i in range(self.N_REPLICAS)
        ]
        for sim in self.sims:
            sim.start([])
            sim._fault_sink = self._redispatch
        # Model weights stay resident for the lifetime of a replica;
        # "zero leaked KV" means active bytes return to this baseline.
        self.baseline = [sim.allocator.stats().active_bytes
                         for sim in self.sims]
        self.requests = []
        self.next_id = 0

    def _redispatch(self, request, ready_s):
        healthy = [i for i in range(self.N_REPLICAS)
                   if not self.calendar.down_at(i, ready_s)]
        pool = healthy or list(range(self.N_REPLICAS))
        target = min(pool, key=lambda j: (self.sims[j].outstanding, j))
        request.replica = target
        self.sims[target].inject(request, ready_s)

    def _resident(self, sim, request):
        if id(request) in sim._gone:
            return False
        live = ({id(r) for r in sim._queue}
                | {id(r) for r in sim._running}
                | {id(r) for _, _, r in sim._injected})
        return id(request) in live

    # -- rules ----------------------------------------------------------
    @rule(prompt_blocks=st.integers(1, 8), output=st.integers(1, 48),
          gap_ms=st.integers(0, 800))
    def inject_request(self, prompt_blocks, output, gap_ms):
        now = max(sim.session.elapsed_s for sim in self.sims)
        request = ServeRequest(
            req_id=self.next_id, arrival_s=now + gap_ms / 1000.0,
            prompt_tokens=prompt_blocks * 16, output_tokens=output)
        self.next_id += 1
        self._redispatch(request, request.arrival_s)
        self.requests.append(request)

    @rule(steps=st.integers(1, 12))
    def tick_laggard(self, steps):
        for _ in range(steps):
            busy = [i for i in range(self.N_REPLICAS) if self.sims[i].busy]
            if not busy:
                return
            i = min(busy, key=lambda j: (self.sims[j].session.elapsed_s, j))
            self.sims[i].tick()

    # -- the invariant (checked after every rule) -----------------------
    @invariant()
    def each_request_terminal_or_on_one_replica(self):
        for request in self.requests:
            homes = sum(self._resident(sim, request) for sim in self.sims)
            if request.state in (RequestState.FINISHED,
                                 RequestState.REJECTED):
                assert homes == 0, f"terminal req {request.req_id} resident"
            else:
                assert homes == 1, (
                    f"req {request.req_id} ({request.state}) resident on "
                    f"{homes} replicas")

    @invariant()
    def kv_is_held_by_running_requests_only(self):
        for sim in self.sims:
            assert sim.kv.live_requests == len(sim._running)

    def teardown(self):
        guard = 0
        while any(sim.busy for sim in self.sims):
            busy = [i for i in range(self.N_REPLICAS) if self.sims[i].busy]
            i = min(busy, key=lambda j: (self.sims[j].session.elapsed_s, j))
            # A tick that retires the last work reports False itself.
            assert self.sims[i].tick() or not self.sims[i].busy, \
                "busy replica made no progress"
            guard += 1
            assert guard < 200_000, "fleet failed to drain"
        populations = [sim.finish().requests for sim in self.sims]
        merged = [r for population in populations for r in population]
        # Zero stranded requests: every injected request surfaces in
        # exactly one replica's population, in a terminal state.
        assert len(merged) == len(self.requests)
        assert {r.req_id for r in merged} == {r.req_id for r in self.requests}
        assert all(r.state in (RequestState.FINISHED, RequestState.REJECTED)
                   for r in merged)
        # Zero leaked KV: drained replicas hold no tables, and active
        # bytes are back to the resident-weights baseline.
        for sim, baseline in zip(self.sims, self.baseline):
            assert sim.kv.live_requests == 0
            assert sim.kv.live_kv_bytes == 0
            assert sim.allocator.stats().active_bytes == baseline


TestFaultFleetFuzz = FaultFleetMachine.TestCase
TestFaultFleetFuzz.settings = settings(
    max_examples=20, stateful_step_count=40)
