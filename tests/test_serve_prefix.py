"""Tests for radix-trie prefix sharing (``paged-shared``).

Three layers:

- unit tests for the trie and the sharing mechanics (splice, COW
  boundary charge, LRU pressure eviction, rollback on OOM);
- a hypothesis ``RuleBasedStateMachine`` that drives random
  admit/grow/preempt/finish/re-admit sequences over shared prefixes
  and checks the block ledger after every step: **every block's
  ``ref_count`` equals its live references** (trie ownership + block
  table splices), and a drained cache leaks nothing — the sharing
  analogue of the disagg no-leak test;
- the PR's acceptance physics end-to-end: on a multi-tenant workload
  with ample capacity, sharing shows ``prefix_hit_rate > 0`` and a
  strictly lower peak KV footprint than the identical sharing-off run.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.api import resolve_allocator
from repro.gpu.device import GpuDevice
from repro.serve import (
    MultiTenantArrivals,
    SharedPagedKVCache,
    run_serving,
)
from repro.serve.prefix import PrefixTrie
from repro.serve.request import ServeRequest
from repro.sim.engine import ReplaySession
from repro.units import GB
from repro.workloads import get_model
from repro.workloads.inference import kv_bytes
from tests.test_serve_kvcache import PerBlockOracle, TwinKV

MODEL = get_model("opt-1.3b")
BLOCK_TOKENS = 16
BLOCK_BYTES = kv_bytes(MODEL, BLOCK_TOKENS)


def harness(capacity_blocks=256):
    """A SharedPagedKVCache bound to a real caching allocator."""
    device = GpuDevice(capacity=capacity_blocks * BLOCK_BYTES)
    allocator = resolve_allocator("caching", device)
    kv = SharedPagedKVCache(MODEL, block_tokens=BLOCK_TOKENS)
    kv.bind(ReplaySession(allocator), allocator)
    return kv, allocator


def prefix_request(req_id, prefix_id=None, prefix_tokens=0,
                   prompt=128, output=64):
    return ServeRequest(req_id=req_id, arrival_s=0.0,
                        prompt_tokens=prompt, output_tokens=output,
                        prefix_id=prefix_id, prefix_tokens=prefix_tokens)


def assert_ref_ledger(kv):
    """Every block's ref_count equals its live references: one per
    trie ownership plus one per block-table splice."""
    expected = Counter()
    for _, block in kv.trie.owned_blocks():
        expected[block] += 1
    for table in kv._tables.values():
        expected.update(table)
    assert dict(expected) == kv._ref
    assert kv.live_blocks == len(kv._ref)


class TestPrefixTrie:
    def test_slot_is_stable(self):
        trie = PrefixTrie()
        assert trie.slot("a") == 0
        assert trie.slot("b") == 1
        assert trie.slot("a") == 0

    def test_path_extend_trim(self):
        trie = PrefixTrie()
        assert trie.path("a") == []
        trie.extend("a", "x0")
        trie.extend("a", "x1")
        assert trie.path("a") == ["x0", "x1"]
        assert trie.resident_blocks == 2
        assert trie.trim_tail("a") == "x1"
        assert trie.trim_tail("a") == "x0"
        assert trie.trim_tail("a") is None
        assert trie.path("a") == []

    def test_lru_order_follows_touch(self):
        trie = PrefixTrie()
        for pid in ("a", "b", "c"):
            trie.extend(pid, f"{pid}0")
            trie.touch(pid)
        trie.touch("a")
        assert trie.lru_ids() == ["b", "c", "a"]

    def test_owned_blocks_enumerates_every_path(self):
        trie = PrefixTrie()
        trie.extend("a", "x0")
        trie.extend("b", "y0")
        trie.extend("b", "y1")
        assert sorted(trie.owned_blocks()) == [
            ("a", "x0"), ("b", "y0"), ("b", "y1")]


class TestSharingMechanics:
    def test_first_request_materializes_prefix(self):
        kv, _ = harness()
        ok = kv.admit(prefix_request(0, "p", prefix_tokens=64))
        assert ok
        assert kv.metrics.prefix_lookups == 1
        assert kv.metrics.prefix_hits == 0      # cold: nothing resident yet
        assert kv.trie.resident_blocks == 64 // BLOCK_TOKENS
        for _, block in kv.trie.owned_blocks():
            assert kv.ref_count(block) == 2     # trie + the request's table
        assert_ref_ledger(kv)

    def test_second_request_hits_and_shares(self):
        kv, _ = harness()
        assert kv.admit(prefix_request(0, "p", prefix_tokens=64))
        assert kv.admit(prefix_request(1, "p", prefix_tokens=64))
        assert kv.metrics.prefix_hits == 1
        assert kv.metrics.shared_bytes == 4 * BLOCK_BYTES
        assert kv.metrics.prefix_hit_rate == 0.5
        for _, block in kv.trie.owned_blocks():
            assert kv.ref_count(block) == 3
        assert_ref_ledger(kv)

    def test_prefix_survives_request_release(self):
        kv, allocator = harness()
        r = prefix_request(0, "p", prefix_tokens=64)
        assert kv.admit(r)
        kv.release(r)
        assert kv.live_requests == 0
        assert kv.trie.resident_blocks == 4     # cache, not leak
        assert kv.idle_shared_blocks == 4
        assert kv.live_blocks == 4
        # The next request of the group pays zero allocations for them.
        allocs = kv.metrics.kv_allocs
        assert kv.admit(prefix_request(1, "p", prefix_tokens=64, prompt=64))
        assert kv.metrics.prefix_hits == 1
        assert kv.metrics.kv_allocs == allocs + 1   # only the +1 token block
        assert_ref_ledger(kv)

    def test_no_prefix_takes_plain_paged_path(self):
        kv, _ = harness()
        assert kv.admit(prefix_request(0))
        assert kv.metrics.prefix_lookups == 0
        assert kv.trie.resident_blocks == 0
        assert all(b.startswith("kvb") for b in kv._tables[0])
        assert_ref_ledger(kv)

    def test_sub_block_prefix_is_not_shared(self):
        kv, _ = harness()
        assert kv.admit(prefix_request(0, "p", prefix_tokens=BLOCK_TOKENS - 1))
        assert kv.metrics.prefix_lookups == 0
        assert kv.trie.resident_blocks == 0

    def test_cow_charged_when_prefix_ends_mid_block(self):
        kv, _ = harness()
        ragged = 2 * BLOCK_TOKENS + 8           # 2 shared blocks + 8 tokens
        assert kv.admit(prefix_request(0, "p", prefix_tokens=ragged))
        assert kv.metrics.cow_copy_bytes == 0   # cold miss: nothing copied
        assert kv.admit(prefix_request(1, "p", prefix_tokens=ragged))
        assert kv.metrics.cow_copy_bytes == kv_bytes(MODEL, 8)

    def test_longer_prefix_extends_resident_path(self):
        kv, _ = harness()
        assert kv.admit(prefix_request(0, "p", prefix_tokens=32))
        assert kv.trie.resident_blocks == 2
        assert kv.admit(prefix_request(1, "p", prefix_tokens=64))
        assert kv.trie.resident_blocks == 4     # reused 2, materialized 2
        assert kv.metrics.prefix_hits == 1
        assert_ref_ledger(kv)

    def test_shorter_prefix_shares_head_only(self):
        kv, _ = harness()
        assert kv.admit(prefix_request(0, "p", prefix_tokens=64))
        assert kv.admit(prefix_request(1, "p", prefix_tokens=32))
        head = kv.trie.path("p")[:2]
        for block in head:
            assert kv.ref_count(block) == 3
        for block in kv.trie.path("p")[2:]:
            assert kv.ref_count(block) == 2
        assert_ref_ledger(kv)

    def test_oom_mid_materialization_rolls_back_everything(self):
        # Pool segments hold 6 blocks at this capacity: the 8-block
        # prefix OOMs mid-materialization.
        kv, allocator = harness(capacity_blocks=10)
        big = prefix_request(0, "p", prefix_tokens=128, prompt=128)
        assert not kv.admit(big)
        assert kv.live_requests == 0
        assert kv.live_blocks == 0
        assert kv.trie.resident_blocks == 0
        assert kv._ref == {}
        assert allocator.stats().active_bytes == 0
        assert kv.metrics.kv_allocs == kv.metrics.kv_frees

    def test_pressure_evicts_idle_shared_lru_first(self):
        # This capacity fits 12 blocks after pool-segment rounding.
        kv, _ = harness(capacity_blocks=16)
        r0 = prefix_request(0, "a", prefix_tokens=128, prompt=128, output=16)
        assert kv.admit(r0)                     # 8 shared + 1 private
        kv.release(r0)                          # 8 idle shared remain
        assert kv.idle_shared_blocks == 8
        r1 = prefix_request(1, "b", prefix_tokens=128, prompt=128, output=16)
        assert kv.admit(r1)                     # needs 9 fresh blocks
        assert len(kv.trie.path("a")) < 8       # cold tail was evicted
        assert len(kv.trie.path("b")) == 8
        assert_ref_ledger(kv)

    def test_busy_shared_blocks_are_never_evicted(self):
        # Fits 12 blocks: r0 holds 9 live, r1 needs 5 but only 3 are
        # free and nothing resident is idle.
        kv, _ = harness(capacity_blocks=16)
        r0 = prefix_request(0, "a", prefix_tokens=128, prompt=128, output=16)
        assert kv.admit(r0)                     # 9 blocks, r0 still live
        r1 = prefix_request(1, "b", prefix_tokens=64, prompt=64, output=16)
        assert not kv.admit(r1)                 # nothing idle to evict
        assert len(kv.trie.path("a")) == 8      # untouched
        assert_ref_ledger(kv)

    def test_reset_shared_drains_idle_cache(self):
        kv, allocator = harness()
        for i, pid in enumerate(("a", "b")):
            r = prefix_request(i, pid, prefix_tokens=64)
            assert kv.admit(r)
            kv.release(r)
        assert kv.reset_shared() == 8
        assert kv.live_blocks == 0
        assert allocator.stats().active_bytes == 0
        assert kv.metrics.kv_allocs == kv.metrics.kv_frees

    def test_preempt_recompute_skips_shared_prefix(self):
        kv, _ = harness()
        r = prefix_request(0, "p", prefix_tokens=64, prompt=96, output=64)
        assert kv.admit(r)
        kv.release(r, preempted=True)
        # Only the 32 private context tokens past the shared 64 are
        # recomputed; the prefix stays resident in the trie.
        assert kv.metrics.preempt_copy_bytes == kv_bytes(MODEL, 96 - 64)
        # A plain request with the same context recomputes all of it.
        plain = prefix_request(1, prompt=96, output=64)
        assert kv.admit(plain)
        kv.release(plain, preempted=True)
        assert kv.metrics.preempt_copy_bytes == \
            kv_bytes(MODEL, 32) + kv_bytes(MODEL, 96)


class PrefixRefCountMachine(RuleBasedStateMachine):
    """Random admit/grow/preempt/finish/re-admit traffic over shared
    prefixes; the block ledger must balance after every step."""

    PREFIXES = ("alpha", "beta", "gamma")

    def __init__(self):
        super().__init__()
        self.kv, self.allocator = harness(capacity_blocks=48)
        self.live = {}       # req_id -> ServeRequest with KV on device
        self.parked = []     # preempted, eligible for re-admission
        self.next_id = 0

    # -- rules ----------------------------------------------------------
    @rule(group=st.integers(0, 3),
          prefix_blocks=st.integers(1, 6),
          prompt_blocks=st.integers(1, 8),
          output=st.integers(1, 64))
    def admit_new(self, group, prefix_blocks, prompt_blocks, output):
        prefix_id = (self.PREFIXES[group]
                     if group < len(self.PREFIXES) else None)
        request = prefix_request(
            self.next_id, prefix_id,
            prefix_tokens=prefix_blocks * BLOCK_TOKENS if prefix_id else 0,
            prompt=prompt_blocks * BLOCK_TOKENS, output=output)
        self.next_id += 1
        if self.kv.admit(request):
            self.live[request.req_id] = request
        else:
            assert request.req_id not in self.kv._tables

    @rule(pick=st.integers(0, 10 ** 6))
    def grow_one(self, pick):
        if not self.live:
            return
        request = self.live[sorted(self.live)[pick % len(self.live)]]
        request.tokens_done += BLOCK_TOKENS     # decode past capacity
        if not self.kv.grow(request):
            # The simulator would preempt on failed growth.
            self.kv.release(request, preempted=True)
            del self.live[request.req_id]
            self.parked.append(request)

    @rule(pick=st.integers(0, 10 ** 6))
    def finish_one(self, pick):
        if not self.live:
            return
        request = self.live.pop(sorted(self.live)[pick % len(self.live)])
        self.kv.release(request)

    @rule(pick=st.integers(0, 10 ** 6))
    def preempt_one(self, pick):
        if not self.live:
            return
        request = self.live.pop(sorted(self.live)[pick % len(self.live)])
        self.kv.release(request, preempted=True)
        self.parked.append(request)

    @rule()
    def readmit_parked(self):
        if not self.parked:
            return
        request = self.parked.pop(0)
        if self.kv.admit(request):
            self.live[request.req_id] = request

    @rule()
    def drain_idle_cache(self):
        self.kv.reset_shared()

    # -- the invariant (checked after every rule) -----------------------
    @invariant()
    def check_ledger(self):
        assert_ref_ledger(self.kv)
        assert self.kv.live_requests == len(self.live)
        assert (self.kv.metrics.kv_allocs - self.kv.metrics.kv_frees
                == self.kv.live_blocks)

    def teardown(self):
        for request in list(self.live.values()):
            self.kv.release(request)
        self.live.clear()
        self.kv.reset_shared()
        # pending == 0 and live == 0  =>  zero leaked blocks.
        assert self.kv.live_requests == 0
        assert self.kv.live_blocks == 0
        assert self.kv._ref == {}
        assert self.kv.trie.resident_blocks == 0
        assert self.kv.metrics.kv_allocs == self.kv.metrics.kv_frees
        assert self.allocator.stats().active_bytes == 0


TestPrefixRefCountFuzz = PrefixRefCountMachine.TestCase
TestPrefixRefCountFuzz.settings = settings(
    max_examples=25, stateful_step_count=40)


class TestAcceptancePhysics:
    """The PR's acceptance bar, end-to-end through the simulator."""

    def _run(self, kv_cache, n=60):
        stream = MultiTenantArrivals(
            tenants=4, rate_per_s=6.0, shared_prefix_tokens=256,
        ).generate(n, seed=3)
        return run_serving(stream, "opt-1.3b", allocator="caching",
                           capacity=8 * GB, kv_cache=kv_cache,
                           scheduler="memory-aware")

    def test_sharing_hits_and_strictly_lowers_peak_kv(self):
        plain = self._run("paged?block_tokens=16")
        shared = self._run("paged-shared?block_tokens=16")
        assert shared.kv_metrics.prefix_hit_rate > 0
        assert shared.kv_metrics.shared_bytes > 0
        assert (shared.kv_metrics.peak_kv_bytes
                < plain.kv_metrics.peak_kv_bytes)
        # Same seed, same stream: serving quality does not regress.
        assert shared.report().completed == plain.report().completed == 60
        assert (shared.report().goodput_req_s
                >= plain.report().goodput_req_s)

    def test_sharing_off_pays_no_sharing_ledger(self):
        plain = self._run("paged?block_tokens=16")
        assert plain.kv_metrics.prefix_lookups == 0
        assert plain.kv_metrics.shared_bytes == 0
        assert plain.kv_metrics.cow_copy_bytes == 0


# ----------------------------------------------------------------------
# Blocks as one allocator run: differential against the per-block path
# ----------------------------------------------------------------------
class PerBlockSharedPagedKVCache(PerBlockOracle, SharedPagedKVCache):
    """``paged-shared`` on the per-block oracle: each block makes up to
    four attempts of its own (``empty_cache`` and idle-prefix eviction
    in between), as before the first attempts became one run."""

    def _try_alloc(self, name, size):
        if PerBlockOracle._try_alloc(self, name, size):
            return True
        if self._evict_idle(size) == 0:
            return False
        ok = PerBlockOracle._try_alloc(self, name, size)
        self._note_shared_blocks()
        return ok


def shared_twins(capacity_blocks, tiers=None):
    return TwinKV(SharedPagedKVCache(MODEL, block_tokens=BLOCK_TOKENS),
                  PerBlockSharedPagedKVCache(MODEL, block_tokens=BLOCK_TOKENS),
                  capacity=capacity_blocks * BLOCK_BYTES, tiers=tiers)


SHARED_STEP = st.one_of(
    st.tuples(st.just("admit"), st.integers(0, 3),        # prefix group
              st.integers(1, 120), st.integers(1, 200)),  # prefix, prompt
    st.tuples(st.just("grow"), st.integers(0, 10 ** 6),
              st.integers(1, 48), st.just(0)),
    st.tuples(st.just("finish"), st.integers(0, 10 ** 6),
              st.just(0), st.just(0)),
    st.tuples(st.just("preempt"), st.integers(0, 10 ** 6),
              st.just(0), st.just(0)),
    st.tuples(st.just("readmit"), st.just(0), st.just(0), st.just(0)),
    st.tuples(st.just("reset_shared"), st.just(0), st.just(0), st.just(0)),
)


class TestSharedBlocksAsOneRunMatchPerBlock:
    @pytest.mark.parametrize("tiers", [
        None, ("dram?gb=0.01", "cxl?gb=16&gb_per_s=40&latency_us=1")],
        ids=["no-tiers", "dram+cxl"])
    @given(steps=st.lists(SHARED_STEP, min_size=4, max_size=50))
    def test_same_state_after_every_step(self, tiers, steps):
        twins = shared_twins(capacity_blocks=30, tiers=tiers)
        prefixes = PrefixRefCountMachine.PREFIXES
        for op, a, b, c in steps:
            if op == "admit":
                prefix_id = prefixes[a] if a < len(prefixes) else None
                twins.admit_new(
                    prompt_tokens=c, output_tokens=16, prefix_id=prefix_id,
                    prefix_tokens=b if prefix_id else 0)
            elif op == "grow":
                twins.grow(a, b)
            elif op == "readmit":
                twins.readmit()
            elif op == "reset_shared":
                twins.step(lambda kv, requests: kv.reset_shared())
            else:
                twins.release(a, preempted=(op == "preempt"))
            assert_ref_ledger(twins.sides[0][0])
        twins.drain()
        twins.step(lambda kv, requests: kv.reset_shared())
        kv, session, hierarchy, _ = twins.sides[0]
        assert kv.live_blocks == 0 and not session.live

    def test_run_resumes_after_a_recovered_block(self):
        twins = shared_twins(capacity_blocks=14)  # two 20 MB segments
        # A six-block prefix stays resident, idle, after its request.
        twins.admit_new(prompt_tokens=100, output_tokens=8,
                        prefix_id="alpha", prefix_tokens=96)
        twins.release(0, preempted=False)
        kv = twins.sides[0][0]
        assert kv.idle_shared_blocks == 6
        # Eleven private blocks: the run takes the six that are free
        # and stops; recovery evicts one idle prefix tail for the
        # failing block, the run resumes with the next and stops again
        # — five times over.  A recovered block keeps its number.
        twins.admit_new(prompt_tokens=170, output_tokens=8)
        assert twins.live == [1]
        assert kv._tables[1] == [f"kvb1.{n}" for n in range(1, 12)]
        assert kv.trie.resident_blocks == 1
