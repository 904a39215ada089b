"""A seedless trace's iterations and GMLake's cold path, each fast path
against its slow definition.

Three groups of ``tests/reference.py`` act where a training run is built
or replayed call by call:

* ``stamped-iterations`` — a trace that does not read its seed emits
  iteration 0 and stamps the others from it;
* ``lazy-best-fit`` — BestFit walks the pPool's scan order from the
  request instead of copying every inactive pBlock;
* ``chunk-runs`` — physical memory keeps one record per run of
  consecutive handles.

Each twin builds and replays with its group swapped in and compares
everything ``test_sim_converged.replay`` records: the digest with
``iter_times_s`` bit for bit, the clock, the driver and runtime
counters, ``committed``, the next handle, every live chunk's size,
refcount and release, the pools, and both sides' invariants.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import GROUPS, REFERENCE, REPLAY_ONLY, PerChunkPhysicalMemory, reference
from test_equivalence_goldens import _load_goldens
from test_sim_converged import GOLDEN_CELLS, replay
from repro.core.pools import PPool
from repro.errors import CudaError
from repro.gpu.phys import PhysicalMemory
from repro.units import GB, MB
from repro.workloads import TrainingWorkload
from repro.workloads.models import MODELS
from repro.workloads.platforms import Platform

COLD = ("stamped-iterations", "lazy-best-fit", "chunk-runs")
GMLAKE_CELLS = sorted(cell for cell, (allocator, _) in GOLDEN_CELLS.items()
                      if allocator.startswith("gmlake"))
STRATEGIES = ("N", "R", "LR", "RO", "LRO")


def twin(groups, allocator, workload, capacity=None):
    """Build and replay ``workload`` as shipped and with ``groups``
    swapped in; the two must leave the same.  Returns the shipped
    record."""
    fast = replay(allocator, TrainingWorkload(**workload).build_trace(),
                  capacity)[1]
    with reference(*groups):
        slow = replay(allocator, TrainingWorkload(**workload).build_trace(),
                      capacity)[1]
    assert fast == slow
    return fast


@pytest.mark.parametrize("cell", GMLAKE_CELLS)
@pytest.mark.parametrize("group", COLD)
def test_gmlake_golden_cell_equals_its_slow_definition(group, cell):
    allocator, workload = GOLDEN_CELLS[cell]
    left = twin((group,), allocator, workload)
    assert left[0] == _load_goldens()[cell]  # in lockstep with the pin


@pytest.mark.parametrize("group", ("stamped-iterations", "chunk-runs"))
def test_caching_golden_cell_equals_its_slow_definition(group):
    """The runtime's one-chunk creates and releases, on one record
    each."""
    allocator, workload = GOLDEN_CELLS["replay/opt-13b-LR-caching"]
    left = twin((group,), allocator, workload)
    assert left[0] == _load_goldens()["replay/opt-13b-LR-caching"]


@settings(max_examples=max(1, settings().max_examples // 20))
@given(allocator=st.sampled_from([
           "gmlake", "gmlake?spool=2", "gmlake?stitch_after_split=false",
           "gmlake?fragmentation_limit=8MB", "gmlake?enable_stitch=false",
           "gmlake?chunk_mb=4", "caching", "vmm-naive", "expandable"]),
       capacity_gb=st.sampled_from([None, 3, 4]),
       seed=st.integers(0, 2 ** 32 - 1),
       jitter=st.sampled_from([1.0, 0.97, 0.7]),
       strategies=st.sampled_from(STRATEGIES),
       n_gpus=st.integers(1, 2), iterations=st.integers(1, 6))
def test_small_runs_equal_every_slow_definition(
        allocator, capacity_gb, seed, jitter, strategies, n_gpus, iterations):
    """A tight device runs some of them out of memory: GMLake reclaims,
    releasing its pBlocks' chunks one by one out of their records."""
    twin(COLD, allocator, dict(
        model="opt-1.3b", batch_size=2, n_gpus=n_gpus,
        strategies=strategies, iterations=iterations, seed=seed,
        seq_jitter=(jitter, 1.0)),
        capacity=capacity_gb and capacity_gb * GB)


# -- stamped-iterations ------------------------------------------------
@pytest.mark.parametrize("model", sorted(MODELS))
def test_stamped_traces_equal_per_iteration_emission(model):
    for strategies, n_gpus, platform in itertools.product(
            STRATEGIES, (1, 4), Platform):
        workload = TrainingWorkload(
            model, batch_size=2, n_gpus=n_gpus, strategies=strategies,
            platform=platform, iterations=3)
        assert not workload.reads_seed
        fast = workload.build_trace()
        with reference("stamped-iterations"):
            slow = workload.build_trace()
        assert fast.events == slow.events
        assert fast.compute_us_per_iter == slow.compute_us_per_iter
        assert fast.meta == slow.meta


def test_only_a_seedless_trace_is_stamped(monkeypatch):
    emitted = []
    shipped = TrainingWorkload._emit_iteration
    monkeypatch.setattr(
        TrainingWorkload, "_emit_iteration",
        lambda self, trace, it, rng: emitted.append(it) or shipped(
            self, trace, it, rng))
    for jitter, iterations in (((1.0, 1.0), [0]), ((0.9, 1.0), [0, 1, 2, 3])):
        emitted.clear()
        TrainingWorkload("opt-1.3b", batch_size=2, strategies="RO",
                         iterations=4, seq_jitter=jitter).build_trace()
        assert emitted == iterations


# -- guards ----------------------------------------------------------
def test_each_group_fires_in_a_shipped_replay_cell(monkeypatch):
    """Each group's fast path runs in ``replay/opt-13b-LR-gmlake`` as
    shipped: its 6-iteration trace emits one iteration, BestFit walks
    from the request for S2 and for S3/S4, and chunk runs are made
    whole, retained and released in pieces and split."""
    calls = {}

    def count(owner, name):
        shipped = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return shipped(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((TrainingWorkload, "_emit_iteration"),
                        (PPool, "inactive_above"), (PPool, "inactive_from"),
                        (PhysicalMemory, "create_run"),
                        (PhysicalMemory, "_split")):
        count(owner, name)
    allocator, workload = GOLDEN_CELLS["replay/opt-13b-LR-gmlake"]
    assert workload["iterations"] == 6
    replay(allocator, TrainingWorkload(**workload).build_trace())
    assert calls.pop("_emit_iteration") == 1
    assert set(calls) == {"inactive_above", "inactive_from",
                          "create_run", "_split"}, calls


def test_the_cold_groups_are_registered_where_they_fire():
    for group in COLD:
        assert group in REFERENCE
    assert "stamped-iterations" in REPLAY_ONLY
    assert {"lazy-best-fit", "chunk-runs"} <= set(GROUPS)


# -- chunk-runs --------------------------------------------------------
U = 2 * MB
#: Handles as runs: ``(first, length)`` pieces, which a live run may
#: hold whole, cut or not at all.
HANDLES = st.lists(st.tuples(st.integers(1, 40), st.integers(1, 6)),
                   min_size=1, max_size=4).map(
    lambda pieces: [h for first, n in pieces for h in range(first, first + n)])
PHYS_STEP = st.one_of(
    st.tuples(st.just("create"), st.sampled_from([U, 2 * U, 3 * MB])),
    st.tuples(st.just("create_run"), st.sampled_from([U, 2 * U]),
              st.integers(1, 8)),
    st.tuples(st.just("retain"), HANDLES,
              st.sampled_from([None, U, 2 * U])),
    st.tuples(st.just("release_refs"), HANDLES),
    st.tuples(st.just("release"), st.integers(1, 40)),
    st.tuples(st.just("refuse_creates"), st.sampled_from([U, 2 * U]),
              st.integers(1, 20)),
)


def _outcome(call):
    try:
        return "ok", call()
    except CudaError as exc:
        return type(exc).__name__, str(exc)


def phys_state(phys):
    return phys.committed, phys._next_handle, phys.chunks()


class TestChunkRunsMatchOneRecordPerChunk:
    """Random creates, runs of creates, retains and releases over
    handle lists that cover, cut and straddle records, repeat handles
    and name dead ones: the run records answer as one record per chunk
    does, call for call."""

    @given(capacity_units=st.integers(4, 40),
           steps=st.lists(PHYS_STEP, min_size=8, max_size=40))
    def test_same_chunks_after_every_call(self, capacity_units, steps):
        fast = PhysicalMemory(capacity_units * U)
        slow = PerChunkPhysicalMemory(capacity_units * U)
        for op, *args in steps:
            if op == "create_run":
                size, n = args
                got = _outcome(lambda: fast.create_run(size, n))
                if got[0] == "ok":
                    want = [slow.create(size) for _ in range(n)]
                else:  # refused whole: nothing made
                    assert n * size > slow.free
                    want = got[1]
                assert got[1] == want
            else:
                got = _outcome(lambda: _call(fast, op, args))
                want = _outcome(lambda: _call(slow, op, args))
                assert got == want, (op, args)
            fast.check_invariants()
            slow.check_invariants()
            assert phys_state(fast) == phys_state(slow)
            assert fast.live_chunk_count == len(slow.chunks())

    def test_a_release_inside_a_run_splits_it_there(self):
        phys = PhysicalMemory(16 * U)
        handles = phys.create_run(U, 6)
        phys.retain(*handles)
        phys.release_refs(handles[2:4])  # ends inside the run twice
        assert len(phys._runs) == 3
        assert [c.refcount for c in phys.chunks().values()] == [2, 2, 1, 1, 2, 2]
        phys.release(handles[2])
        assert handles[2] not in phys.chunks() and len(phys._runs) == 3
        phys.release_refs(handles[:2] + handles[3:])  # all three records
        assert [c.refcount for c in phys.chunks().values()] == [1, 1, 1, 1]
        assert list(phys.chunks()) == handles[:2] + handles[4:]
        assert phys.committed == 4 * U
        phys.check_invariants()


def _call(phys, op, args):
    if op == "retain":
        handles, size = args
        return phys.retain(*handles, size=size)
    return getattr(phys, op)(*args)
