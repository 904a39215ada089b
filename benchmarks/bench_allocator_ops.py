"""Host-side allocator operation microbenchmarks (real wall-clock).

Unlike the figure benches (which measure *simulated* time), this bench
uses pytest-benchmark's actual timing to track the Python-level cost of
the allocator fast paths — the converged exact-match cycle the paper's
§4.2.2 relies on being cheap — plus the two hot-path overhaul regimes:
a large pool (10k+ free blocks, where O(n) list memmoves used to
dominate) and the serving decode-step loop.  End-to-end numbers come
from ``benchmarks/perf``; these pytest-benchmark variants give per-op
statistics for trend tracking.
"""

import pytest

from repro.allocators import CachingAllocator
from repro.core import GMLakeAllocator
from repro.gpu.device import GpuDevice
from repro.units import GB, MB


@pytest.fixture
def warm_gmlake():
    allocator = GMLakeAllocator(GpuDevice(capacity=8 * GB))
    sizes = [6 * MB, 14 * MB, 30 * MB, 64 * MB]
    for _ in range(3):  # warm the pools so the loop below is all S1
        cycle(allocator, sizes)
    return allocator, sizes


@pytest.fixture
def warm_caching():
    allocator = CachingAllocator(GpuDevice(capacity=8 * GB))
    sizes = [6 * MB, 14 * MB, 30 * MB, 64 * MB]
    for size in sizes:
        allocator.free(allocator.malloc(size))
    return allocator, sizes


def cycle(allocator, sizes):
    allocations = [allocator.malloc(size) for size in sizes]
    for allocation in allocations:
        allocator.free(allocation)


def test_gmlake_exact_match_cycle(benchmark, warm_gmlake):
    allocator, sizes = warm_gmlake
    allocs_before = allocator.counters.alloc_pblocks
    benchmark(cycle, allocator, sizes)
    # The warm cycle must be pure exact-match: no new physical blocks
    # regardless of how many rounds the benchmark ran.
    assert allocator.counters.alloc_pblocks == allocs_before


def test_gmlake_shared_member_exact_match_cycle(benchmark):
    """Exact-match cycle where every pBlock sits under 4-5 sBlocks —
    the ``train_replay`` regime (there an assigned sBlock has 19 members
    and each member sits under 29 sBlocks).  ``warm_gmlake`` has four
    sizes and no sharing, so it cannot show a cost that grows with
    holders per member."""
    allocator = GMLakeAllocator(GpuDevice(capacity=8 * GB))
    for held in [allocator.malloc(6 * MB) for _ in range(9)]:
        allocator.free(held)
    sizes = [k * 6 * MB for k in range(2, 10)]
    for size in sizes:  # stitch 2, 3, ... 9 of the nine pBlocks
        allocator.free(allocator.malloc(size))
    assert min(len(allocator.spool.referencing(p)) for p in allocator.ppool) >= 4
    stitches_before = allocator.counters.stitches

    def one_by_one():
        for size in sizes:
            allocator.free(allocator.malloc(size))

    benchmark(one_by_one)
    assert allocator.counters.stitches == stitches_before


def test_caching_cache_hit_cycle(benchmark, warm_caching):
    allocator, sizes = warm_caching
    benchmark(cycle, allocator, sizes)
    allocator.check_invariants()


def test_gmlake_cold_stitch_cycle(benchmark):
    """Cold path: every (distinct) size triggers split/stitch work."""
    def run():
        allocator = GMLakeAllocator(GpuDevice(capacity=8 * GB))
        a = allocator.malloc(64 * MB)
        b = allocator.malloc(64 * MB)
        allocator.free(a)
        allocator.free(b)
        big = allocator.malloc(128 * MB)  # stitch
        allocator.free(big)
        allocator.malloc(32 * MB)  # split
    benchmark(run)


# ----------------------------------------------------------------------
# Hot-path overhaul regimes (PR 4)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def large_pool_caching():
    """A BFC pool holding >10k cached free blocks.

    Built once per module: alternating frees leave no coalescable
    neighbours, so the pool keeps every second block cached.
    """
    allocator = CachingAllocator(GpuDevice(capacity=256 * GB))
    held = []
    for i in range(24_000):
        held.append(allocator.malloc(2 * MB + (i % 997) * 4096))
    for i in range(0, len(held), 2):
        allocator.free(held[i])
    assert allocator.free_block_count() > 10_000
    return allocator


def test_caching_large_pool_malloc_free(benchmark, large_pool_caching):
    """Best-fit + split + re-coalesce against a 10k-block pool.

    The state-stable cycle: the malloc splits a cached block, the free
    merges the pieces back, so the pool returns to its initial shape
    every round — pre-overhaul each round paid four O(n) memmoves.
    """
    allocator = large_pool_caching
    before = allocator.free_block_count()

    def cycle():
        allocation = allocator.malloc(1536 * 1024 + 31 * 1024)
        allocator.free(allocation)

    benchmark(cycle)
    assert allocator.free_block_count() == before


def test_serving_decode_step_loop(benchmark):
    """One short online-serving run: the per-decode-step hot loop
    (admissions, KV growth, workspace churn, timeout bookkeeping)."""
    from repro.serve import LengthSampler, PoissonArrivals, run_serving

    def run():
        arrivals = PoissonArrivals(rate_per_s=4.0)
        lengths = LengthSampler(mean_prompt=512, mean_output=256)
        requests = arrivals.generate(40, lengths, seed=0)
        return run_serving(requests, "opt-1.3b", allocator="caching",
                           capacity=8 * GB, scheduler="memory-aware")

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.completed == 40
