"""Tests for pBlock, sBlock and the pools."""

import pytest

from repro.core.pblock import PBlock
from repro.core.pools import PPool, SPool
from repro.core.sblock import SBlock
from repro.errors import CudaInvalidValueError, CudaOutOfMemoryError
from repro.gpu.device import GpuDevice
from repro.units import GB, MB

CHUNK = 2 * MB


@pytest.fixture
def device():
    return GpuDevice(capacity=1 * GB)


def make_pblock(device, size):
    return PBlock.allocate(device, size, CHUNK)


class TestPBlockAllocate:
    def test_allocate_commits_chunks(self, device):
        block = make_pblock(device, 10 * MB)
        assert block.size == 10 * MB
        assert block.n_chunks == 5
        assert len(block.handles) == 5
        assert device.used_memory == 10 * MB

    def test_allocate_maps_fully(self, device):
        block = make_pblock(device, 6 * MB)
        assert device.vmm.is_fully_mapped(block.va, block.size)

    def test_unaligned_size_rejected(self, device):
        with pytest.raises(CudaInvalidValueError):
            make_pblock(device, 3 * MB)

    def test_oom_rolls_back(self, device):
        make_pblock(device, 900 * MB)
        used = device.used_memory
        with pytest.raises(CudaOutOfMemoryError):
            make_pblock(device, 200 * MB)
        assert device.used_memory == used

    def test_new_block_is_inactive(self, device):
        block = make_pblock(device, 4 * MB)
        assert not block.active
        assert block.owner_id is None

    def test_ids_unique(self, device):
        a = make_pblock(device, 2 * MB)
        b = make_pblock(device, 2 * MB)
        assert a.id != b.id


class TestPBlockSplit:
    def test_split_sizes(self, device):
        block = make_pblock(device, 10 * MB)
        left, right = block.split(device, 4 * MB)
        assert left.size == 4 * MB
        assert right.size == 6 * MB

    def test_split_conserves_physical_memory(self, device):
        block = make_pblock(device, 10 * MB)
        used = device.used_memory
        block.split(device, 2 * MB)
        assert device.used_memory == used

    def test_split_partitions_handles(self, device):
        block = make_pblock(device, 10 * MB)
        handles = list(block.handles)
        left, right = block.split(device, 4 * MB)
        assert left.handles == handles[:2]
        assert right.handles == handles[3 - 1:]

    def test_split_remaps_new_vas(self, device):
        block = make_pblock(device, 10 * MB)
        old_va = block.va
        left, right = block.split(device, 4 * MB)
        assert left.va != old_va and right.va != old_va
        assert device.vmm.is_fully_mapped(left.va, left.size)
        assert device.vmm.is_fully_mapped(right.va, right.size)

    def test_split_active_rejected(self, device):
        block = make_pblock(device, 10 * MB)
        block.active = True
        with pytest.raises(CudaInvalidValueError):
            block.split(device, 4 * MB)

    def test_split_unaligned_rejected(self, device):
        block = make_pblock(device, 10 * MB)
        with pytest.raises(CudaInvalidValueError):
            block.split(device, 3 * MB)

    def test_split_out_of_bounds_rejected(self, device):
        block = make_pblock(device, 10 * MB)
        with pytest.raises(CudaInvalidValueError):
            block.split(device, 10 * MB)


class TestPBlockDestroy:
    def test_destroy_returns_memory(self, device):
        block = make_pblock(device, 8 * MB)
        block.destroy(device)
        assert device.used_memory == 0

    def test_destroy_active_rejected(self, device):
        block = make_pblock(device, 4 * MB)
        block.active = True
        with pytest.raises(CudaInvalidValueError):
            block.destroy(device)


class TestSBlockStitch:
    def test_stitch_concatenates(self, device):
        a = make_pblock(device, 4 * MB)
        b = make_pblock(device, 6 * MB)
        sblock = SBlock.stitch(device, [a, b])
        assert sblock.size == 10 * MB
        assert device.vmm.is_fully_mapped(sblock.va, 10 * MB)

    def test_stitch_creates_no_physical_memory(self, device):
        a = make_pblock(device, 4 * MB)
        b = make_pblock(device, 4 * MB)
        used = device.used_memory
        SBlock.stitch(device, [a, b])
        assert device.used_memory == used

    def test_stitch_needs_two_members(self, device):
        a = make_pblock(device, 4 * MB)
        with pytest.raises(CudaInvalidValueError):
            SBlock.stitch(device, [a])

    def test_active_follows_members(self, device):
        a = make_pblock(device, 4 * MB)
        b = make_pblock(device, 4 * MB)
        sblock = SBlock.stitch(device, [a, b])
        assert not sblock.active
        a.active = True
        assert sblock.active

    def test_overlapping_sblocks_allowed(self, device):
        """Multiple sBlocks may alias the same pBlock (Figure 8)."""
        a = make_pblock(device, 4 * MB)
        b = make_pblock(device, 4 * MB)
        c = make_pblock(device, 4 * MB)
        s1 = SBlock.stitch(device, [a, b])
        s2 = SBlock.stitch(device, [b, c])
        assert s1.contains(b) and s2.contains(b)

    def test_destroy_keeps_members(self, device):
        a = make_pblock(device, 4 * MB)
        b = make_pblock(device, 4 * MB)
        sblock = SBlock.stitch(device, [a, b])
        used = device.used_memory
        sblock.destroy(device)
        assert device.used_memory == used
        assert device.vmm.is_fully_mapped(a.va, a.size)

    def test_destroy_allocated_rejected(self, device):
        a = make_pblock(device, 4 * MB)
        b = make_pblock(device, 4 * MB)
        sblock = SBlock.stitch(device, [a, b])
        sblock.owner_id = 1
        with pytest.raises(CudaInvalidValueError):
            sblock.destroy(device)

    def test_replace_member_with_split_parts(self, device):
        a = make_pblock(device, 4 * MB)
        b = make_pblock(device, 8 * MB)
        sblock = SBlock.stitch(device, [a, b])
        left, right = b.split(device, 2 * MB)
        sblock.replace_member(b, [left, right])
        assert sblock.members == [a, left, right]
        assert sblock.size == 12 * MB

    def test_replace_member_size_mismatch_rejected(self, device):
        a = make_pblock(device, 4 * MB)
        b = make_pblock(device, 8 * MB)
        c = make_pblock(device, 2 * MB)
        sblock = SBlock.stitch(device, [a, b])
        with pytest.raises(CudaInvalidValueError):
            sblock.replace_member(b, [c])

    def test_replace_nonmember_rejected(self, device):
        a = make_pblock(device, 4 * MB)
        b = make_pblock(device, 4 * MB)
        c = make_pblock(device, 4 * MB)
        sblock = SBlock.stitch(device, [a, b])
        with pytest.raises(CudaInvalidValueError):
            sblock.replace_member(c, [c])


class TestPools:
    def test_ppool_exact_inactive(self, device):
        pool = PPool()
        a = make_pblock(device, 4 * MB)
        b = make_pblock(device, 6 * MB)
        pool.add(a)
        pool.add(b)
        assert pool.exact_inactive(4 * MB) is a
        assert pool.exact_inactive(8 * MB) is None

    def test_ppool_exact_skips_active(self, device):
        pool = PPool()
        a = make_pblock(device, 4 * MB)
        a.active = True
        pool.add(a)
        assert pool.exact_inactive(4 * MB) is None

    def test_ppool_exact_prefers_unreferenced(self, device):
        pool = PPool()
        referenced = make_pblock(device, 4 * MB)
        referenced.sblock_refs = 2
        fresh = make_pblock(device, 4 * MB)
        pool.add(referenced)
        pool.add(fresh)
        assert pool.exact_inactive(4 * MB) is fresh

    def test_ppool_exact_falls_back_to_referenced(self, device):
        pool = PPool()
        referenced = make_pblock(device, 4 * MB)
        referenced.sblock_refs = 1
        pool.add(referenced)
        assert pool.exact_inactive(4 * MB) is referenced

    def test_ppool_inactive_descending_order(self, device):
        pool = PPool()
        sizes = [4 * MB, 10 * MB, 6 * MB]
        for size in sizes:
            pool.add(make_pblock(device, size))
        got = [b.size for b in pool.inactive_descending()]
        assert got == sorted(sizes, reverse=True)

    def test_ppool_totals(self, device):
        pool = PPool()
        a = make_pblock(device, 4 * MB)
        b = make_pblock(device, 6 * MB)
        b.active = True
        pool.add(a)
        pool.add(b)
        assert pool.total_bytes == 10 * MB
        assert pool.inactive_bytes == 4 * MB

    def test_spool_exact_inactive_only(self, device):
        ppool, spool = PPool(), SPool()
        a = make_pblock(device, 4 * MB)
        b = make_pblock(device, 4 * MB)
        ppool.add(a)
        ppool.add(b)
        sblock = SBlock.stitch(device, [a, b])
        spool.add(sblock)
        assert spool.exact_inactive(8 * MB) is sblock
        # The sPool is told nothing: it reads the member flags.
        ppool.mark_active(b)
        assert spool.exact_inactive(8 * MB) is None
        assert spool.inactive_blocks() == [] and spool.lru_inactive() is None
        ppool.mark_inactive(b)
        assert spool.exact_inactive(8 * MB) is sblock
        assert ppool.inactive_bytes == 8 * MB

    def test_spool_exact_inactive_skips_active_same_size(self, device):
        ppool, spool = PPool(), SPool()
        blocks = [make_pblock(device, 4 * MB) for _ in range(4)]
        for block in blocks:
            ppool.add(block)
        first = SBlock.stitch(device, blocks[:2])
        second = SBlock.stitch(device, blocks[2:])
        spool.add(first)
        spool.add(second)
        assert spool.exact_inactive(8 * MB) is first  # lowest id wins
        ppool.mark_active(blocks[1])
        assert spool.exact_inactive(8 * MB) is second

    def test_spool_lru_inactive(self, device):
        spool = SPool()
        blocks = []
        for i in range(3):
            x = make_pblock(device, 2 * MB)
            y = make_pblock(device, 2 * MB)
            s = SBlock.stitch(device, [x, y])
            s.last_used = 10 - i
            spool.add(s)
            blocks.append(s)
        assert spool.lru_inactive() is blocks[-1]

    def test_spool_referencing(self, device):
        spool = SPool()
        a = make_pblock(device, 4 * MB)
        b = make_pblock(device, 4 * MB)
        c = make_pblock(device, 4 * MB)
        s1 = SBlock.stitch(device, [a, b])
        s2 = SBlock.stitch(device, [b, c])
        spool.add(s1)
        spool.add(s2)
        assert set(id(s) for s in spool.referencing(b)) == {id(s1), id(s2)}
        assert spool.referencing(a) == [s1]

    def test_invariant_checks_pass(self, device):
        ppool, spool = PPool(), SPool()
        a = make_pblock(device, 4 * MB)
        b = make_pblock(device, 4 * MB)
        ppool.add(a)
        ppool.add(b)
        spool.add(SBlock.stitch(device, [a, b]))
        ppool.check_invariants()
        spool.check_invariants(ppool)

    def test_invariant_detects_dangling_member(self, device):
        ppool, spool = PPool(), SPool()
        a = make_pblock(device, 4 * MB)
        b = make_pblock(device, 4 * MB)
        ppool.add(a)  # b deliberately missing
        spool.add(SBlock.stitch(device, [a, b]))
        with pytest.raises(AssertionError, match="not in the pPool"):
            spool.check_invariants(ppool)
