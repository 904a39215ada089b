"""Tests for Algorithm 1 (BestFit) as a pure function: the definition
in ``tests/reference.py`` that ``GMLakeAllocator._run_best_fit``
answers like."""

from reference import best_fit
from repro.core.bestfit import FitState


class FakeBlock:
    """Size-only stand-in for pBlock/sBlock in pure-function tests."""

    def __init__(self, size):
        self.size = size

    def __repr__(self):
        return f"FakeBlock({self.size})"


def blocks(*sizes):
    """Descending-sorted fake block list (the algorithm's precondition)."""
    return [FakeBlock(s) for s in sorted(sizes, reverse=True)]


class TestExactMatch:
    def test_exact_pblock(self):
        result = best_fit(10, [], blocks(20, 10, 5))
        assert result.state is FitState.EXACT_MATCH
        assert result.candidates[0].size == 10

    def test_exact_sblock_preferred(self):
        sblocks = blocks(10)
        result = best_fit(10, sblocks, blocks(10))
        assert result.state is FitState.EXACT_MATCH
        assert result.candidates[0] is sblocks[0]

    def test_sblock_only_for_exact(self):
        """sBlocks larger than the request are never candidates."""
        result = best_fit(10, blocks(50), blocks(4, 4, 4))
        assert result.state is FitState.MULTIPLE_BLOCKS


class TestSingleBlock:
    def test_best_fit_is_smallest_sufficient(self):
        result = best_fit(10, [], blocks(40, 20, 12, 8))
        assert result.state is FitState.SINGLE_BLOCK
        assert result.candidates[0].size == 12

    def test_single_block_when_only_one_large(self):
        result = best_fit(10, [], blocks(30))
        assert result.state is FitState.SINGLE_BLOCK
        assert result.candidates[0].size == 30


class TestMultipleBlocks:
    def test_greedy_accumulates_descending(self):
        result = best_fit(20, [], blocks(9, 8, 7, 2))
        assert result.state is FitState.MULTIPLE_BLOCKS
        assert [b.size for b in result.candidates] == [9, 8, 7]

    def test_exact_sum(self):
        result = best_fit(17, [], blocks(9, 8))
        assert result.state is FitState.MULTIPLE_BLOCKS
        assert result.candidate_bytes == 17

    def test_overshoot_allowed(self):
        result = best_fit(15, [], blocks(9, 8))
        assert result.state is FitState.MULTIPLE_BLOCKS
        assert result.candidate_bytes == 17

    def test_min_stitch_size_filters_small_blocks(self):
        result = best_fit(20, [], blocks(9, 8, 7, 2), min_stitch_size=5)
        assert result.state is FitState.MULTIPLE_BLOCKS
        assert all(b.size >= 5 for b in result.candidates)

    def test_filtered_blocks_can_cause_insufficiency(self):
        result = best_fit(20, [], blocks(9, 2, 2, 2, 2, 2, 2, 2),
                          min_stitch_size=5)
        assert result.state is FitState.INSUFFICIENT_BLOCKS

    def test_small_block_still_serves_exact_match(self):
        result = best_fit(2, [], blocks(9, 2), min_stitch_size=5)
        assert result.state is FitState.EXACT_MATCH


class TestInsufficient:
    def test_empty_pools(self):
        result = best_fit(10, [], [])
        assert result.state is FitState.INSUFFICIENT_BLOCKS
        assert result.candidates == []

    def test_partial_candidates_returned(self):
        result = best_fit(100, [], blocks(30, 20))
        assert result.state is FitState.INSUFFICIENT_BLOCKS
        assert result.candidate_bytes == 50

    def test_boundary_sum_is_sufficient(self):
        result = best_fit(50, [], blocks(30, 20))
        assert result.state is FitState.MULTIPLE_BLOCKS


class TestPaperExample:
    """Figure 1: blocks 2 (free) and 5 (free) serve allocation 6."""

    def test_figure1_stitching(self):
        free_blocks = blocks(3, 2)  # sizes of freed blocks 2 and 5
        result = best_fit(5, [], free_blocks)
        assert result.state is FitState.MULTIPLE_BLOCKS
        assert result.candidate_bytes == 5

    def test_fitstate_values_match_paper_numbering(self):
        assert FitState.EXACT_MATCH.value == 1
        assert FitState.SINGLE_BLOCK.value == 2
        assert FitState.MULTIPLE_BLOCKS.value == 3
        assert FitState.INSUFFICIENT_BLOCKS.value == 4
        assert FitState.OOM.value == 5
