"""The BestFit function — Algorithm 1 of the paper, verbatim.

Given a request size and the inactive blocks of both pools (sorted in
descending size order), classify the situation into one of four states
and return the candidate blocks the allocation strategy (Figure 9) will
post-process:

* **S1 exact match** — a block (sBlock or pBlock) of exactly the
  requested size exists; the only state that may return an sBlock.
* **S2 single block** — the best-fit (smallest sufficient) pBlock is
  larger than the request; it will be split.
* **S3 multiple blocks** — no single pBlock suffices but several
  together do; they will be stitched.
* **S4 insufficient blocks** — even all candidates together fall short;
  a new pBlock must be allocated (and stitched with the candidates).

:func:`best_fit` is the definition.  ``GMLakeAllocator._run_best_fit``
answers the same over the pPool's scan order without copying it: it
walks only the blocks next to the request.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import List, Sequence, Union

from repro.core.pblock import PBlock
from repro.core.sblock import SBlock


class FitState(enum.IntEnum):
    """Outcome states of Algorithm 1 plus the OOM terminal state S5."""

    EXACT_MATCH = 1
    SINGLE_BLOCK = 2
    MULTIPLE_BLOCKS = 3
    INSUFFICIENT_BLOCKS = 4
    OOM = 5


@dataclass
class BestFitResult:
    """State and candidate blocks returned by :func:`best_fit`.

    ``candidates`` holds pBlocks except in the EXACT_MATCH state, where
    the single entry may be an sBlock.
    """

    state: FitState
    candidates: List[Union[PBlock, SBlock]]

    @property
    def candidate_bytes(self) -> int:
        """Total size of the candidate blocks."""
        return sum(b.size for b in self.candidates)


def best_fit(
    bsize: int,
    inactive_sblocks: Sequence[SBlock],
    inactive_pblocks: Sequence[PBlock],
    min_stitch_size: int = 0,
) -> BestFitResult:
    """Algorithm 1: classify a request against the inactive blocks.

    Parameters
    ----------
    bsize:
        Requested allocation size (already rounded to chunk granularity).
    inactive_sblocks / inactive_pblocks:
        Inactive blocks sorted in **descending** size order, as the paper
        assumes ("both sPool and pPool are sorted in descending order").
    min_stitch_size:
        The fragmentation limit (§4.3): pBlocks smaller than this are
        skipped when gathering multi-block stitching candidates, though
        they may still serve an exact match.

    Returns
    -------
    BestFitResult
        State S1–S4 and the candidate block list.
    """
    # S1: exact match over the union of both pools (lines 2-4).
    for block in itertools.chain(inactive_sblocks, inactive_pblocks):
        if block.size == bsize:
            return BestFitResult(FitState.EXACT_MATCH, [block])

    # Candidate gathering over pBlocks only (lines 5-15).
    cb: List[PBlock] = []
    cb_size = 0
    for block in inactive_pblocks:
        if block.size >= bsize:
            # Descending scan: each sufficient block replaces the last,
            # leaving the *smallest* sufficient block — the best fit.
            cb = [block]
            cb_size = block.size
        elif cb_size < bsize:
            if block.size < min_stitch_size:
                continue
            cb.append(block)
            cb_size += block.size
        else:
            break

    if len(cb) == 1 and cb_size > bsize:
        return BestFitResult(FitState.SINGLE_BLOCK, cb)
    if cb_size >= bsize:
        return BestFitResult(FitState.MULTIPLE_BLOCKS, cb)
    return BestFitResult(FitState.INSUFFICIENT_BLOCKS, cb)
