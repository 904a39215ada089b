"""The states of BestFit — Algorithm 1 of the paper.

Given a request size and the inactive blocks of both pools (sorted in
descending size order), BestFit classifies the situation into one of
four states and returns the candidate blocks the allocation strategy
(Figure 9) will post-process:

* **S1 exact match** — a block (sBlock or pBlock) of exactly the
  requested size exists; the only state that may return an sBlock.
* **S2 single block** — the best-fit (smallest sufficient) pBlock is
  larger than the request; it will be split.
* **S3 multiple blocks** — no single pBlock suffices but several
  together do; they will be stitched.
* **S4 insufficient blocks** — even all candidates together fall short;
  a new pBlock must be allocated (and stitched with the candidates).

Algorithm 1 over copies of both pools is the definition, ``best_fit``
in ``tests/reference.py``.  ``GMLakeAllocator._run_best_fit`` answers
the same over the pPool's scan order without copying it: it walks only
the blocks next to the request.
"""

from __future__ import annotations

import enum


class FitState(enum.IntEnum):
    """Outcome states of Algorithm 1 plus the OOM terminal state S5."""

    EXACT_MATCH = 1
    SINGLE_BLOCK = 2
    MULTIPLE_BLOCKS = 3
    INSUFFICIENT_BLOCKS = 4
    OOM = 5
