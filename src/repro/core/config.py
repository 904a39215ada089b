"""GMLake configuration knobs.

Defaults follow §3–§4 of the paper; every knob is swept by an ablation
artefact (the ``ablation-*`` ids in ``benchmarks/paper_artefacts.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import MB


@dataclass(frozen=True)
class GMLakeConfig:
    """Tunable parameters of the GMLake allocator.

    Attributes
    ----------
    chunk_size:
        Uniform physical chunk size.  The paper fixes 2 MB ("we apply a
        uniform chunk size of 2 MB across all chunks", §3.1) and
        mitigates the per-chunk API cost with pooling.
    small_threshold:
        Requests strictly below this go to the embedded splitting small
        pool instead of the VMM path ("For memory allocation less than
        2MB, we use the original PyTorch splitting method", §3.1).
    fragmentation_limit:
        Blocks smaller than this are neither split nor used as stitching
        candidates (§4.3, "e.g., 128 MB").  The default here equals the
        chunk size — i.e. the filter is off — because stitching is the
        only coalescing mechanism GMLake has: with a large limit, split
        remainders below the limit become permanently unusable and
        reserved memory leaks a little every iteration (demonstrated by
        the ``ablation-fragmentation-limit`` paper artefact).  The
        paper can afford 128 MB because its real traces allocate
        multi-GB blocks; the knob is kept for the ablation.
    max_spool_blocks:
        StitchFree releases least-recently-used inactive sBlocks once the
        stitched pool exceeds this many entries (§4.3 robustness
        fallback).  Must comfortably exceed the number of distinct
        stitched sizes per training iteration or the LRU thrashes.
    va_oversubscription:
        Cap on total live virtual address reservations, as a multiple of
        device capacity; sBlocks alias pBlock chunks so VA use exceeds
        physical use, but it cannot grow without bound (§4.3).  GPU VA
        space is 48-bit (hundreds of TB), so the default is generous —
        a tight cap forces StitchFree to evict converged compositions
        and re-stitch every iteration (see the sPool ablation bench).
    stitch_after_split:
        Figure 9 state S2 stitches the two halves of a split back into an
        sBlock so the original size can be served by exact match later.
    enable_stitch:
        Ablation switch: with stitching disabled the allocator degrades
        to a pooled VMM allocator that can only split (S3 and the S4
        stitch are skipped).
    """

    chunk_size: int = 2 * MB
    small_threshold: int = 2 * MB
    fragmentation_limit: int = 2 * MB
    max_spool_blocks: int = 4096
    va_oversubscription: float = 64.0
    stitch_after_split: bool = True
    enable_stitch: bool = True

    def __post_init__(self):
        if self.chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {self.chunk_size}")
        if self.small_threshold < 0:
            raise ValueError("small_threshold must be non-negative")
        if self.fragmentation_limit < self.chunk_size:
            raise ValueError(
                "fragmentation_limit must be at least one chunk "
                f"({self.chunk_size}), got {self.fragmentation_limit}"
            )
        if self.max_spool_blocks < 0:
            raise ValueError("max_spool_blocks must be non-negative")
        if self.va_oversubscription < 1.0:
            raise ValueError("va_oversubscription must be >= 1.0")
