"""Physical device memory: capacity accounting and chunk handles.

Real GPUs hand out *physical allocation handles* through ``cuMemCreate``;
the handle owns physical pages until the last mapping is unmapped **and**
the handle is released.  :class:`PhysicalMemory` reproduces exactly that
refcounted lifetime, plus byte-accurate capacity accounting.  The
paper's "reserved memory" peak is the allocator's to keep
(``BaseAllocator.peak_reserved_bytes``).

Handles are issued in increasing order, and GMLake backs a pBlock with
a run of them made in a row, then maps, stitches and unmaps whole runs.
So :class:`PhysicalMemory` keeps one record (:class:`_Run`) per run of
consecutive handles in one state, not one per 2 MB chunk: ``back``
makes a run in one step, and a retain or release over a run of
consecutive handles changes its record once.  A record splits only
where such a range ends inside it, and never merges.  ``get`` and
``chunks`` answer per chunk, as if each had its own record.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.errors import CudaInvalidValueError, CudaOutOfMemoryError
from repro.units import fmt_bytes


class PhysicalChunk(NamedTuple):
    """One physical allocation created by ``cuMemCreate``, as
    :meth:`PhysicalMemory.get` reports it (a snapshot).

    Attributes
    ----------
    handle:
        Opaque integer identifier returned to the caller.
    size:
        Chunk size in bytes.
    refcount:
        1 for the live handle itself plus 1 per active VA mapping.  The
        chunk's bytes return to the device only when this reaches zero,
        which is what lets GMLake's sBlocks alias a pBlock's chunks
        without ever owning memory.
    released:
        True once ``cuMemRelease`` dropped the creation reference; further
        releases are errors even if mappings keep the chunk alive.
    """

    handle: int
    size: int
    refcount: int = 1
    released: bool = False


@dataclass(slots=True)
class _Run:
    """The ``n`` chunks ``first``, ``first + 1``, ... of ``size`` bytes
    each, all with the same ``refcount`` and ``released``."""

    first: int
    n: int
    size: int
    refcount: int = 1
    released: bool = False


def _consecutive(handles: Sequence[int], i: int, k: int) -> int:
    """How many of the ``k`` handles from ``handles[i]`` on count up by
    one from it (at least 1)."""
    h = handles[i]
    if k == 1 or list(handles[i:i + k]) == list(range(h, h + k)):
        return k
    n = 1
    while handles[i + n] == h + n:
        n += 1
    return n


@dataclass
class PhysicalMemory:
    """Byte-accurate model of one device's physical memory.

    Parameters
    ----------
    capacity:
        Total device memory in bytes (80 GB for the paper's A100s).
    """

    capacity: int
    committed: int = 0
    _next_handle: int = 1
    # First handle -> its run, and every run's first handle, ascending.
    _runs: Dict[int, _Run] = field(default_factory=dict, repr=False)
    _firsts: List[int] = field(default_factory=list, repr=False)

    def __post_init__(self):
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")

    # ------------------------------------------------------------------
    @property
    def free(self) -> int:
        """Bytes not currently committed to any live chunk."""
        return self.capacity - self.committed

    @property
    def live_chunk_count(self) -> int:
        """Number of chunks still holding physical memory."""
        return sum(run.n for run in self._runs.values())

    def create(self, size: int) -> int:
        """Commit ``size`` bytes and return a fresh handle.

        Raises
        ------
        CudaInvalidValueError
            If ``size`` is not positive.
        CudaOutOfMemoryError
            If the device does not have ``size`` free bytes.
        """
        if size <= 0:
            raise CudaInvalidValueError(f"cuMemCreate size must be positive, got {size}")
        if size > self.capacity - self.committed:
            raise CudaOutOfMemoryError(size, self.free, self.capacity)
        handle = self._next_handle
        self._next_handle = handle + 1
        self._runs[handle] = _Run(handle, 1, size)
        self._firsts.append(handle)  # the greatest handle yet
        self.committed += size
        return handle

    def create_run(self, size: int, n: int) -> Optional[List[int]]:
        """``n`` creates of ``size`` bytes in a row, as one record;
        returns their handles.  Makes none, raising
        :class:`CudaOutOfMemoryError`, if they do not all fit."""
        if size <= 0 or n <= 0:
            raise CudaInvalidValueError(
                f"cannot create {n} chunks of {size} bytes")
        if n * size > self.free:
            raise CudaOutOfMemoryError(n * size, self.free, self.capacity)
        first = self._next_handle
        self._next_handle = first + n
        self._runs[first] = _Run(first, n, size)
        self._firsts.append(first)
        self.committed += n * size
        return list(range(first, first + n))

    def get(self, handle: int) -> PhysicalChunk:
        """Look up a live chunk by handle."""
        run = self._run_of(handle)
        if run is None:
            raise CudaInvalidValueError(f"unknown or destroyed physical handle {handle}")
        return PhysicalChunk(handle, run.size, run.refcount, run.released)

    def chunks(self) -> Dict[int, PhysicalChunk]:
        """Every live chunk by handle, in handle order."""
        return {handle: PhysicalChunk(handle, run.size, run.refcount,
                                      run.released)
                for run in map(self._runs.__getitem__, self._firsts)
                for handle in range(run.first, run.first + run.n)}

    def retain(self, *handles: int, size: Optional[int] = None) -> None:
        """Add a reference to each of ``handles`` (called by the VMM layer
        on ``cuMemMap``).  Either every handle is a live chunk, of
        ``size`` bytes if given, and each gains one reference, or none
        does.  Consecutive handles in one record gain theirs at once."""
        i, n = 0, len(handles)
        while i < n:
            handle = handles[i]
            run = self._run_of(handle)
            if run is None or size is not None and run.size != size:
                self.release_refs(handles[:i])  # back to where they were
                for handle in handles:  # a dead one raises first
                    self.get(handle)
                raise CudaInvalidValueError(
                    f"expected {size}-byte chunks, got one of another size")
            k = _consecutive(handles, i, min(run.first + run.n - handle, n - i))
            self._cut(run, handle, k).refcount += 1
            i += k

    def release_refs(self, handles: Sequence[int]) -> None:
        """Drop one mapping reference from each of ``handles`` in turn,
        destroying a chunk at zero; a dead handle raises after the
        references before it are dropped.
        Consecutive handles in one record drop theirs at once."""
        i, n = 0, len(handles)
        while i < n:
            handle = handles[i]
            run = self._run_of(handle)
            if run is None:
                self.get(handle)  # raises
            k = _consecutive(handles, i, min(run.first + run.n - handle, n - i))
            run = self._cut(run, handle, k)
            run.refcount -= 1
            if not run.refcount:
                self._destroy(run)
            i += k

    def release(self, handle: int) -> None:
        """``cuMemRelease``: drop the creation reference.

        The chunk keeps its bytes while mappings remain (refcount > 0).
        """
        run = self._run_of(handle)
        if run is None:
            self.get(handle)  # raises
        if run.released:
            raise CudaInvalidValueError(f"physical handle {handle} released twice")
        if run.n > 1:
            run = self._cut(run, handle, 1)
        run.released = True
        run.refcount -= 1
        if not run.refcount:
            self._destroy(run)

    # ------------------------------------------------------------------
    def _run_of(self, handle: int) -> Optional[_Run]:
        """The record holding ``handle``, or None if it is not live."""
        run = self._runs.get(handle)
        if run is None:
            firsts = self._firsts
            at = bisect.bisect_right(firsts, handle) - 1
            if at >= 0:
                run = self._runs[firsts[at]]
                if handle >= run.first + run.n:
                    return None
        return run

    def _cut(self, run: _Run, handle: int, k: int) -> _Run:
        """The record of exactly ``k`` chunks from ``handle``, split off
        ``run``, which holds them."""
        if handle + k < run.first + run.n:
            self._split(run, handle + k)
        if handle > run.first:
            run = self._split(run, handle)
        return run

    def _split(self, run: _Run, at: int) -> _Run:
        """Cut ``run`` before handle ``at``; returns the part from it."""
        tail = _Run(at, run.first + run.n - at, run.size, run.refcount,
                    run.released)
        run.n = at - run.first
        self._runs[at] = tail
        bisect.insort(self._firsts, at)
        return tail

    def _destroy(self, run: _Run) -> None:
        del self._runs[run.first]
        firsts = self._firsts
        del firsts[bisect.bisect_left(firsts, run.first)]
        self.committed -= run.n * run.size

    def refuse_creates(self, size: int, n: int) -> Optional[int]:
        """``n`` creates of ``size`` bytes in a row, one failing, then the
        destruction of those made: spends their handles and returns how
        many were made (``committed`` ends where it began)."""
        made = self.free // size
        self._next_handle += made
        return made

    def check_invariants(self) -> None:
        """The records are disjoint, indexed by their first handles in
        order, below the next handle, alive, and add up to
        ``committed``."""
        firsts = self._firsts
        assert firsts == sorted(self._runs), "run index drifted"
        end = 1
        for run in map(self._runs.__getitem__, firsts):
            assert run.first >= end and run.n >= 1 and run.refcount >= 1, run
            end = run.first + run.n
        assert end <= self._next_handle, "a run past the next handle"
        assert self.committed == sum(
            run.n * run.size for run in self._runs.values()), (
            "committed bytes drifted")

    def __repr__(self) -> str:
        return (
            f"PhysicalMemory(committed={fmt_bytes(self.committed)}/"
            f"{fmt_bytes(self.capacity)}, chunks={self.live_chunk_count})"
        )
