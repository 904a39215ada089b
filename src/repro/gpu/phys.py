"""Physical device memory: capacity accounting and chunk handles.

Real GPUs hand out *physical allocation handles* through ``cuMemCreate``;
the handle owns physical pages until the last mapping is unmapped **and**
the handle is released.  :class:`PhysicalMemory` reproduces exactly that
refcounted lifetime, plus byte-accurate capacity accounting.  The
paper's "reserved memory" peak is the allocator's to keep
(``BaseAllocator.peak_reserved_bytes``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.errors import CudaInvalidValueError, CudaOutOfMemoryError
from repro.units import fmt_bytes


@dataclass
class PhysicalChunk:
    """One physical allocation created by ``cuMemCreate``.

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
    _chunks: Dict[int, PhysicalChunk] = field(default_factory=dict)
    _next_handle: int = 1

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
        return len(self._chunks)

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
        if size > self.free:
            raise CudaOutOfMemoryError(size, self.free, self.capacity)
        handle = self._next_handle
        self._next_handle += 1
        self._chunks[handle] = PhysicalChunk(handle=handle, size=size)
        self.committed += size
        return handle

    def get(self, handle: int) -> PhysicalChunk:
        """Look up a live chunk by handle."""
        chunk = self._chunks.get(handle)
        if chunk is None:
            raise CudaInvalidValueError(f"unknown or destroyed physical handle {handle}")
        return chunk

    def retain(self, *handles: int, size: Optional[int] = None) -> None:
        """Add a reference to each of ``handles`` (called by the VMM layer
        on ``cuMemMap``).  Either every handle is a live chunk, of
        ``size`` bytes if given, and each gains one reference, or none
        does."""
        chunks = self._chunks
        for i, handle in enumerate(handles):
            chunk = chunks.get(handle)
            if chunk is None or size is not None and chunk.size != size:
                for done in handles[:i]:
                    chunks[done].refcount -= 1
                for handle in handles:  # a dead one raises first
                    self.get(handle)
                raise CudaInvalidValueError(
                    f"expected {size}-byte chunks, got one of another size")
            chunk.refcount += 1

    def release_ref(self, handle: int) -> None:
        """Drop one mapping reference; destroy the chunk at zero."""
        self.release_refs((handle,))

    def release_refs(self, handles: Iterable[int]) -> None:
        """:meth:`release_ref` each of ``handles`` in turn; a dead
        handle raises after the references before it are dropped."""
        chunks = self._chunks
        for handle in handles:
            chunk = chunks.get(handle) or self.get(handle)
            chunk.refcount -= 1
            if chunk.refcount == 0:
                self._destroy(chunk)

    def release(self, handle: int) -> None:
        """``cuMemRelease``: drop the creation reference.

        The chunk keeps its bytes while mappings remain (refcount > 0).
        """
        chunk = self.get(handle)
        if chunk.released:
            raise CudaInvalidValueError(f"physical handle {handle} released twice")
        chunk.released = True
        self.release_ref(handle)

    def _destroy(self, chunk: PhysicalChunk) -> None:
        del self._chunks[chunk.handle]
        self.committed -= chunk.size

    def refuse_creates(self, size: int, n: int) -> Optional[int]:
        """``n`` creates of ``size`` bytes in a row, one failing, then the
        destruction of those made: spends their handles and returns how
        many were made (``committed`` ends where it began).  ``None``,
        doing nothing, if a fault injector
        (:class:`repro.testing.FlakyDevice`) replaced ``create``."""
        if "create" in vars(self):
            return None
        made = self.free // size
        self._next_handle += made
        return made

    def __repr__(self) -> str:
        return (
            f"PhysicalMemory(committed={fmt_bytes(self.committed)}/"
            f"{fmt_bytes(self.capacity)}, chunks={len(self._chunks)})"
        )
