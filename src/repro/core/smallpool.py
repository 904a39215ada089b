"""Small-allocation pool for requests below the 2 MB chunk size.

"GMLake uses VMM to tackle allocation larger than 2MB.  For memory
allocation less than 2MB, we use the original PyTorch splitting method
of the caching allocator to deal with its internal fragmentation
issues.  Moreover, allocation < 2MB is rare in LLM training." (§3.1)

We embed a private BFC caching allocator restricted to small requests;
its reserved segments count toward GMLake's reserved bytes.
"""

from __future__ import annotations

from typing import Dict

from repro.allocators.base import Allocation
from repro.allocators.caching import CachingAllocator
from repro.gpu.device import GpuDevice


class SmallPool:
    """Splitting pool for sub-chunk requests (delegates to BFC)."""

    def __init__(self, device: GpuDevice):
        self._inner = CachingAllocator(device)
        self._by_ptr: Dict[int, Allocation] = {}

    def malloc(self, size: int) -> "tuple[int, int]":
        """Allocate; returns ``(ptr, rounded_size)``."""
        alloc = self._inner.malloc(size)
        self._by_ptr[alloc.ptr] = alloc
        return alloc.ptr, alloc.rounded_size

    def free(self, ptr: int) -> None:
        """Free by pointer."""
        alloc = self._by_ptr.pop(ptr)
        self._inner.free(alloc)

    def malloc_free(self, size: int) -> int:
        """Allocate and free at once; returns the rounded size."""
        return self._inner.malloc_free(size)

    def owns(self, ptr: int) -> bool:
        """True if ``ptr`` is a live small-pool allocation."""
        return ptr in self._by_ptr

    @property
    def reserved_bytes(self) -> int:
        """Physical bytes held by the small pool's segments."""
        return self._inner.reserved_bytes

    def empty_cache(self) -> None:
        """Release wholly-free small segments."""
        self._inner.empty_cache()

    @property
    def live_count(self) -> int:
        """Outstanding small allocations."""
        return len(self._by_ptr)
