"""Virtual address space: reservations for the VMM API.

``cuMemAddressReserve`` hands out GPU virtual address ranges with no
physical backing.  The VA space on real devices is vast (47+ bits), so a
simple bump allocator never collides in practice; we still track every
live reservation so that double-frees and out-of-range maps are caught,
and so tests can assert that reservations never overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import CudaInvalidAddressError, CudaInvalidValueError
from repro.units import align_up


@dataclass
class Reservation:
    """One live VA reservation."""

    va: int
    size: int


@dataclass
class VirtualAddressSpace:
    """Bump-pointer VA reservation tracker.

    Parameters
    ----------
    base:
        First address handed out; nonzero so address 0 is never valid.
    alignment:
        Every reservation start and size is aligned to this (2 MB, the
        CUDA VMM granularity).
    """

    base: int = 0x7F00_0000_0000
    alignment: int = 2 * 1024 * 1024
    _next: int = field(init=False)
    _reservations: Dict[int, Reservation] = field(default_factory=dict)
    total_reserved: int = 0

    def __post_init__(self):
        self._next = self.base

    def reserve(self, size: int) -> int:
        """Reserve ``size`` bytes of VA and return the start address."""
        if size <= 0:
            raise CudaInvalidValueError(f"reserve size must be positive, got {size}")
        aligned = align_up(size, self.alignment)
        va = self._next
        self._next += aligned
        self._reservations[va] = Reservation(va=va, size=aligned)
        self.total_reserved += aligned
        return va

    def get(self, va: int) -> Reservation:
        """Look up a live reservation by its start address."""
        res = self._reservations.get(va)
        if res is None:
            raise CudaInvalidAddressError(f"address {va:#x} is not a live reservation")
        return res

    def contains(self, va: int, offset: int, size: int) -> bool:
        """True if ``[va+offset, va+offset+size)`` lies inside the
        reservation starting at ``va``."""
        res = self._reservations.get(va)
        if res is None:
            return False
        return 0 <= offset and offset + size <= res.size

    def free(self, va: int) -> int:
        """``cuMemAddressFree``: release the reservation starting at ``va``.

        Returns the reservation's size.
        """
        res = self.get(va)
        del self._reservations[va]
        self.total_reserved -= res.size
        return res.size

    @property
    def live_count(self) -> int:
        """Number of live reservations."""
        return len(self._reservations)

    def overlaps(self) -> bool:
        """True if any two live reservations overlap (invariant check;
        always False for a correct bump allocator)."""
        spans = sorted((r.va, r.va + r.size) for r in self._reservations.values())
        for (_, end), (start, _) in zip(spans, spans[1:]):
            if start < end:
                return True
        return False
