"""GMLake: the paper's primary contribution.

The allocator (§3) is built from three layers, mirroring Figure 7:

1. **Virtual memory API** — the simulated driver in :mod:`repro.gpu.vmm`.
2. **Virtual memory pool** — :class:`~repro.core.pblock.PBlock` /
   :class:`~repro.core.sblock.SBlock` cached in the primitive and
   stitched pools (:mod:`repro.core.pools`).
3. **GMLake allocator** — :class:`~repro.core.allocator.GMLakeAllocator`
   implementing the BestFit states S1–S4 (Algorithm 1), the allocation
   strategy of Figure 9, and the Update / StitchFree deallocation module.
"""

from repro.core.allocator import GMLakeAllocator
from repro.core.bestfit import FitState
from repro.core.config import GMLakeConfig
from repro.core.pblock import PBlock
from repro.core.pools import PPool, SPool
from repro.core.sblock import SBlock

__all__ = [
    "GMLakeAllocator",
    "GMLakeConfig",
    "PBlock",
    "SBlock",
    "PPool",
    "SPool",
    "FitState",
]
