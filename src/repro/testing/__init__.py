"""Reusable test doubles for exercising failure paths.

The production fault models (:mod:`repro.serve.faults`) inject failures
at the *serving* layer — replicas crash, links degrade.  The doubles
here inject failures one layer down, at the *driver* boundary, so
allocator invariants can be checked under arbitrary mid-operation OOM.
They live in the package (not under ``tests/``) so every test module —
and downstream users writing their own allocators — can import them.
"""

import itertools

from repro.errors import CudaOutOfMemoryError
from repro.gpu.device import GpuDevice

__all__ = ["FlakyDevice"]


class FlakyDevice(GpuDevice):
    """A device whose physical allocator fails on chosen call numbers.

    ``fail_on`` is an iterable of 1-based ``cuMemCreate`` call indices;
    each listed call raises :class:`CudaOutOfMemoryError` instead of
    mapping memory.  Failures are transient by construction — the next
    non-listed call succeeds — which is exactly the shape allocator
    reclaim/retry paths must survive without leaking chunks or
    stranding VA reservations.  Its ``phys`` answers ``None`` to
    ``create_run`` and ``refuse_creates``, so a back makes its chunks
    one ``create`` at a time and every one can be the failing call.
    """

    def __init__(self, capacity, fail_on=()):
        super().__init__(capacity=capacity)
        self._create_calls = itertools.count(1)
        self._fail_on = set(fail_on)
        original_create = self.phys.create

        def flaky_create(size):
            call = next(self._create_calls)
            if call in self._fail_on:
                raise CudaOutOfMemoryError(size, self.phys.free, capacity)
            return original_create(size)

        self.phys.create = flaky_create
        self.phys.create_run = self.phys.refuse_creates = (
            lambda size, n: None)
