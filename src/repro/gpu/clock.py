"""Simulated wall clock.

Every component that models time (driver API calls, kernel compute,
host/device transfers) advances one shared :class:`SimClock`.  Time is a
float microsecond count; experiments convert to seconds for reporting
(e.g. the x-axis of the paper's Figure 14 memory trace).
"""

from __future__ import annotations


def repeated_add(total: float, step: float, count: int) -> float:
    """``total`` with ``step`` added ``count`` times, one float add at a
    time: float addition is not associative, so this is not
    ``total + count * step``."""
    for _ in range(count):
        total += step
    return total


class SimClock:
    """A monotonically advancing simulated clock.

    The clock never goes backwards; :meth:`advance` with a negative
    duration is a programming error and raises ``ValueError``.
    """

    __slots__ = ("_now_us",)

    def __init__(self, start_us: float = 0.0):
        if start_us < 0:
            raise ValueError(f"start_us must be non-negative, got {start_us}")
        self._now_us = float(start_us)

    @property
    def now_us(self) -> float:
        """Current simulated time in microseconds."""
        return self._now_us

    @property
    def now_s(self) -> float:
        """Current simulated time in seconds."""
        return self._now_us / 1e6

    def advance(self, duration_us: float) -> float:
        """Advance the clock by ``duration_us`` and return the new time."""
        if duration_us < 0:
            raise ValueError(f"cannot advance clock by {duration_us} us")
        self._now_us += duration_us
        return self._now_us

    def advance_many(self, duration_us: float, count: int) -> float:
        """Advance the clock ``count`` times by ``duration_us`` and return
        the new time, exactly as ``count`` calls of :meth:`advance`."""
        if duration_us < 0:
            raise ValueError(f"cannot advance clock by {duration_us} us")
        self._now_us = repeated_add(self._now_us, duration_us, count)
        return self._now_us

    def advance_to(self, now_us: float) -> float:
        """Set the clock to ``now_us`` (not in the past): where a caller
        that summed its advances on a copy of :attr:`now_us` got to."""
        if now_us < self._now_us:
            raise ValueError(f"cannot move clock back to {now_us} us")
        self._now_us = now_us
        return now_us

    def __repr__(self) -> str:
        return f"SimClock(now_us={self._now_us:.3f})"
