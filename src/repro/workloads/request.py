"""Allocation trace model: the requests an allocator actually sees.

A trace is a flat list of events — tensor allocations and frees plus
iteration boundary markers.  Traces are deterministic functions of a
workload spec and a seed, so every experiment is reproducible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple


class Op(enum.Enum):
    """Trace event kinds."""

    ALLOC = "alloc"
    FREE = "free"
    ITER_START = "iter_start"
    ITER_END = "iter_end"


class TraceEvent(NamedTuple):
    """One event in an allocation trace.

    ``tensor`` names the logical tensor for ALLOC/FREE events (unique per
    allocation lifetime); for iteration markers it carries the iteration
    index as a string and ``size`` is 0.  Immutable, and a tuple: a
    trace holds one per event, so it is built without a per-field
    ``__setattr__``.
    """

    op: Op
    tensor: str
    size: int = 0


@dataclass
class TraceStats:
    """Aggregate statistics of a trace — the Figure 5 quantities."""

    n_allocs: int
    n_frees: int
    total_alloc_bytes: int
    mean_alloc_bytes: float
    n_iterations: int
    peak_live_bytes: int

    def __str__(self) -> str:
        mb = self.mean_alloc_bytes / (1024 * 1024)
        return (
            f"{self.n_allocs} allocations, mean size {mb:.1f} MB, "
            f"{self.n_iterations} iterations"
        )


@dataclass
class Trace:
    """A full allocation trace plus workload metadata.

    Attributes
    ----------
    events:
        The event list, in program order.
    meta:
        Free-form workload description (model, batch, strategies, ...).
    compute_us_per_iter:
        Simulated compute time of each iteration, added to the clock by
        the engine at iteration end; drives throughput measurements.
    """

    events: List[TraceEvent] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)
    compute_us_per_iter: List[float] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Builder helpers used by the trace generators
    # ------------------------------------------------------------------
    def alloc(self, tensor: str, size: int) -> None:
        """Append an allocation of ``size`` bytes for ``tensor``."""
        if size <= 0:
            raise ValueError(f"alloc size must be positive, got {size} for {tensor}")
        self.events.append(TraceEvent(Op.ALLOC, tensor, size))

    def free(self, tensor: str) -> None:
        """Append a free of ``tensor``."""
        self.events.append(TraceEvent(Op.FREE, tensor))

    def iter_start(self, index: int) -> None:
        """Mark the start of training iteration ``index``."""
        self.events.append(TraceEvent(Op.ITER_START, str(index)))

    def iter_end(self, index: int) -> None:
        """Mark the end of training iteration ``index``."""
        self.events.append(TraceEvent(Op.ITER_END, str(index)))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def validate(self) -> None:
        """Check trace well-formedness: every FREE matches a live ALLOC,
        no double-alloc of a live tensor, markers nest properly."""
        live: Dict[str, int] = {}
        in_iter = False
        for event in self.events:
            if event.op is Op.ALLOC:
                if event.tensor in live:
                    raise ValueError(f"tensor {event.tensor!r} allocated twice")
                live[event.tensor] = event.size
            elif event.op is Op.FREE:
                if event.tensor not in live:
                    raise ValueError(f"tensor {event.tensor!r} freed while not live")
                del live[event.tensor]
            elif event.op is Op.ITER_START:
                if in_iter:
                    raise ValueError("nested ITER_START")
                in_iter = True
            elif event.op is Op.ITER_END:
                if not in_iter:
                    raise ValueError("ITER_END without ITER_START")
                in_iter = False
        if in_iter:
            raise ValueError("trace ends inside an iteration")

    def stats(self) -> TraceStats:
        """Aggregate statistics (allocation count, mean size, peak)."""
        n_allocs = 0
        n_frees = 0
        total = 0
        live: Dict[str, int] = {}
        live_bytes = 0
        peak = 0
        iters = 0
        for event in self.events:
            if event.op is Op.ALLOC:
                n_allocs += 1
                total += event.size
                live[event.tensor] = event.size
                live_bytes += event.size
                peak = max(peak, live_bytes)
            elif event.op is Op.FREE:
                n_frees += 1
                live_bytes -= live.pop(event.tensor)
            elif event.op is Op.ITER_START:
                iters += 1
        mean = total / n_allocs if n_allocs else 0.0
        return TraceStats(
            n_allocs=n_allocs,
            n_frees=n_frees,
            total_alloc_bytes=total,
            mean_alloc_bytes=mean,
            n_iterations=iters,
            peak_live_bytes=peak,
        )
