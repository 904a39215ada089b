"""Trace replay engine.

``run_trace`` feeds a :class:`~repro.workloads.request.Trace` to an
allocator on a fresh simulated device, advancing the clock by both the
allocator's driver/host costs and the workload's per-iteration compute
time, and records everything the paper's figures need: peak
active/reserved memory, utilization, OOM events, per-iteration wall
times and a memory timeline.

:class:`ReplaySession` is the stepping layer underneath ``run_trace``:
it owns the table of a trace's named tensors and OOM-tolerant
allocation, but leaves the *event loop* to the caller.  The online
serving simulator (:mod:`repro.serve`) keeps one per replica as its
clock and calls the allocator itself, holding the handles it is given.
:class:`AllocationRecorder` turns such a run's allocator stream back
into a trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.allocators.base import (
    Allocation,
    AllocatorObserver,
    BaseAllocator,
    SteadyState,
)
from repro.allocators.stats import MemoryHeadline
from repro.api.spec import SpecLike, resolve_allocator
from repro.errors import OutOfMemoryError
from repro.gpu.clock import repeated_add
from repro.gpu.device import GpuDevice
from repro.sim.timeline import TimelinePoint, TimelineRecorder
from repro.units import A100_80GB
from repro.workloads.request import Op, Trace, TraceEvent
from repro.workloads.training import TrainingWorkload

AllocatorFactory = Callable[[GpuDevice], BaseAllocator]


@dataclass
class EngineResult(MemoryHeadline):
    """Everything measured from one trace replay."""

    allocator_name: str
    meta: Dict[str, object]
    peak_active_bytes: int = 0
    peak_reserved_bytes: int = 0
    oom: bool = False
    oom_iteration: Optional[int] = None
    oom_time_s: Optional[float] = None
    iterations_completed: int = 0
    total_time_s: float = 0.0
    iter_times_s: List[float] = field(default_factory=list)
    throughput_samples_per_s: float = 0.0
    driver_time_us: float = 0.0
    host_time_us: float = 0.0
    malloc_count: int = 0
    timeline: List[TimelinePoint] = field(default_factory=list)
    #: The iteration whose repeats the replay made in closed form (the
    #: first such), or ``None``: every iteration after it left the
    #: allocator as it found it.  Not in :meth:`extras`.
    converged_at: Optional[int] = None

    @property
    def throughput(self) -> float:
        """Training samples/s — the :class:`repro.api.RunResult` name."""
        return self.throughput_samples_per_s

    def extras(self) -> Dict[str, object]:
        """Replay-specific metrics beyond the shared
        :class:`repro.api.RunResult` surface."""
        return {
            "iterations_completed": self.iterations_completed,
            "oom_iteration": self.oom_iteration,
            "total_time_s": self.total_time_s,
            "driver_time_us": self.driver_time_us,
            "malloc_count": self.malloc_count,
        }

    def summary(self) -> str:
        """One-line report used by the benches."""
        oom = f" OOM@iter{self.oom_iteration}" if self.oom else ""
        return (
            f"{self.allocator_name:8s} reserved={self.peak_reserved_gb:6.2f}GB "
            f"active={self.peak_active_gb:6.2f}GB "
            f"util={self.utilization_ratio:5.1%} "
            f"thru={self.throughput_samples_per_s:7.2f} samp/s{oom}"
        )


class AllocationRecorder(AllocatorObserver):
    """Observer that writes an allocator's stream as a :class:`Trace`.

    Attach with ``allocator.add_observer(AllocationRecorder())`` before
    the first malloc: every ``on_alloc`` / ``on_free`` appends an ALLOC
    / FREE of the tensor ``a<alloc_id>``, so :func:`run_trace` replays
    the stream on any allocator (open-loop: no compute time, no
    iterations).  An OOM raises instead: a stream that met memory
    pressure carries the recorded allocator's decisions, so a recording
    is always an unpressured one.  With an observer attached every run
    operation fires its per-call hooks, so no call goes unrecorded.
    """

    def __init__(self):
        self.trace = Trace()

    def on_alloc(self, allocator: BaseAllocator, allocation: Allocation) -> None:
        self.trace.alloc(f"a{allocation.alloc_id}", allocation.size)

    def on_free(self, allocator: BaseAllocator, allocation: Allocation) -> None:
        self.trace.free(f"a{allocation.alloc_id}")

    def on_oom(self, allocator: BaseAllocator, size: int, error) -> None:
        raise RuntimeError(
            f"recorded run met an OOM ({size} bytes on {allocator.name}); "
            "a recording must run with ample capacity")


class ReplaySession:
    """A stepping interface over one allocator for event-driven loops.

    The session tracks live tensors by the names a trace gives them and
    converts allocator OOMs into a boolean outcome (:meth:`try_alloc`)
    for callers that recover instead of crashing.  It keeps no byte
    total of its own: the allocator counts ``active_bytes``, and a sum
    over :attr:`live` is exact when wanted.
    ``run_trace`` drives it from a pre-built trace; a serving replica
    (:mod:`repro.serve`) uses only its clock (:attr:`elapsed_s`,
    :meth:`advance`).
    """

    def __init__(self, allocator: BaseAllocator):
        self.allocator = allocator
        self.clock = allocator.device.clock
        self.start_s = self.clock.now_s
        self.live: Dict[str, Allocation] = {}

    # ------------------------------------------------------------------
    @property
    def elapsed_s(self) -> float:
        """Seconds of simulated time since the session started."""
        return self.clock.now_s - self.start_s

    # ------------------------------------------------------------------
    def alloc(self, tensor: str, size: int) -> Allocation:
        """Allocate ``size`` bytes for ``tensor``; OOM propagates."""
        if tensor in self.live:
            raise ValueError(f"tensor {tensor!r} allocated twice")
        allocation = self.allocator.malloc(size)
        self.live[tensor] = allocation
        return allocation

    def try_alloc(self, tensor: str, size: int) -> bool:
        """Allocate for ``tensor``; return ``False`` on OOM.

        The failed driver/host time still elapses on the clock — a real
        allocator burns time before discovering it cannot satisfy a
        request, and online schedulers should pay for that.
        """
        try:
            self.alloc(tensor, size)
            return True
        except OutOfMemoryError:
            return False

    def free(self, tensor: str) -> None:
        """Free the live tensor named ``tensor``."""
        allocation = self.live.pop(tensor, None)
        if allocation is None:
            raise ValueError(f"trace frees unknown tensor {tensor!r}")
        self.allocator.free(allocation)

    def advance(self, duration_us: float) -> None:
        """Advance the simulated clock (compute time between events)."""
        self.clock.advance(duration_us)

    def finish(self, result: EngineResult) -> None:
        """Fill allocator-side statistics into ``result``."""
        stats = self.allocator.stats()
        result.peak_active_bytes = stats.peak_active_bytes
        result.peak_reserved_bytes = stats.peak_reserved_bytes
        result.driver_time_us = stats.driver_time_us
        result.host_time_us = stats.host_time_us
        result.malloc_count = stats.malloc_count
        result.total_time_s = self.elapsed_s


def run_trace(
    allocator: BaseAllocator,
    trace: Trace,
    record_timeline: bool = False,
    timeline_every: int = 32,
) -> EngineResult:
    """Replay ``trace`` against ``allocator`` and measure the outcome.

    An allocator OOM aborts the replay (like the training job crashing)
    and is recorded in the result rather than raised — batch-size sweeps
    (Fig. 13) and the memory trace (Fig. 14) rely on observing it.

    Timeline capture subscribes to the allocator's event hooks
    (:class:`~repro.sim.timeline.TimelineRecorder`) rather than being
    baked into this loop; ``timeline_every`` counts alloc/free events.

    A converged iteration is replayed once and then repeated in closed
    form.  Say an iteration has the previous one's signature (each
    ALLOC's size, each FREE as the position of its ALLOC), frees every
    tensor it allocates, and leaves the allocator's
    :meth:`~repro.allocators.base.BaseAllocator.steady_state` shape as
    it found it.  Then the ``k`` iterations right after it with the same
    signature make the same calls and decisions again.  Their clock
    adds are made in order (each call's host-time spend, then the
    compute time), and ``repeat_steady`` advances the allocator's
    counts.  ``converged_at`` names the iteration that was repeated.
    An allocator that answers no steady state (``native``,
    ``vmm-naive``, any observed one) replays every call.
    """
    session = ReplaySession(allocator)
    clock = session.clock
    result = EngineResult(
        allocator_name=allocator.name,
        meta=dict(trace.meta),
    )
    recorder: Optional[TimelineRecorder] = None
    if record_timeline:
        recorder = allocator.add_observer(
            TimelineRecorder(allocator, every=timeline_every))
    events = trace.events
    compute_list = trace.compute_us_per_iter
    repeats: Dict[int, Tuple[int, int]] = {}
    if allocator.steady_state() is not None:
        repeats = _repeats(events)
    us = allocator.device.latency.cached_op_us
    probe: Optional[Tuple[int, int, SteadyState, float]] = None
    iter_start_s = session.start_s
    current_iter = 0

    pos, end = 0, len(events)
    while pos < end:
        event = events[pos]
        pos += 1
        if event.op is Op.ALLOC:
            if not session.try_alloc(event.tensor, event.size):
                result.oom = True
                result.oom_iteration = current_iter
                result.oom_time_s = session.elapsed_s
                break
        elif event.op is Op.FREE:
            session.free(event.tensor)
        elif event.op is Op.ITER_START:
            current_iter = int(event.tensor)
            iter_start_s = clock.now_s
            if pos - 1 in repeats:
                probe = (*repeats[pos - 1], allocator.steady_state(),
                         clock.now_us)
        elif event.op is Op.ITER_END:
            k = 0
            if probe is not None:
                k, span, before, start_us = probe
                probe = None
                after = allocator.steady_state()
                spends = after.spends - before.spends
                # The iteration's clock adds were its host-time spends.
                if (after.shape != before.shape
                        or repeated_add(start_us, us, spends) != clock.now_us):
                    k = 0
            if current_iter < len(compute_list):
                clock.advance(compute_list[current_iter])
            result.iterations_completed += 1
            result.iter_times_s.append(clock.now_s - iter_start_s)
            if k:
                allocator.repeat_steady(before, after, k)
                if result.converged_at is None:
                    result.converged_at = current_iter
                for _ in range(k):
                    current_iter = int(events[pos].tensor)
                    iter_start_s = clock.now_s
                    clock.advance_many(us, spends)
                    if current_iter < len(compute_list):
                        clock.advance(compute_list[current_iter])
                    result.iterations_completed += 1
                    result.iter_times_s.append(clock.now_s - iter_start_s)
                    pos += span

    if recorder is not None:
        recorder.sample(allocator)
        allocator.remove_observer(recorder)
        result.timeline = recorder.points
    session.finish(result)
    global_batch = int(trace.meta.get("global_batch", 0) or 0)
    if result.iterations_completed > 0 and global_batch:
        # Steady-state throughput: skip 4 warm-up iterations, as the
        # paper reports samples/s after its "converges within ~4
        # iterations" (Fig. 14).  ``converged_at`` measures that point
        # per run, but is not used here: the pinned throughputs stay.
        warmup = min(4, result.iterations_completed - 1)
        steady = result.iter_times_s[warmup:]
        if steady and sum(steady) > 0:
            samples = global_batch * len(steady)
            result.throughput_samples_per_s = samples / sum(steady)
    return result


def _repeats(events: Sequence[TraceEvent]) -> Dict[int, Tuple[int, int]]:
    """ITER_START index -> ``(k, span)`` for every iteration that has
    the previous iteration's signature and is followed right away by
    ``k >= 1`` more with it, each ``span`` events long (markers
    included).

    An iteration's signature is its calls: an ALLOC as its size, a FREE
    as ``~`` the position of its ALLOC.  It has none when a FREE names
    an older tensor or a tensor outlives the iteration.
    """
    alloc, free, begin = Op.ALLOC, Op.FREE, Op.ITER_START
    spans: List[Tuple[int, int, Optional[Tuple[int, ...]]]] = []
    kept: Dict[Tuple[int, ...], Tuple[int, ...]] = {}  # one per signature
    start, signature, allocated = -1, None, {}
    for index, event in enumerate(events):
        op = event.op
        if op is alloc:
            if signature is not None:
                allocated[event.tensor] = len(signature)
                signature.append(event.size)
        elif op is free:
            if signature is not None:
                at = allocated.pop(event.tensor, None)
                if at is None:
                    signature = None
                else:
                    signature.append(~at)
        elif op is begin:
            start, signature, allocated = index, [], {}
        elif start >= 0:
            if signature is None or allocated:
                spans.append((start, index, None))
            else:
                signature = tuple(signature)
                spans.append((start, index,
                              kept.setdefault(signature, signature)))
            start, signature = -1, None
    repeats: Dict[int, Tuple[int, int]] = {}
    followers, after = 0, None  # of the span after this one
    for at in range(len(spans) - 1, -1, -1):
        start, stop, signature = spans[at]
        if (after is not None and signature is not None
                and after[2] == signature and after[0] == stop + 1):
            followers += 1
        else:
            followers = 0
        if followers and at and spans[at - 1][2] == signature:
            repeats[start] = (followers, stop - start + 1)
        after = spans[at]
    return repeats


def run_workload(
    workload: TrainingWorkload,
    allocator: Union[SpecLike, AllocatorFactory] = "caching",
    capacity: int = A100_80GB,
    record_timeline: bool = False,
) -> EngineResult:
    """Build the workload's trace and replay it on a fresh device.

    ``allocator`` is anything :func:`repro.api.resolve_allocator`
    accepts: a name, a spec string (``"gmlake?chunk_mb=512"``), an
    :class:`repro.api.AllocatorSpec`, or a factory callable.
    """
    device = GpuDevice(capacity=capacity)
    alloc = resolve_allocator(allocator, device)
    trace = workload.build_trace()
    return run_trace(alloc, trace, record_timeline=record_timeline)
