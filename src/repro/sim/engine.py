"""Trace replay engine.

``run_trace`` feeds a :class:`~repro.workloads.request.Trace` to an
allocator on a fresh simulated device, advancing the clock by both the
allocator's driver/host costs and the workload's per-iteration compute
time, and records everything the paper's figures need: peak
active/reserved memory, utilization, OOM events, per-iteration wall
times and a memory timeline.

:class:`ReplaySession` is the stepping layer underneath ``run_trace``:
it owns the live-tensor table, OOM-tolerant allocation, and timeline
sampling, but leaves the *event loop* to the caller.  Offline replay
(``run_trace``) walks a pre-built trace; the online serving simulator
(:mod:`repro.serve`) drives the same session one decision at a time,
so scheduler policy can react to live allocator state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.allocators.base import Allocation, BaseAllocator
from repro.api.spec import SpecLike, resolve_allocator
from repro.errors import OutOfMemoryError
from repro.gpu.device import GpuDevice
from repro.sim.timeline import TimelinePoint, TimelineRecorder
from repro.units import A100_80GB, GB
from repro.workloads.request import Op, Trace
from repro.workloads.training import TrainingWorkload

AllocatorFactory = Callable[[GpuDevice], BaseAllocator]


@dataclass
class EngineResult:
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

    @property
    def utilization_ratio(self) -> float:
        """Peak active / peak reserved — the paper's §5.1 metric."""
        if self.peak_reserved_bytes == 0:
            return 1.0
        return self.peak_active_bytes / self.peak_reserved_bytes

    @property
    def fragmentation_ratio(self) -> float:
        """1 − utilization ratio."""
        return 1.0 - self.utilization_ratio

    @property
    def peak_reserved_gb(self) -> float:
        """Peak reserved memory in GB (the figures' RM axis)."""
        return self.peak_reserved_bytes / GB

    @property
    def peak_active_gb(self) -> float:
        """Peak active memory in GB."""
        return self.peak_active_bytes / GB

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


class ReplaySession:
    """A stepping interface over one allocator for event-driven loops.

    The session tracks live tensors by name, converts allocator OOMs
    into a boolean outcome (:meth:`try_alloc`) for callers that recover
    instead of crashing, and samples the memory timeline on demand.
    ``run_trace`` drives it from a pre-built trace; the online serving
    simulator (:mod:`repro.serve`) drives it one admission / KV-growth
    / retirement decision at a time.
    """

    def __init__(self, allocator: BaseAllocator):
        self.allocator = allocator
        self.clock = allocator.device.clock
        self.start_s = self.clock.now_s
        self.live: Dict[str, Allocation] = {}
        self.timeline: List[TimelinePoint] = []
        self._live_bytes = 0

    # ------------------------------------------------------------------
    @property
    def elapsed_s(self) -> float:
        """Seconds of simulated time since the session started."""
        return self.clock.now_s - self.start_s

    @property
    def live_bytes(self) -> int:
        """Sum of the rounded sizes of live tensors in this session.

        A running counter updated by :meth:`alloc` / :meth:`free` — a
        serving scheduler may query this per admission decision, and
        re-summing every live tensor each time made that quadratic over
        a run.
        """
        return self._live_bytes

    def holds(self, tensor: str) -> bool:
        """True if ``tensor`` is currently live in this session."""
        return tensor in self.live

    # ------------------------------------------------------------------
    def alloc(self, tensor: str, size: int) -> Allocation:
        """Allocate ``size`` bytes for ``tensor``; OOM propagates."""
        if tensor in self.live:
            raise ValueError(f"tensor {tensor!r} allocated twice")
        allocation = self.allocator.malloc(size)
        self.live[tensor] = allocation
        self._live_bytes += allocation.rounded_size
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

    def try_malloc_free(self, size: int) -> bool:
        """:meth:`try_alloc` then :meth:`free` of a tensor nobody else
        names, as one :meth:`BaseAllocator.malloc_free` call; ``False``
        on OOM (time spent, nothing held either way)."""
        try:
            self.allocator.malloc_free(size)
            return True
        except OutOfMemoryError:
            return False

    def try_alloc_run(self, tensors: Sequence[str], size: int) -> int:
        """:meth:`try_alloc` for each of ``tensors`` in turn, ``size``
        bytes each, stopping at the first OOM; returns how many were
        allocated.  One :meth:`BaseAllocator.malloc_run` call."""
        live = self.live
        if not live.keys().isdisjoint(tensors):
            twice = next(t for t in tensors if t in live)
            raise ValueError(f"tensor {twice!r} allocated twice")
        run = self.allocator.malloc_run(size, len(tensors))
        live.update(zip(tensors, run))
        self._live_bytes += sum(a.rounded_size for a in run)
        return len(run)

    def free(self, tensor: str) -> None:
        """Free the live tensor named ``tensor``."""
        allocation = self.live.pop(tensor, None)
        if allocation is None:
            raise ValueError(f"trace frees unknown tensor {tensor!r}")
        self._live_bytes -= allocation.rounded_size
        self.allocator.free(allocation)

    def free_run(self, tensors: Iterable[str]) -> None:
        """:meth:`free` for each of ``tensors`` in turn, as one
        :meth:`BaseAllocator.free_run` call."""
        run: List[Allocation] = []
        try:
            for tensor in tensors:
                allocation = self.live.pop(tensor, None)
                if allocation is None:
                    raise ValueError(f"trace frees unknown tensor {tensor!r}")
                self._live_bytes -= allocation.rounded_size
                run.append(allocation)
        finally:
            self.allocator.free_run(run)

    def advance(self, duration_us: float) -> None:
        """Advance the simulated clock (compute time between events)."""
        self.clock.advance(duration_us)

    def sample(self) -> None:
        """Append one memory timeline point at the current time."""
        self.timeline.append(TimelinePoint(
            time_s=self.elapsed_s,
            active_bytes=self.allocator.active_bytes,
            reserved_bytes=self.allocator.reserved_bytes,
        ))

    def finish(self, result: EngineResult) -> None:
        """Fill allocator-side statistics into ``result``."""
        stats = self.allocator.stats()
        result.peak_active_bytes = stats.peak_active_bytes
        result.peak_reserved_bytes = stats.peak_reserved_bytes
        result.driver_time_us = stats.driver_time_us
        result.host_time_us = stats.host_time_us
        result.malloc_count = stats.malloc_count
        result.total_time_s = self.elapsed_s
        result.timeline = self.timeline


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
    iter_start_s = session.start_s
    current_iter = 0

    for event in trace.events:
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
        elif event.op is Op.ITER_END:
            compute_list = trace.compute_us_per_iter
            if current_iter < len(compute_list):
                clock.advance(compute_list[current_iter])
            result.iterations_completed += 1
            result.iter_times_s.append(clock.now_s - iter_start_s)

    if recorder is not None:
        recorder.sample(allocator)
        allocator.remove_observer(recorder)
        session.timeline = recorder.points
    session.finish(result)
    global_batch = int(trace.meta.get("global_batch", 0) or 0)
    if result.iterations_completed > 0 and global_batch:
        # Steady-state throughput: skip warm-up iterations (GMLake's
        # stitching converges within ~4 iterations, Fig. 14; the paper
        # reports converged samples/s).
        warmup = min(4, result.iterations_completed - 1)
        steady = result.iter_times_s[warmup:]
        if steady and sum(steady) > 0:
            samples = global_batch * len(steady)
            result.throughput_samples_per_s = samples / sum(steady)
    return result


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
