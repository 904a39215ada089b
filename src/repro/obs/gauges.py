"""Time-series gauges: the serving system's vitals, sampled on a clock.

Lifecycle traces answer "what happened to request 17"; gauges answer
"what did the *system* look like at t=212s" — queue depth, running
batch size, pool and KV memory, block utilization, active replicas.
:class:`GaugeSampler` polls a replica's state at a fixed simulated-time
stride from inside the serving loop (pure reads — sampling never
advances the clock or changes a decision) and accumulates
:class:`GaugePoint` rows that ``repro.analysis`` renders directly
(:func:`repro.analysis.observability.format_gauges`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["GaugePoint", "GaugeSampler", "NoGauges", "NO_GAUGES"]


@dataclass(frozen=True)
class GaugePoint:
    """One sample of a replica's serving state.

    Attributes
    ----------
    t_s:
        Simulated seconds since the replica's run started.
    replica:
        Which replica this sample describes.
    queue_depth / running:
        Requests waiting for admission / currently decoding.
    active_bytes / reserved_bytes:
        The allocator's live tensor bytes and pool reservation.
    free_pool_bytes:
        Reserved-but-idle pool memory (``reserved - active``) — the
        fragmentation reservoir the paper's defrag argument is about.
    device_free_bytes:
        Unreserved device memory (``capacity - reserved``).
    kv_bytes:
        Bytes currently held in live KV tensors.
    kv_utilization:
        Used/allocated KV token capacity over the running batch at the
        sample instant (1.0 when nothing is running).
    active_replicas:
        Replicas the front-end considers active (always 1 for a
        single-replica run; fleet-level changes are recorded by
        :meth:`GaugeSampler.note_active_replicas`).
    kv_shared_blocks:
        Resident shared prefix blocks held by a prefix-sharing KV
        cache (0 for models without sharing).
    replicas_down:
        Fleet-wide count of crashed (not yet recovered) replicas at
        the sample instant, per the crash/recover notes the fault
        model feeds through :meth:`GaugeSampler.note_crash` /
        :meth:`GaugeSampler.note_recover` (always 0 with
        ``faults=none``).
    kv_tier_bytes:
        KV bytes currently resident in slow-memory tiers below HBM
        (the replica's :class:`~repro.serve.memtier.TierHierarchy`;
        0 for runs without ``memory_tiers``).
    """

    t_s: float
    replica: int
    queue_depth: int
    running: int
    active_bytes: int
    reserved_bytes: int
    free_pool_bytes: int
    device_free_bytes: int
    kv_bytes: int
    kv_utilization: float
    active_replicas: int = 1
    kv_shared_blocks: int = 0
    replicas_down: int = 0
    kv_tier_bytes: int = 0


class GaugeSampler:
    """Samples replica vitals every ``every_s`` simulated seconds.

    One sampler may serve a whole fleet: each replica keeps its own
    next-due time, and :meth:`series` filters per replica.  The
    front-end additionally reports autoscaling decisions through
    :meth:`note_active_replicas` as an (irregular) change-point series.
    """

    def __init__(self, every_s: float = 1.0):
        if not every_s > 0:
            raise ValueError(f"every_s must be positive, got {every_s}")
        self.every_s = every_s
        self.points: List[GaugePoint] = []
        #: (t_s, active) change points from the fleet front-end.
        self.active_points: List[Tuple[float, int]] = []
        #: Per-fleet change points (disaggregated serving runs one
        #: series per phase, e.g. "prefill" / "decode").
        self.fleet_points: Dict[str, List[Tuple[float, int]]] = {}
        self._due: Dict[int, float] = {}
        #: (t_s, down count) change points from crash/recover notes.
        self.down_points: List[Tuple[float, int]] = []
        self._down: set = set()

    # ------------------------------------------------------------------
    def poll(self, simulator, queue, running) -> None:
        """Sample ``simulator`` if its replica's stride has elapsed.

        Called once per serving-loop iteration; cheap when not due.
        The first poll samples immediately (the t≈0 baseline with the
        weights resident).
        """
        now = simulator.session.elapsed_s
        due = self._due.get(simulator.replica_id)
        if due is not None and now < due:
            return
        self.sample(simulator, queue, running)
        self._due[simulator.replica_id] = now + self.every_s

    def next_due(self, replica: int) -> float:
        """Simulated time from which :meth:`poll` samples ``replica``
        (``-inf`` before its first poll)."""
        return self._due.get(replica, -math.inf)

    def sample(self, simulator, queue, running) -> GaugePoint:
        """Record one point from the simulator's current state."""
        allocator = simulator.allocator
        active = allocator.active_bytes
        reserved = allocator.reserved_bytes
        kv = simulator.kv
        utilization = kv.utilization_snapshot(running)
        point = GaugePoint(
            t_s=simulator.session.elapsed_s,
            replica=simulator.replica_id,
            queue_depth=len(queue),
            running=len(running),
            active_bytes=active,
            reserved_bytes=reserved,
            free_pool_bytes=max(reserved - active, 0),
            device_free_bytes=max(simulator.capacity - reserved, 0),
            kv_bytes=kv.live_kv_bytes,
            kv_utilization=utilization if utilization is not None else 1.0,
            active_replicas=self._active_at(simulator.session.elapsed_s),
            kv_shared_blocks=getattr(kv, "shared_live_blocks", 0),
            replicas_down=len(self._down),
            kv_tier_bytes=simulator.hierarchy.resident_bytes,
        )
        self.points.append(point)
        return point

    def note_crash(self, t_s: float, replica: int) -> None:
        """Record that ``replica`` went down at ``t_s``."""
        self._down.add(replica)
        self.down_points.append((t_s, len(self._down)))

    def note_recover(self, t_s: float, replica: int) -> None:
        """Record that ``replica`` came back at ``t_s``."""
        self._down.discard(replica)
        self.down_points.append((t_s, len(self._down)))

    def note_active_replicas(self, t_s: float, active: int,
                             fleet: Optional[str] = None) -> None:
        """Record a front-end autoscaling change point.

        ``fleet`` routes the point to that fleet's own series (and
        leaves the global one untouched) so a disaggregated front-end
        can report per-phase fleet sizes independently.
        """
        series = (self.active_points if fleet is None
                  else self.fleet_points.setdefault(fleet, []))
        if series and series[-1][1] == active:
            return
        series.append((t_s, active))

    def _active_at(self, t_s: float) -> int:
        """Active replica count at ``t_s`` per the change-point series."""
        current = 1
        for when, active in self.active_points:
            if when > t_s:
                break
            current = active
        return current

    # ------------------------------------------------------------------
    def series(self, replica: Optional[int] = None) -> List[GaugePoint]:
        """Recorded points, optionally restricted to one replica."""
        if replica is None:
            return list(self.points)
        return [p for p in self.points if p.replica == replica]

    def fleet_series(self, fleet: str) -> List[Tuple[float, int]]:
        """One fleet's (t_s, active) change points (empty if unknown)."""
        return list(self.fleet_points.get(fleet, ()))

    def __len__(self) -> int:
        return len(self.points)


class NoGauges(GaugeSampler):
    """Gauges off: polls and notes nothing.  It never holds a point, so
    one instance, :data:`NO_GAUGES`, serves every run."""

    def poll(self, simulator, queue, running) -> None:
        pass  # once per loop iteration: no argument packing

    def next_due(self, replica: int) -> float:
        return math.inf  # never

    def note_crash(self, *args, **kwargs) -> None:
        pass

    note_recover = note_active_replicas = note_crash


#: The sampler of every run without gauges.
NO_GAUGES = NoGauges()
