"""Fault injection and retry: failure as a first-class serving dimension.

Production fleets are availability-limited as much as memory-limited:
replicas crash and reboot, stragglers run hot, interconnects degrade,
and the front-end papers over all of it with retries, backoff and
hedged requests.  This module makes those failure modes *seeded,
deterministic inputs* of the serving simulator, registered under two
new component kinds speaking the same ``"name?key=value"`` mini-DSL as
every other policy:

``faults`` — what breaks
    ``none``
        Nothing ever fails (the default).  Each replica's fault state
        is never down and runs every step at full speed, so a
        ``faults=none`` run is byte-identical to the pre-fault
        simulator — enforced by the committed hotpath goldens.
    ``replica-crash?mtbf_s=…&mttr_s=…&seed=…``
        Seeded per-replica crash/recover schedules: up-times are
        exponential with mean ``mtbf_s``, down-times exponential with
        mean ``mttr_s``, drawn from a per-replica RNG so the schedule
        is a pure function of ``(seed, replica)`` — independent of
        load, which keeps metamorphic comparisons across retry
        policies honest.  A crash evicts every in-flight request: its
        device KV is freed through the KV model (the no-leak
        invariants keep holding), its generated text is kept, and the
        ``retry`` policy decides whether it re-enters the fleet.
    ``straggler?slowdown=…&prob=…&seed=…``
        Transient per-replica throughput degradation: each decode step
        independently runs ``slowdown``× slower with probability
        ``prob`` (thermal throttling, noisy neighbours).
    ``link-degrade?factor=…``
        Interconnect bandwidth collapse: every transfer priced through
        the wrapped :class:`~repro.serve.interconnect.Interconnect`
        takes ``factor``× longer, so disaggregated KV migrations stall
        realistically.

``retry`` — what the front-end does about it
    ``none``
        Crash victims fail permanently (``reject_reason="failed"``).
    ``budget?max=…&backoff_s=…&jitter=…&seed=…``
        Per-request retry budget with exponential backoff: attempt
        ``k`` waits ``backoff_s * 2**(k-1)``, stretched by a
        deterministic seeded jitter in ``[0, jitter]``; past ``max``
        attempts the request fails permanently.
    ``hedge?after_s=…``
        Tail-latency hedging: a request still un-admitted ``after_s``
        seconds past arrival is duplicated to the healthiest other
        replica; the first copy to finish wins and the loser is
        cancelled with its KV freed.  Crash victims re-dispatch
        immediately (no backoff).  Hedging needs a fleet — on a
        single replica it degenerates to immediate crash retry.

Determinism: every random draw comes from a ``random.Random`` keyed by
the spec's ``seed`` plus the replica id (crash windows, straggler
coin-flips) or the request id and attempt number (backoff jitter) — so
two runs with the same specs produce the same failures at the same
simulated instants, regardless of what the workload does in between.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from typing import ClassVar, Iterator, Optional, Tuple

from repro.api.registry import Param, register_component, register_kind
from repro.serve.interconnect import Interconnect
from repro.serve.request import ServeRequest

register_kind("faults", label="fault model")
register_kind("retry", label="retry policy")


# ----------------------------------------------------------------------
# Per-replica fault state the simulator drives
# ----------------------------------------------------------------------
class ReplicaFaults:
    """One replica's fault state: its simulator reads :attr:`start_s`
    every loop iteration and calls :meth:`step_factor` every decode step;
    the fleet front-end asks :meth:`down_at` where to route.

    The base class injects nothing: its next down-window starts (and
    ends) at infinity, so the replica is never down, and every decode
    step runs at full speed.
    """

    start_s = end_s = math.inf
    down = False

    def step_factor(self) -> float:
        """Multiplier for the next decode step's duration."""
        return 1.0

    def down_at(self, t_s: float) -> bool:
        """True when the replica is inside a crash window at ``t_s``."""
        del t_s
        return False


class CrashSchedule(ReplicaFaults):
    """One replica's crash/recover window state machine.

    Wraps an infinite iterator of ``(start_s, end_s)`` down-windows in
    chronological order: :attr:`start_s` / :attr:`end_s` describe the
    next (or, while :attr:`down`, the current) window.

    The schedule is the one owner of its windows: every window drawn
    from the stream is kept, so :meth:`down_at` answers for any time —
    the dispatcher asks ahead of the replica's clock, and the fleet
    orchestrator asks behind it, since peers' clocks drift apart.
    """

    def __init__(self, windows: Iterator[Tuple[float, float]]):
        self._stream = windows
        self._windows = [next(windows)]
        self._current = 0
        self.start_s, self.end_s = self._windows[0]

    def crash(self) -> None:
        """Enter the current window's downtime."""
        self.down = True

    def recover(self) -> None:
        """Leave the current window and line up the next one."""
        self.down = False
        self._current += 1
        if self._current == len(self._windows):
            self._windows.append(next(self._stream))
        self.start_s, self.end_s = self._windows[self._current]

    def down_at(self, t_s: float) -> bool:
        windows = self._windows
        while windows[-1][1] <= t_s:
            windows.append(next(self._stream))
        for start_s, end_s in reversed(windows):
            if end_s <= t_s:
                return False
            if start_s <= t_s:
                return True
        return False


class StragglerState(ReplicaFaults):
    """One replica's per-decode-step slowdown coin."""

    def __init__(self, rng: random.Random, slowdown: float, prob: float):
        self._rng = rng
        self.slowdown = slowdown
        self.prob = prob

    def step_factor(self) -> float:
        """One draw per step, so the sequence is deterministic per
        replica."""
        return self.slowdown if self._rng.random() < self.prob else 1.0


def _crash_window_stream(seed: int, replica_id: int, mtbf_s: float,
                         mttr_s: float) -> Iterator[Tuple[float, float]]:
    """Deterministic per-replica (start_s, end_s) down-windows.

    A pure function of ``(seed, replica_id)``, so a replica's crashes
    do not depend on the load it serves.
    """
    # random.Random rejects tuple seeds; a formatted string is stable.
    rng = random.Random(f"{seed}:{replica_id}")
    t = 0.0
    while True:
        t += rng.expovariate(1.0 / mtbf_s)
        end = t + rng.expovariate(1.0 / mttr_s)
        yield (t, end)
        t = end


class DegradedInterconnect(Interconnect):
    """A link whose every transfer takes ``factor``× longer."""

    def __init__(self, inner: Interconnect, factor: float):
        super().__init__(inner.gb_per_s, inner.latency_us)
        self.name = f"{inner.name}~degraded"
        self.inner = inner
        self.factor = factor

    def transfer_us(self, size: int, latency) -> float:
        return self.factor * self.inner.transfer_us(size, latency)


# ----------------------------------------------------------------------
# The ``faults`` kind
# ----------------------------------------------------------------------
class FaultModel(ABC):
    """What breaks, where, and when — a pure function of its seed.

    A fault model is stateless across replicas: per-replica mutable
    state lives in the :class:`ReplicaFaults` :meth:`replica_context`
    returns.  A model that injects nothing on a replica returns the
    base state, which is never down and never slows a step, so the
    simulator polls every replica the same way.
    """

    name: str = "faults"
    #: True when the model produces replica down-windows the
    #: dispatcher must route around.
    has_crashes: ClassVar[bool] = False

    def replica_context(self, replica_id: int) -> ReplicaFaults:
        """Fresh per-replica fault state."""
        del replica_id
        return ReplicaFaults()

    def wrap_interconnect(self, link: Interconnect) -> Interconnect:
        """Apply link-level degradation (identity for other models)."""
        return link


@register_component(
    "faults", "none",
    description="fault-free fleet (byte-identical to the pre-fault "
                "simulator)",
)
class NoFaults(FaultModel):
    """Nothing ever fails — the default."""

    name = "none"


@register_component(
    "faults", "replica-crash",
    aliases=("crash",),
    params=(
        Param("mtbf_s", float, 120.0, kind="float",
              doc="mean time between failures per replica, seconds "
                  "(exponential up-times)"),
        Param("mttr_s", float, 10.0, kind="float",
              doc="mean time to recovery per replica, seconds "
                  "(exponential down-times)"),
        Param("seed", int, 0,
              doc="crash-schedule seed (windows are a pure function "
                  "of seed and replica id)"),
    ),
    description="seeded per-replica crash/recover schedules: crashes "
                "evict in-flight requests (KV freed, text kept) and "
                "hand them to the retry policy",
)
class ReplicaCrashFaults(FaultModel):
    """Whole-replica fail-stop crashes with seeded repair times."""

    name = "replica-crash"
    has_crashes: ClassVar[bool] = True

    def __init__(self, mtbf_s: float = 120.0, mttr_s: float = 10.0,
                 seed: int = 0):
        if mtbf_s <= 0 or mttr_s <= 0:
            raise ValueError(
                f"mtbf_s and mttr_s must be positive "
                f"(got {mtbf_s}, {mttr_s})")
        self.mtbf_s = mtbf_s
        self.mttr_s = mttr_s
        self.seed = seed

    def replica_context(self, replica_id: int) -> CrashSchedule:
        return CrashSchedule(self.crash_windows(replica_id))

    def crash_windows(self, replica_id: int) -> Iterator[Tuple[float, float]]:
        return _crash_window_stream(self.seed, replica_id,
                                    self.mtbf_s, self.mttr_s)


@register_component(
    "faults", "straggler",
    params=(
        Param("slowdown", float, 4.0, kind="float",
              doc="decode-step slowdown factor while straggling"),
        Param("prob", float, 0.1, kind="float",
              doc="per-decode-step probability of straggling"),
        Param("seed", int, 0,
              doc="coin-flip seed (per-replica deterministic)"),
    ),
    description="transient per-replica throughput degradation: each "
                "decode step runs `slowdown`x slower with "
                "probability `prob`",
)
class StragglerFaults(FaultModel):
    """Per-step transient slowdowns (throttling, noisy neighbours)."""

    name = "straggler"

    def __init__(self, slowdown: float = 4.0, prob: float = 0.1,
                 seed: int = 0):
        if slowdown < 1:
            raise ValueError(f"slowdown must be >= 1, got {slowdown}")
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1], got {prob}")
        self.slowdown = slowdown
        self.prob = prob
        self.seed = seed

    def replica_context(self, replica_id: int) -> StragglerState:
        return StragglerState(random.Random(f"{self.seed}:{replica_id}"),
                              self.slowdown, self.prob)


@register_component(
    "faults", "link-degrade",
    aliases=("degrade",),
    params=(
        Param("factor", float, 4.0, kind="float",
              doc="every interconnect transfer takes this many times "
                  "longer"),
    ),
    description="interconnect bandwidth collapse: transfers over the "
                "wrapped link take `factor`x longer (disagg "
                "migrations stall realistically)",
)
class LinkDegradeFaults(FaultModel):
    """Degrades every interconnect transfer by a constant factor."""

    name = "link-degrade"

    def __init__(self, factor: float = 4.0):
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        self.factor = factor

    def wrap_interconnect(self, link: Interconnect) -> Interconnect:
        return DegradedInterconnect(link, self.factor)


# ----------------------------------------------------------------------
# The ``retry`` kind
# ----------------------------------------------------------------------
class RetryPolicy(ABC):
    """What the front-end does with a request its replica lost.

    ``next_delay_s`` prices one more attempt for a crash victim
    (``None`` = give up: the request is rejected with the terminal
    ``reject_reason="failed"``).  ``hedge_after_s``, when set, arms
    fleet-level duplicate dispatch for requests stuck in a queue.
    """

    name: str = "retry"
    #: Un-admitted queue wait (seconds) after which the fleet
    #: front-end dispatches a duplicate; ``None`` disables hedging.
    hedge_after_s: Optional[float] = None

    @abstractmethod
    def next_delay_s(self, request: ServeRequest) -> Optional[float]:
        """Seconds before re-dispatching ``request`` after a crash
        (``None``: budget exhausted, fail permanently)."""


@register_component(
    "retry", "none",
    description="no retries: crash victims fail permanently "
                "(reject_reason='failed')",
)
class NoRetry(RetryPolicy):
    """Crash victims are lost — the availability floor."""

    name = "none"

    def next_delay_s(self, request: ServeRequest) -> Optional[float]:
        del request
        return None


@register_component(
    "retry", "budget",
    params=(
        Param("max", int, 3,
              doc="per-request retry budget; past it the request "
                  "fails permanently"),
        Param("backoff_s", float, 0.25, kind="float",
              doc="base backoff: attempt k waits backoff_s * 2**(k-1)"),
        Param("jitter", float, 0.1, kind="float",
              doc="deterministic seeded jitter fraction stretching "
                  "each backoff by up to this much"),
        Param("seed", int, 0,
              doc="jitter seed (a pure function of seed, request id "
                  "and attempt)"),
    ),
    description="per-request retry budget with exponential backoff "
                "and deterministic seeded jitter",
)
class BudgetRetry(RetryPolicy):
    """Exponential backoff under a hard per-request budget."""

    name = "budget"

    def __init__(self, max: int = 3, backoff_s: float = 0.25,
                 jitter: float = 0.1, seed: int = 0):
        if max < 1:
            raise ValueError(f"max must be >= 1, got {max}")
        if backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {backoff_s}")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self.max_retries = max
        self.backoff_s = backoff_s
        self.jitter = jitter
        self.seed = seed

    def next_delay_s(self, request: ServeRequest) -> Optional[float]:
        attempt = request.retries + 1
        if attempt > self.max_retries:
            return None
        u = random.Random(
            f"{self.seed}:{request.req_id}:{attempt}").random()
        return self.backoff_s * (2.0 ** (attempt - 1)) * (1.0
                                                          + self.jitter * u)


@register_component(
    "retry", "hedge",
    params=(
        Param("after_s", float, 2.0, kind="float",
              doc="un-admitted queue wait before the front-end "
                  "dispatches a duplicate to another healthy replica"),
    ),
    description="tail-latency hedging: duplicate a stuck request to "
                "a healthy replica, first finisher wins, loser "
                "cancelled (KV freed); crash victims re-dispatch "
                "immediately",
)
class HedgeRetry(RetryPolicy):
    """Duplicate dispatch for requests stuck behind a sick replica."""

    name = "hedge"

    def __init__(self, after_s: float = 2.0):
        if after_s <= 0:
            raise ValueError(f"after_s must be > 0, got {after_s}")
        self.after_s = after_s
        self.hedge_after_s = after_s

    def next_delay_s(self, request: ServeRequest) -> Optional[float]:
        del request
        return 0.0  # crash victims re-dispatch immediately
