"""Autoscalers: driving the replica count from observed load.

The multi-replica serving front-end (:mod:`repro.serve.cluster`)
dispatches each arrival to one of N identical replicas.  An autoscaler
decides, at every arrival, *how many* of those replicas are active —
scaling the fleet up under backlog pressure and back down when the
queues drain.  Policies are registered under the ``autoscaler``
component kind and named by the same ``"name?key=value"`` mini-DSL as
allocators:

``none``
    The fleet is always at full size (the front-end's original
    behaviour — every replica receives traffic from the first
    arrival).

``queue-depth``
    Classic hysteresis on per-replica backlog: when the mean
    outstanding token backlog per active replica exceeds ``high``, one
    more replica is activated; when it falls below ``low``, the
    most-recently-activated idle replica is retired.  ``high > low``
    keeps the controller from flapping.

The backlog signal is the same least-outstanding-work estimator the
dispatcher itself uses (assigned tokens, drained at the saturated
decode rate between arrivals) — exactly what a front-end can compute
online, with no peeking at simulation results.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.api.registry import Param, register_component, register_kind

register_kind("autoscaler", label="autoscaler")


class Autoscaler(ABC):
    """Base autoscaling policy: a pure function of the backlog signal."""

    name: str = "autoscaler"

    def initial_replicas(self, max_replicas: int) -> int:
        """Active replicas before the first arrival."""
        return max_replicas

    @abstractmethod
    def decide(self, backlogs: Sequence[float], active: int,
               max_replicas: int) -> int:
        """New active replica count, in ``[1, max_replicas]``.

        ``backlogs`` holds every replica's outstanding-token estimate
        (index < ``active`` means the replica currently takes
        traffic); called once per arrival, after backlog decay.
        """


@register_component(
    "autoscaler", "none",
    description="fixed fleet: every replica active from the first arrival",
)
class NoAutoscaler(Autoscaler):
    """No autoscaling — the fleet always runs at full size."""

    name = "none"

    def decide(self, backlogs, active, max_replicas):
        del backlogs, active
        return max_replicas


@register_component(
    "autoscaler", "queue-depth",
    params=(
        Param("high", float, 4000.0, kind="float",
              doc="scale up when mean backlog tokens/replica exceed this"),
        Param("low", float, 500.0, kind="float",
              doc="scale down when mean backlog tokens/replica fall below"),
        Param("min_replicas", int, 1, aliases=("min",),
              doc="never retire below this many replicas"),
    ),
    description="hysteresis on per-replica token backlog "
                "(scale up past `high`, down below `low`)",
)
class QueueDepthAutoscaler(Autoscaler):
    """Hysteresis controller on the per-replica backlog estimate."""

    name = "queue-depth"

    def __init__(self, high: float = 4000.0, low: float = 500.0,
                 min_replicas: int = 1):
        if high <= 0 or low < 0:
            raise ValueError(
                f"thresholds must be positive (high={high}, low={low})")
        if low >= high:
            raise ValueError(
                f"hysteresis needs low < high, got low={low}, high={high}")
        if min_replicas < 1:
            raise ValueError(f"min_replicas must be >= 1, got {min_replicas}")
        self.high = high
        self.low = low
        self.min_replicas = min_replicas

    def initial_replicas(self, max_replicas: int) -> int:
        return min(self.min_replicas, max_replicas)

    def decide(self, backlogs, active, max_replicas):
        floor = min(self.min_replicas, max_replicas)
        mean_backlog = sum(backlogs[:active]) / max(active, 1)
        if mean_backlog > self.high and active < max_replicas:
            return active + 1
        if mean_backlog < self.low and active > floor:
            # Only retire a replica that has drained: shrinking while
            # the victim still holds backlog would strand its estimate.
            if backlogs[active - 1] <= 0.0:
                return active - 1
        return active
