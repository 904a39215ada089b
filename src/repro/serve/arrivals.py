"""Request arrival processes for the online serving simulator.

Five processes cover the traffic shapes serving papers evaluate, all
registered under the ``arrivals`` component kind and nameable by the
same ``"name?key=value"`` mini-DSL as allocators:

* :class:`PoissonArrivals` (``"poisson?rate=2.0"``) — memoryless
  open-loop traffic at a fixed mean rate, the standard load-sweep axis.
* :class:`MMPPArrivals` (``"mmpp?rate=1&burst=4&dwell=10"``) — a
  two-state Markov-modulated Poisson process (calm/burst), the classic
  model for bursty production traffic.
* :class:`ReplayArrivals` (``"replay?path=log.txt"``) — timestamps
  replayed from a recorded log, for trace-driven evaluation.
* :class:`ClosedLoopArrivals` (``"closed-loop?clients=8&think_s=2"``)
  — a fixed population of clients, each issuing its next request after
  a think time, the classic closed-system load model.
* :class:`MultiTenantArrivals`
  (``"multi-tenant?tenants=8&zipf=1.1&shared_prefix_tokens=256"``) —
  aggregate Poisson traffic from a Zipf-popular tenant population;
  requests carry tenant ids and declare each tenant's shared prompt
  prefix (feeding the ``wfq`` scheduler and prefix-sharing KV cache).

Every process emits :class:`~repro.serve.request.ServeRequest` objects
with prompt/output lengths drawn from one heavy-tailed log-normal
mixture (:class:`LengthSampler`); an offline serving trace is a
recording of the simulator serving such a stream, so offline-replay
and online-serving experiments stress the allocator with the same size
distribution.  Generation is a pure function of the seed: the same
(process, sampler, seed) always yields the same stream.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Union

from repro.api.registry import (
    Param,
    SpecError,
    register_component,
    register_kind,
)
from repro.serve.request import ServeRequest
from repro.units import align_up

register_kind("arrivals", label="arrival process")


def _heavy_tail_tokens(rng: random.Random, mean: int, sigma: float,
                       lo: int, hi: int) -> int:
    """One log-normal token count, 16-aligned and clamped to [lo, hi]."""
    value = int(rng.lognormvariate(0.0, sigma) * mean)
    return max(lo, min(hi, align_up(value, 16)))


@dataclass(frozen=True)
class LengthSampler:
    """Heavy-tailed prompt/output length distribution.

    ``sigma`` is the log-normal shape parameter (0.6 by default).
    """

    mean_prompt: int = 512
    mean_output: int = 256
    sigma: float = 0.6
    min_tokens: int = 16
    max_tokens: int = 2048

    def sample(self, rng: random.Random) -> "tuple[int, int]":
        """Draw one (prompt_tokens, output_tokens) pair."""
        prompt = _heavy_tail_tokens(rng, self.mean_prompt, self.sigma,
                                    self.min_tokens, self.max_tokens)
        output = _heavy_tail_tokens(rng, self.mean_output, self.sigma,
                                    self.min_tokens, self.max_tokens)
        return prompt, output


class ArrivalProcess(ABC):
    """Base class: a distribution over arrival-time sequences."""

    kind: str = "arrivals"

    @abstractmethod
    def arrival_times(self, n_requests: int, rng: random.Random) -> List[float]:
        """Return ``n_requests`` non-decreasing arrival times (seconds)."""

    def generate(
        self,
        n_requests: int,
        lengths: LengthSampler = LengthSampler(),
        seed: int = 0,
    ) -> List[ServeRequest]:
        """Materialize a request stream: times plus sampled lengths."""
        if n_requests < 1:
            raise ValueError(f"n_requests must be >= 1, got {n_requests}")
        rng = random.Random(seed * 9176 + 11)
        times = self.arrival_times(n_requests, rng)
        return [self._request(i, float(t), lengths, rng)
                for i, t in enumerate(sorted(times))]

    def _request(self, req_id: int, arrival_s: float,
                 lengths: LengthSampler,
                 rng: random.Random) -> ServeRequest:
        """One request of the stream, its sizes drawn from ``rng``
        after every earlier request's draws."""
        prompt, output = lengths.sample(rng)
        return ServeRequest(req_id=req_id, arrival_s=arrival_s,
                            prompt_tokens=prompt, output_tokens=output)


@register_component(
    "arrivals", "poisson",
    params=(
        Param("rate_per_s", float, 1.0, kind="float", aliases=("rate",),
              doc="mean arrival rate, requests/second"),
    ),
    description="open-loop Poisson traffic at a fixed mean rate",
)
@dataclass
class PoissonArrivals(ArrivalProcess):
    """Open-loop Poisson traffic at ``rate_per_s`` mean requests/second."""

    rate_per_s: float = 1.0
    kind: str = field(default="poisson", init=False)

    def __post_init__(self):
        if self.rate_per_s <= 0:
            raise ValueError(f"rate_per_s must be positive, got {self.rate_per_s}")

    def arrival_times(self, n_requests: int, rng: random.Random) -> List[float]:
        now = 0.0
        times = []
        for _ in range(n_requests):
            now += rng.expovariate(self.rate_per_s)
            times.append(now)
        return times


@register_component(
    "arrivals", "mmpp",
    params=(
        Param("rate_calm_per_s", float, 1.0, kind="float",
              aliases=("rate", "calm"),
              doc="Poisson rate in the calm state, requests/second"),
        Param("rate_burst_per_s", float, 4.0, kind="float",
              aliases=("burst",),
              doc="Poisson rate in the burst state, requests/second"),
        Param("mean_dwell_s", float, 10.0, kind="float", aliases=("dwell",),
              doc="mean exponential dwell time per state, seconds"),
    ),
    description="two-state Markov-modulated Poisson process (calm/burst)",
)
@dataclass
class MMPPArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (calm ↔ burst).

    The process dwells in each state for an exponentially distributed
    time (mean ``mean_dwell_s``) and emits Poisson arrivals at that
    state's rate — bursts several times the calm rate are the shape
    that collapses admission capacity in production traces.
    """

    rate_calm_per_s: float = 1.0
    rate_burst_per_s: float = 4.0
    mean_dwell_s: float = 10.0
    kind: str = field(default="mmpp", init=False)

    def __post_init__(self):
        if self.rate_calm_per_s <= 0 or self.rate_burst_per_s <= 0:
            raise ValueError("MMPP rates must be positive")
        if self.mean_dwell_s <= 0:
            raise ValueError("mean_dwell_s must be positive")

    def arrival_times(self, n_requests: int, rng: random.Random) -> List[float]:
        now = 0.0
        burst = False
        state_ends = rng.expovariate(1.0 / self.mean_dwell_s)
        times: List[float] = []
        while len(times) < n_requests:
            rate = self.rate_burst_per_s if burst else self.rate_calm_per_s
            gap = rng.expovariate(rate)
            if now + gap >= state_ends:
                # Switch state at the boundary; the pending gap restarts
                # (memorylessness of the exponential makes this exact).
                now = state_ends
                burst = not burst
                state_ends = now + rng.expovariate(1.0 / self.mean_dwell_s)
                continue
            now += gap
            times.append(now)
        return times


def _check_replay(params: Dict[str, Any]) -> None:
    if not params.get("path"):
        raise SpecError(
            "replay arrivals need a log file: \"replay?path=arrivals.txt\"")


def _replay_from_path(path: str = "") -> "ReplayArrivals":
    if not path:
        raise SpecError(
            "replay arrivals need a log file: \"replay?path=arrivals.txt\"")
    return ReplayArrivals(load_arrival_log(path))


@register_component(
    "arrivals", "replay",
    params=(
        Param("path", str, "", kind="str",
              doc="arrival-log file: one timestamp (seconds) per line"),
    ),
    check=_check_replay,
    factory=_replay_from_path,
    description="arrival times replayed from a recorded log",
)
@dataclass
class ReplayArrivals(ArrivalProcess):
    """Arrival times replayed from a recorded log."""

    times: Sequence[float] = ()
    kind: str = field(default="replay", init=False)

    def __post_init__(self):
        self.times = sorted(float(t) for t in self.times)
        if any(t < 0 for t in self.times):
            raise ValueError("replayed arrival times must be non-negative")

    def arrival_times(self, n_requests: int, rng: random.Random) -> List[float]:
        del rng
        if n_requests > len(self.times):
            raise ValueError(
                f"replay log has {len(self.times)} arrivals, "
                f"{n_requests} requested"
            )
        return list(self.times[:n_requests])


@register_component(
    "arrivals", "closed-loop",
    params=(
        Param("clients", int, 4,
              doc="fixed client population issuing requests"),
        Param("think_s", float, 2.0, kind="float", aliases=("think",),
              doc="mean exponential think time between a client's requests"),
        Param("service_s", float, 2.0, kind="float", aliases=("service",),
              doc="a-priori estimate of one request's service time"),
    ),
    description="N closed-loop clients with exponential think times",
)
@dataclass
class ClosedLoopArrivals(ArrivalProcess):
    """A fixed population of clients with think times (closed system).

    Each of ``clients`` users issues a request, waits for it to be
    served, thinks for an exponentially distributed time (mean
    ``think_s``), and issues the next — so the offered load is
    self-limiting: at most ``clients`` requests are ever outstanding,
    the classic interactive-traffic model (and the shape open-loop
    Poisson sweeps miss: overload shows up as longer cycles, not an
    unbounded queue).

    Because arrival streams are materialized *before* the simulator
    runs (so identical streams can be replayed against every
    allocator), the in-service portion of each client's cycle uses an
    a-priori estimate ``service_s`` instead of the simulated completion
    time — a quasi-closed model: cycle = ``service_s`` + think.
    """

    clients: int = 4
    think_s: float = 2.0
    service_s: float = 2.0
    kind: str = field(default="closed-loop", init=False)

    def __post_init__(self):
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        if self.think_s <= 0 or self.service_s <= 0:
            raise ValueError("think_s and service_s must be positive")

    def arrival_times(self, n_requests: int, rng: random.Random) -> List[float]:
        per_client = -(-n_requests // self.clients)  # ceil div
        times: List[float] = []
        for _ in range(self.clients):
            # Each client starts after an initial think (staggering the
            # population), then cycles think -> request -> service.
            now = rng.expovariate(1.0 / self.think_s)
            for _ in range(per_client):
                times.append(now)
                now += self.service_s + rng.expovariate(1.0 / self.think_s)
        times.sort()
        return times[:n_requests]


@register_component(
    "arrivals", "multi-tenant",
    params=(
        Param("tenants", int, 4,
              doc="tenant population size (tenant ids t0..tN-1)"),
        Param("rate_per_s", float, 4.0, kind="float", aliases=("rate",),
              doc="aggregate Poisson arrival rate, requests/second"),
        Param("zipf", float, 1.1, kind="float",
              doc="tenant popularity skew: P(tk) ∝ 1/(k+1)^zipf "
                  "(0 = uniform)"),
        Param("shared_prefix_tokens", int, 256, aliases=("prefix",),
              doc="tokens of each tenant's shared prompt prefix "
                  "(system prompt); 0 disables prefix declarations"),
    ),
    description="Poisson traffic from N tenants with Zipf popularity; "
                "each request carries its tenant id and declares the "
                "tenant's shared prompt prefix",
)
@dataclass
class MultiTenantArrivals(ArrivalProcess):
    """Aggregate Poisson traffic split over a Zipf tenant population.

    Models a multi-tenant endpoint: ``tenants`` customers share one
    serving fleet, request volume follows a Zipf popularity law
    (tenant ``tk`` with probability ∝ ``1/(k+1)**zipf``; ``zipf=0`` is
    uniform), and every request of tenant ``tk`` starts with the same
    ``shared_prefix_tokens``-token system prompt.  Emitted requests
    carry ``tenant="tk"`` (consumed by the ``wfq`` scheduler and the
    per-tenant report rows) and declare
    ``prefix_id="tk" / prefix_tokens=shared_prefix_tokens`` (consumed
    by the ``paged-shared`` prefix-sharing KV cache; harmless
    elsewhere).  Prompts are the shared prefix plus a heavy-tailed
    private suffix, so the stream works identically — same lengths,
    same times — with sharing on or off.
    """

    tenants: int = 4
    rate_per_s: float = 4.0
    zipf: float = 1.1
    shared_prefix_tokens: int = 256
    kind: str = field(default="multi-tenant", init=False)

    def __post_init__(self):
        if self.tenants < 1:
            raise ValueError(f"tenants must be >= 1, got {self.tenants}")
        if self.rate_per_s <= 0:
            raise ValueError(
                f"rate_per_s must be positive, got {self.rate_per_s}")
        if self.zipf < 0:
            raise ValueError(f"zipf must be >= 0, got {self.zipf}")
        if self.shared_prefix_tokens < 0:
            raise ValueError(
                f"shared_prefix_tokens must be >= 0, "
                f"got {self.shared_prefix_tokens}")

    #: Aggregate traffic is Poisson at ``rate_per_s``.
    arrival_times = PoissonArrivals.arrival_times

    def _sample_tenant(self, rng: random.Random) -> int:
        weights = [1.0 / (k + 1) ** self.zipf for k in range(self.tenants)]
        total = sum(weights)
        pick = rng.random() * total
        for k, weight in enumerate(weights):
            pick -= weight
            if pick < 0:
                return k
        return self.tenants - 1

    def _request(self, req_id: int, arrival_s: float,
                 lengths: LengthSampler,
                 rng: random.Random) -> ServeRequest:
        """A request with tenant + prefix annotations: the private
        suffix and output lengths are drawn first, then the tenant."""
        suffix, output = lengths.sample(rng)
        tenant = f"t{self._sample_tenant(rng)}"
        prefix = self.shared_prefix_tokens
        return ServeRequest(
            req_id=req_id, arrival_s=arrival_s,
            prompt_tokens=prefix + suffix, output_tokens=output,
            tenant=tenant,
            prefix_id=tenant if prefix > 0 else None,
            prefix_tokens=prefix,
        )


def load_arrival_log(path: Union[str, Path]) -> List[float]:
    """Read an arrival log: one arrival timestamp (seconds) per line.

    Blank lines and ``#`` comments are skipped.
    """
    times = []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            times.append(float(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: not a timestamp: {line!r}") from exc
    if not times:
        raise ValueError(f"{path}: empty arrival log")
    return times
