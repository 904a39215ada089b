"""Serving-level SLO metrics: TTFT, TPOT, tail latency, goodput.

The offline replay engine measures what the *allocator* did (peaks,
utilization, OOM); this module measures what the *users* saw.  Both
matter: the paper's serving argument is that allocator fragmentation
turns into queueing delay, SLO violations and lost goodput, and these
metrics make that visible.

Definitions
-----------
TTFT      arrival → first token (queueing + prefill).
TPOT      mean seconds per output token after the first (decode pace).
latency   arrival → last token.
goodput   completed requests *meeting the SLO* per second of makespan —
          the headline serving metric; throughput counts everything.

Token-level SLOs
----------------
Request-level SLO attainment is all-or-nothing; a streaming client's
experience is per *token*: token ``k`` (1-based) reads well iff it
arrives by ``arrival + ttft_slo + (k-1) * tpot_slo``.  The simulator
resolves whole decode batches, so emission times are modeled at the
request's uniform measured pace — token ``k`` lands at
``arrival + ttft + (k-1) * tpot`` — which makes per-request on-time
token counts closed-form (:meth:`SloConfig.tokens_on_time`).  Tokens
of rejected requests count toward the denominator with zero on time:
an aborted stream delivered nothing the client could finish reading.

Streaming aggregation
---------------------
Every report is materialized by one :class:`ServingReportAccumulator`;
what differs is where it keeps the latency samples.  The default keeps
them all (exact means and interpolated percentiles — the tests'
reference).  ``from_requests(streaming=True)`` keeps running sums and
mergeable :class:`~repro.obs.sketch.QuantileSketch` t-digests instead:
constant memory per replica, and fleet-level reports merge sketches
instead of concatenating sample lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.obs.sketch import QuantileSketch
from repro.serve.request import ServeRequest


def percentile(values: Sequence[float], q: float,
               presorted: bool = False) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] (0.0 if empty).

    ``presorted=True`` skips the sort for callers that already hold
    ``values`` in ascending order (e.g. a report taking several
    percentiles of one list — sort once, reuse).
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not values:
        return 0.0
    ordered = values if presorted else sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass(frozen=True)
class SloConfig:
    """The service-level objective a completed request must meet."""

    ttft_s: float = 2.0
    tpot_s: float = 0.05

    def met_by(self, request: ServeRequest) -> bool:
        """True if the request finished within both SLO components."""
        if not request.finished:
            return False
        ttft = request.ttft_s
        tpot = request.tpot_s
        return (ttft is not None and ttft <= self.ttft_s
                and (tpot is None or tpot <= self.tpot_s))

    # -- token-level attainment ----------------------------------------
    def token_deadline_s(self, index: int) -> float:
        """Deadline of output token ``index`` (1-based), relative to
        the request's arrival: ``ttft_s + (index - 1) * tpot_s``."""
        if index < 1:
            raise ValueError(f"token index must be >= 1, got {index}")
        return self.ttft_s + (index - 1) * self.tpot_s

    def tokens_on_time(self, request: ServeRequest) -> int:
        """Output tokens of ``request`` that met their deadlines.

        Emission is modeled at the request's uniform measured pace:
        token ``k`` (1-based) lands at ``ttft + (k-1) * tpot`` after
        arrival.  Token ``k`` is on time iff its lateness never
        outruns the per-token slack::

            ttft + (k-1)*tpot <= ttft_s + (k-1)*tpot_s
            <=>  (ttft - ttft_s) <= (k-1) * (tpot_s - tpot)

        which partitions the stream at one closed-form index — O(1)
        per request, no per-token loop.  Unfinished requests earn 0
        (their stream was aborted mid-flight).
        """
        if not request.finished or request.tokens_done <= 0:
            return 0
        ttft = request.ttft_s
        if ttft is None:
            return 0
        n = request.tokens_done
        tpot = request.tpot_s or 0.0
        lateness = ttft - self.ttft_s       # first token's lateness
        slack = self.tpot_s - tpot          # slack gained per later token
        if slack == 0.0:
            return n if lateness <= 0.0 else 0
        if slack > 0.0:
            # Late start, faster-than-SLO decode: tokens catch up from
            # index ceil(lateness / slack) (0-based j >= lateness/slack).
            first = math.ceil(lateness / slack)
            return n - min(max(first, 0), n)
        # slack < 0: decode slower than SLO — an on-time start decays;
        # on-time while (k-1) <= lateness / slack (division flips <=).
        if lateness > 0.0:
            return 0
        last = math.floor(lateness / slack)
        return min(last + 1, n)


@dataclass
class ServingReport:
    """Aggregate serving metrics over one request population."""

    n_requests: int
    completed: int
    rejected: int
    timed_out: int
    preemptions: int
    makespan_s: float
    mean_ttft_s: float
    p50_ttft_s: float
    p99_ttft_s: float
    mean_tpot_s: float
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    throughput_req_s: float
    goodput_req_s: float
    slo_attainment: float
    tokens_per_s: float
    utilization: float = 0.0
    peak_reserved_gb: float = 0.0
    # Token-level SLO metrics (see module docstring).  ``output_tokens``
    # counts every generated token, including rejected requests'
    # partial streams; ``on_time_tokens`` only finished requests'.
    output_tokens: int = 0
    on_time_tokens: int = 0
    token_slo_attainment: float = 0.0
    token_goodput_tok_s: float = 0.0
    # KV bytes moved between replicas by disaggregated serving, and the
    # per-phase queue-wait attribution of TTFT (mean seconds queued at
    # the prefill / decode fleet).  All zero for colocated runs.
    migrated_mb: float = 0.0
    prefill_wait_s: float = 0.0
    decode_wait_s: float = 0.0
    # Fault accounting (all zero / 1.0 with ``faults="none"``).
    # ``failed`` counts permanent fault rejections (``reject_reason ==
    # "failed"``) — disjoint from ``timed_out`` by the closed reject
    # taxonomy; ``retries`` sums crash-forced re-dispatches;
    # ``availability`` is the fraction of requests *not* lost to
    # faults; ``failed_req_s`` is the goodput lost to faults (failed
    # requests per second of makespan).
    retries: int = 0
    failed: int = 0
    availability: float = 1.0
    failed_req_s: float = 0.0
    # True when percentiles came from a streaming sketch rather than
    # exact sorted sample lists.
    streaming: bool = False

    # ------------------------------------------------------------------
    @classmethod
    def from_requests(
        cls,
        requests: Iterable[ServeRequest],
        makespan_s: float,
        slo: Optional[SloConfig] = None,
        utilization: float = 0.0,
        peak_reserved_gb: float = 0.0,
        streaming: bool = False,
        migrated_mb: float = 0.0,
    ) -> "ServingReport":
        """Aggregate a request population into one report.

        Both answers come from one :class:`ServingReportAccumulator`:
        by default it keeps every sample (exact means and percentiles,
        the reference); ``streaming=True`` keeps running sums and
        constant-memory t-digest sketches instead (percentiles within
        the sketch's rank tolerance of exact, every counter exact).
        """
        acc = ServingReportAccumulator(slo, exact=not streaming)
        for request in requests:
            acc.observe(request)
        return acc.report(makespan_s, utilization=utilization,
                          peak_reserved_gb=peak_reserved_gb,
                          migrated_mb=migrated_mb)

    # ------------------------------------------------------------------
    def as_row(self) -> dict:
        """Table row for ``repro.analysis`` rendering."""
        return {
            "req": self.n_requests,
            "done": self.completed,
            "rej": self.rejected,
            "timeout": self.timed_out,
            "failed": self.failed,
            "retry": self.retries,
            "preempt": self.preemptions,
            "TTFT p50 (ms)": round(self.p50_ttft_s * 1e3, 1),
            "TPOT (ms)": round(self.mean_tpot_s * 1e3, 2),
            "lat p50 (s)": round(self.p50_latency_s, 3),
            "lat p95 (s)": round(self.p95_latency_s, 3),
            "lat p99 (s)": round(self.p99_latency_s, 3),
            "goodput (req/s)": round(self.goodput_req_s, 3),
            "SLO %": round(self.slo_attainment * 100.0, 1),
            "tok SLO %": round(self.token_slo_attainment * 100.0, 1),
            "util": round(self.utilization, 3),
            "RM (GB)": round(self.peak_reserved_gb, 2),
            "migrated (MB)": round(self.migrated_mb, 1),
            "avail %": round(self.availability * 100.0, 1),
        }

    def summary(self) -> str:
        """One-line report, mirroring ``EngineResult.summary``."""
        faults = (f" avail={self.availability:.1%}" if self.failed else "")
        return (
            f"{self.completed}/{self.n_requests} done "
            f"({self.rejected} rejected, {self.preemptions} preemptions) "
            f"TTFT p50={self.p50_ttft_s * 1e3:.1f}ms "
            f"p99 lat={self.p99_latency_s:.2f}s "
            f"goodput={self.goodput_req_s:.2f} req/s "
            f"util={self.utilization:.1%}"
            f"{faults}"
        )


class _ExactSamples:
    """Every sample kept, in arrival order: the reference answers."""

    def __init__(self):
        self.values: List[float] = []

    def add(self, value: float) -> None:
        self.values.append(value)

    def merge(self, other: "_ExactSamples") -> None:
        self.values.extend(other.values)

    def mean(self) -> float:
        # One sum() over the kept samples, not a running ``+=``: on
        # Python >= 3.12 sum() is compensated and the two differ.
        return sum(self.values) / len(self.values) if self.values else 0.0

    def quantiles(self, *qs: float) -> List[float]:
        ordered = sorted(self.values)
        return [percentile(ordered, q, presorted=True) for q in qs]


class _StreamedSamples:
    """Running sum and count, plus a t-digest when percentiles are
    wanted (``compression > 0``): constant memory, mergeable."""

    def __init__(self, compression: int = 0):
        self.total = 0.0
        self.count = 0
        self.sketch = QuantileSketch(compression) if compression else None

    def add(self, value: float) -> None:
        self.total += value
        self.count += 1
        if self.sketch is not None:
            self.sketch.add(value)

    def merge(self, other: "_StreamedSamples") -> None:
        self.total += other.total
        self.count += other.count
        if self.sketch is not None:
            self.sketch.merge(other.sketch)

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantiles(self, *qs: float) -> List[float]:
        return [self.sketch.quantile(q) for q in qs]


class ServingReportAccumulator:
    """Mergeable aggregation of request lifecycles into a report.

    Feed finished populations through :meth:`observe`, combine
    replicas with :meth:`merge` and materialize a
    :class:`ServingReport` with :meth:`report`.  Counters are exact.
    The latency samples go to one of two stores: by default running
    sums and t-digest sketches (constant memory; sketches merge, no
    raw sample crosses the replica boundary; percentiles carry the
    t-digest's rank tolerance), with ``exact=True`` the samples
    themselves (exact means and interpolated percentiles — what
    :meth:`ServingReport.from_requests` reports unless asked to
    stream).
    """

    def __init__(self, slo: Optional[SloConfig] = None,
                 compression: int = 200, exact: bool = False):
        self.slo = slo if slo is not None else SloConfig()
        self.exact = exact
        self.n = 0
        self.completed = 0
        self.rejected = 0
        self.timed_out = 0
        self.failed = 0
        self.retries = 0
        self.preemptions = 0
        self.slo_met = 0
        self.tokens_out = 0
        self.output_tokens = 0
        self.on_time_tokens = 0

        def store(percentiles: bool = False):
            if exact:
                return _ExactSamples()
            return _StreamedSamples(compression if percentiles else 0)

        self.ttft = store(percentiles=True)
        self.latency = store(percentiles=True)
        self.tpot = store()
        self.prefill_wait = store()
        self.decode_wait = store()

    # ------------------------------------------------------------------
    def observe(self, request: ServeRequest) -> None:
        """Fold one terminal request into the accumulator."""
        self.n += 1
        self.preemptions += request.preemptions
        self.retries += request.retries
        self.output_tokens += request.tokens_done
        if request.prefill_wait_s is not None:
            self.prefill_wait.add(request.prefill_wait_s)
        if request.decode_wait_s is not None:
            self.decode_wait.add(request.decode_wait_s)
        if request.rejected:
            self.rejected += 1
            if request.reject_reason == "timeout":
                self.timed_out += 1
            elif request.reject_reason == "failed":
                self.failed += 1
        if not request.finished:
            return
        self.completed += 1
        self.tokens_out += request.tokens_done
        if self.slo.met_by(request):
            self.slo_met += 1
        self.on_time_tokens += self.slo.tokens_on_time(request)
        ttft = request.ttft_s
        if ttft is not None:
            self.ttft.add(ttft)
        tpot = request.tpot_s
        if tpot is not None:
            self.tpot.add(tpot)
        latency = request.latency_s
        if latency is not None:
            self.latency.add(latency)

    def merge(self, other: "ServingReportAccumulator") -> "ServingReportAccumulator":
        """Fold ``other`` (same SLO, same sample store) into this
        accumulator in place."""
        if other.slo != self.slo or other.exact != self.exact:
            raise ValueError(
                f"cannot merge accumulators with different SLOs or "
                f"sample stores ({self.slo}, exact={self.exact} vs "
                f"{other.slo}, exact={other.exact})")
        self.n += other.n
        self.completed += other.completed
        self.rejected += other.rejected
        self.timed_out += other.timed_out
        self.failed += other.failed
        self.retries += other.retries
        self.preemptions += other.preemptions
        self.slo_met += other.slo_met
        self.tokens_out += other.tokens_out
        self.output_tokens += other.output_tokens
        self.on_time_tokens += other.on_time_tokens
        for name in ("ttft", "latency", "tpot", "prefill_wait",
                     "decode_wait"):
            getattr(self, name).merge(getattr(other, name))
        return self

    # ------------------------------------------------------------------
    def report(self, makespan_s: float, utilization: float = 0.0,
               peak_reserved_gb: float = 0.0,
               migrated_mb: float = 0.0) -> ServingReport:
        """Materialize the accumulated state as a report."""
        span = max(makespan_s, 1e-9)
        p50_ttft, p99_ttft = self.ttft.quantiles(50, 99)
        p50_latency, p95_latency, p99_latency = self.latency.quantiles(
            50, 95, 99)
        return ServingReport(
            n_requests=self.n,
            completed=self.completed,
            rejected=self.rejected,
            timed_out=self.timed_out,
            preemptions=self.preemptions,
            makespan_s=makespan_s,
            mean_ttft_s=self.ttft.mean(),
            p50_ttft_s=p50_ttft,
            p99_ttft_s=p99_ttft,
            mean_tpot_s=self.tpot.mean(),
            p50_latency_s=p50_latency,
            p95_latency_s=p95_latency,
            p99_latency_s=p99_latency,
            throughput_req_s=self.completed / span,
            goodput_req_s=self.slo_met / span,
            slo_attainment=self.slo_met / self.n if self.n else 0.0,
            tokens_per_s=self.tokens_out / span,
            utilization=utilization,
            peak_reserved_gb=peak_reserved_gb,
            output_tokens=self.output_tokens,
            on_time_tokens=self.on_time_tokens,
            token_slo_attainment=(self.on_time_tokens / self.output_tokens
                                  if self.output_tokens else 0.0),
            token_goodput_tok_s=self.on_time_tokens / span,
            migrated_mb=migrated_mb,
            prefill_wait_s=self.prefill_wait.mean(),
            decode_wait_s=self.decode_wait.mean(),
            retries=self.retries,
            failed=self.failed,
            availability=((self.n - self.failed) / self.n
                          if self.n else 1.0),
            failed_req_s=self.failed / span,
            streaming=not self.exact,
        )
