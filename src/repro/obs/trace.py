"""Request-lifecycle tracing: the event bus behind ``--trace``.

:class:`TraceRecorder` is a passive event sink the serving simulator
(and the cluster front-end) feeds as requests move through their
lifecycle — ``arrival``, ``admit``, ``first_token``, ``migrate_out``
/ ``migrate_in`` (disaggregated serving), ``preempt``, ``finish``,
``reject`` — plus allocator-side events (``oom``,
``empty_cache``, sampled ``memory`` counters) captured through the
existing :class:`~repro.allocators.base.AllocatorObserver` hook, and
front-end ``autoscale`` decisions.  Recording never advances the
simulated clock and never changes a decision, so a traced run is
byte-identical to an untraced one.

Two export formats:

``chrome``
    Chrome trace-event JSON (the ``{"traceEvents": [...]}`` form),
    loadable in Perfetto / ``chrome://tracing``.  Each replica is a
    process, each request a thread; the waiting/computing phases
    become ``queued`` / ``running`` / ``preempted`` complete ("X")
    spans, point events become instants ("i"), and memory samples
    become counter ("C") tracks.

``jsonl``
    One JSON object per recorded event — the compact, greppable form
    for downstream analysis.

Sinks are registered components of the ``trace`` kind
(``repro list-components --kind trace``), so
``ServingSpec`` JSON and the CLI address them with the same
``"name?key=value"`` mini-DSL as every other policy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.allocators.base import Allocation, AllocatorObserver, BaseAllocator
from repro.api.registry import Param, register_component, register_kind
from repro.api.spec import ComponentSpec

__all__ = [
    "TraceEvent",
    "TraceRecorder",
    "NoTrace",
    "NO_TRACE",
    "AllocatorTraceObserver",
    "ChromeTraceSink",
    "JsonlTraceSink",
    "sink_spec_for_path",
    "validate_chrome_trace",
]

#: The live ``trace`` catalogue dict (sink name -> ComponentInfo).
TRACE_SINKS = register_kind("trace", label="trace sink")

#: Replica id used for front-end (dispatcher/autoscaler) events that
#: belong to no single replica.
FRONTEND_REPLICA = -1

#: Request-lifecycle event kinds, in the order a request meets them.
#: ``migrate_out`` / ``migrate_in`` only occur in disaggregated
#: prefill/decode serving, when a request's KV leaves its prefill
#: replica and lands on its decode replica.  ``retry`` marks a crash
#: victim handed back to the fleet (fault injection), ``hedge`` a
#: duplicate dispatched to another replica by the hedging retry
#: policy.
REQUEST_EVENT_KINDS = (
    "arrival", "admit", "cow_copy", "first_token", "migrate_out",
    "migrate_in", "preempt", "retry", "hedge", "finish", "reject",
)

#: Allocator / front-end / KV-cache event kinds.  ``kv_shared``
#: samples the resident shared-block count of a prefix-sharing KV
#: cache (rendered as a counter track, like ``memory``).  ``crash``
#: / ``recover`` bracket a replica's fault-injected downtime (and
#: drive the fleet-wide "down replicas" counter track).
#: ``kv_demote`` / ``kv_promote`` mark KV bytes moving down to / back
#: up from a slow-memory tier (:mod:`repro.serve.memtier`), and
#: ``kv_tier`` samples each tier's resident bytes (the "tier KV (MB)"
#: counter track).
SYSTEM_EVENT_KINDS = ("memory", "oom", "empty_cache", "autoscale",
                      "kv_shared", "crash", "recover",
                      "kv_demote", "kv_promote", "kv_tier")


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event on the serving timeline.

    ``seq`` is a recorder-wide monotone counter breaking ties between
    events recorded at the same simulated instant (e.g. the ``admit``
    → ``first_token`` → ``finish`` chain of a one-token request), so
    span derivation never depends on float comparison luck.
    """

    t_s: float
    kind: str
    replica: int = 0
    req_id: Optional[int] = None
    seq: int = 0
    args: Dict[str, Any] = field(default_factory=dict)


class TraceRecorder:
    """Append-only event bus for one serving run (or one fleet run —
    replicas share a recorder; their events interleave by ``replica``).

    ``memory_every`` sets the allocator sampling stride used by
    :meth:`attach_allocator`: one ``memory`` counter event per that
    many alloc/free events (OOM and ``empty_cache`` always record).
    """

    def __init__(self, memory_every: int = 64):
        if memory_every < 1:
            raise ValueError(
                f"memory_every must be >= 1, got {memory_every}")
        self.memory_every = memory_every
        self.events: List[TraceEvent] = []
        self._seq = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, kind: str, t_s: float, replica: int = 0,
               req_id: Optional[int] = None, **args: Any) -> None:
        """Append one event (the sole mutation path)."""
        self._seq += 1
        self.events.append(TraceEvent(
            t_s=t_s, kind=kind, replica=replica, req_id=req_id,
            seq=self._seq, args=args))

    def request_event(self, kind: str, request, t_s: float,
                      **args: Any) -> None:
        """Append one lifecycle event for ``request``."""
        self.record(kind, t_s, replica=request.replica,
                    req_id=request.req_id, **args)

    def attach_allocator(self, allocator: BaseAllocator, session,
                         replica: int = 0) -> "AllocatorTraceObserver":
        """Subscribe to ``allocator``'s events on ``session``'s clock.

        Returns the attached observer (already registered on the
        allocator) so callers can detach it if they need to.
        """
        observer = AllocatorTraceObserver(
            self, session, replica=replica, every=self.memory_every)
        allocator.add_observer(observer)
        return observer

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def request_events(self) -> Dict[Tuple[int, int], List[TraceEvent]]:
        """Lifecycle events grouped per (replica, req_id), time-ordered."""
        grouped: Dict[Tuple[int, int], List[TraceEvent]] = {}
        for event in self.events:
            if event.req_id is None:
                continue
            grouped.setdefault((event.replica, event.req_id),
                               []).append(event)
        for events in grouped.values():
            events.sort(key=lambda e: (e.t_s, e.seq))
        return grouped

    def spans(self) -> List[Dict[str, Any]]:
        """Waiting/computing phases per request, derived from events.

        Each span is ``{"name":
        "queued"|"running"|"preempted"|"migrating", "replica",
        "req_id", "start_s", "end_s"}``.  A span still open when the
        event stream ends (never the case for a completed simulation)
        is dropped.  ``migrate_out`` / ``migrate_in`` events carry the
        transfer time in their ``us`` arg, so each yields a completed
        ``migrating`` span and the lane stays strictly sequential
        (never nested — :func:`validate_chrome_trace` enforces that).
        """
        spans: List[Dict[str, Any]] = []

        def close(key, name, start, end):
            replica, req_id = key
            spans.append({"name": name, "replica": replica,
                          "req_id": req_id, "start_s": start,
                          "end_s": end})

        for key, events in self.request_events().items():
            open_name: Optional[str] = None
            open_start = 0.0
            for event in events:
                if event.kind == "arrival":
                    open_name, open_start = "queued", event.t_s
                elif event.kind == "admit":
                    if open_name is not None:
                        close(key, open_name, open_start, event.t_s)
                    open_name, open_start = "running", event.t_s
                elif event.kind == "preempt":
                    if open_name is not None:
                        close(key, open_name, open_start, event.t_s)
                    if event.args.get("requeue", True):
                        open_name, open_start = "preempted", event.t_s
                    else:
                        open_name = None
                elif event.kind in ("migrate_out", "migrate_in"):
                    duration_s = event.args.get("us", 0.0) / 1e6
                    previous = open_name
                    if previous is not None:
                        close(key, previous, open_start, event.t_s)
                    close(key, "migrating", event.t_s,
                          event.t_s + duration_s)
                    if event.kind == "migrate_in" and previous is not None:
                        # The import happens inside admission: resume
                        # the interrupted phase once the bytes land.
                        open_name = previous
                        open_start = event.t_s + duration_s
                    else:
                        # migrate_out ends the request's life on this
                        # replica; its finish event closes nothing.
                        open_name = None
                elif event.kind == "retry":
                    # A crash took the request off this replica; it
                    # re-enters some replica's queue after its backoff
                    # (a later admit there opens the next span).
                    if open_name is not None:
                        close(key, open_name, open_start, event.t_s)
                    open_name = None
                elif event.kind == "hedge":
                    # The duplicate joins its target replica's queue.
                    open_name, open_start = "queued", event.t_s
                elif event.kind in ("finish", "reject"):
                    if open_name is not None:
                        close(key, open_name, open_start, event.t_s)
                    open_name = None
        spans.sort(key=lambda s: (s["start_s"], s["replica"], s["req_id"]))
        return spans

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def chrome_trace(self) -> Dict[str, Any]:
        """The run as a Chrome trace-event JSON object.

        Timestamps are microseconds (the format's unit); each replica
        is a ``pid``, each request a ``tid`` on its replica, and the
        front-end (autoscale events) is its own process.
        """
        events: List[Dict[str, Any]] = []
        pids: Dict[int, int] = {}
        replicas_down = 0

        def pid_of(replica: int) -> int:
            if replica not in pids:
                # pid 0 is the front-end; replicas start at 1.
                pids[replica] = (0 if replica == FRONTEND_REPLICA
                                 else replica + 1)
            return pids[replica]

        for span in self.spans():
            start_us = span["start_s"] * 1e6
            events.append({
                "name": span["name"], "cat": "request", "ph": "X",
                "ts": start_us,
                "dur": max(span["end_s"] * 1e6 - start_us, 0.0),
                "pid": pid_of(span["replica"]), "tid": span["req_id"],
            })
        for event in sorted(self.events, key=lambda e: (e.t_s, e.seq)):
            ts = event.t_s * 1e6
            pid = pid_of(event.replica)
            if event.kind == "memory":
                events.append({
                    "name": "memory (MB)", "ph": "C", "ts": ts,
                    "pid": pid, "tid": 0,
                    "args": {"active": event.args.get("active_mb", 0.0),
                             "reserved": event.args.get("reserved_mb", 0.0)},
                })
            elif event.kind == "autoscale":
                fleet = event.args.get("fleet")
                events.append({
                    "name": ("active replicas" if fleet is None
                             else f"active replicas ({fleet})"),
                    "ph": "C", "ts": ts,
                    "pid": pid, "tid": 0,
                    "args": {"active": event.args.get("active", 0)},
                })
            elif event.kind == "kv_shared":
                events.append({
                    "name": "shared KV blocks", "ph": "C", "ts": ts,
                    "pid": pid, "tid": 0,
                    "args": {"blocks": event.args.get("blocks", 0)},
                })
            elif event.kind == "kv_tier":
                events.append({
                    "name": "tier KV (MB)", "ph": "C", "ts": ts,
                    "pid": pid, "tid": 0,
                    "args": {k: v for k, v in event.args.items()
                             if isinstance(v, (int, float))},
                })
            elif event.kind in ("crash", "recover"):
                # Instant on the replica's own lane, plus the running
                # fleet-wide "down replicas" counter on the front-end
                # process (crash/recover events arrive time-sorted, so
                # the +1/-1 walk reconstructs the count exactly).
                replicas_down += 1 if event.kind == "crash" else -1
                events.append({
                    "name": event.kind, "cat": "event", "ph": "i",
                    "ts": ts, "pid": pid, "tid": 0, "s": "p",
                    "args": {k: v for k, v in event.args.items()
                             if isinstance(v, (int, float, str, bool))},
                })
                events.append({
                    "name": "down replicas", "ph": "C", "ts": ts,
                    "pid": pid_of(FRONTEND_REPLICA), "tid": 0,
                    "args": {"down": max(replicas_down, 0)},
                })
            elif event.kind in ("oom", "empty_cache", "first_token",
                                "migrate_out", "migrate_in",
                                "preempt", "reject", "cow_copy",
                                "retry", "hedge",
                                "kv_demote", "kv_promote"):
                args = {k: v for k, v in event.args.items()
                        if isinstance(v, (int, float, str, bool))}
                events.append({
                    "name": event.kind, "cat": "event", "ph": "i",
                    "ts": ts, "pid": pid,
                    "tid": event.req_id if event.req_id is not None else 0,
                    "s": "t", "args": args,
                })
        events.sort(key=lambda e: e["ts"])
        meta: List[Dict[str, Any]] = []
        for replica, pid in sorted(pids.items(), key=lambda kv: kv[1]):
            name = ("front-end" if replica == FRONTEND_REPLICA
                    else f"replica {replica}")
            meta.append({"name": "process_name", "ph": "M", "pid": pid,
                         "tid": 0, "args": {"name": name}})
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def to_chrome(self, path: str) -> int:
        """Write the Chrome trace JSON; returns the event count.

        The bytes ``json.dump(data, separators=(",", ":"))`` writes,
        one event at a time through the C encoder (``json.dump`` runs
        the pure-Python one), never holding the encoded document."""
        data = self.chrome_trace()
        events = data["traceEvents"]
        encode = json.JSONEncoder(separators=(",", ":")).encode
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"traceEvents":[')
            sep = ""
            for event in events:
                handle.write(sep + encode(event))
                sep = ","
            handle.write('],"displayTimeUnit":'
                         + encode(data["displayTimeUnit"]) + "}\n")
        return len(events)

    def to_jsonl(self, path: str) -> int:
        """Write one compact JSON object per event; returns the count."""
        with open(path, "w", encoding="utf-8") as handle:
            for event in sorted(self.events, key=lambda e: (e.t_s, e.seq)):
                row: Dict[str, Any] = {"t": event.t_s, "kind": event.kind,
                                       "replica": event.replica}
                if event.req_id is not None:
                    row["req"] = event.req_id
                if event.args:
                    row.update(event.args)
                handle.write(json.dumps(row, separators=(",", ":")) + "\n")
        return len(self.events)

    def __len__(self) -> int:
        return len(self.events)


class NoTrace(TraceRecorder):
    """Tracing off: records nothing and attaches no allocator observer,
    so the allocator keeps its unobserved fast paths.  It never holds
    an event, so one instance, :data:`NO_TRACE`, serves every run."""

    def record(self, *args: Any, **kwargs: Any) -> None:
        pass

    request_event = attach_allocator = record


#: The recorder of every untraced run.
NO_TRACE = NoTrace()


class AllocatorTraceObserver(AllocatorObserver):
    """Bridges :class:`AllocatorObserver` hooks into a recorder.

    Every OOM and ``empty_cache`` records an instant; one in ``every``
    alloc/free events records a ``memory`` counter sample (plus the
    very first, so the trace shows the weights' baseline).  Time is
    the owning session's ``elapsed_s`` — the same clock the simulator
    stamps lifecycle events with.  The events between two samples
    only count, so :meth:`idle_events` vouches for them.
    """

    def __init__(self, recorder: TraceRecorder, session,
                 replica: int = 0, every: int = 64):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.recorder = recorder
        self.session = session
        self.replica = replica
        self.every = every
        self.idle_span = every - 1
        self._events = 0

    def _sample(self, allocator: BaseAllocator) -> None:
        self.recorder.record(
            "memory", self.session.elapsed_s, replica=self.replica,
            active_mb=round(allocator.active_bytes / (1 << 20), 3),
            reserved_mb=round(allocator.reserved_bytes / (1 << 20), 3))

    def _tick(self, allocator: BaseAllocator) -> None:
        self._events += 1
        if self._events == 1 or self._events % self.every == 0:
            self._sample(allocator)

    # -- AllocatorObserver hooks ---------------------------------------
    def idle_events(self) -> int:
        """The events before the next one :meth:`_tick` samples."""
        events = self._events
        if not events:
            return 0  # the first is sampled
        return self.every - 1 - events % self.every

    def skip_events(self, n: int) -> None:
        self._events += n

    def on_alloc(self, allocator: BaseAllocator,
                 allocation: Allocation) -> None:
        self._tick(allocator)

    def on_free(self, allocator: BaseAllocator,
                allocation: Allocation) -> None:
        self._tick(allocator)

    def on_empty_cache(self, allocator: BaseAllocator) -> None:
        self.recorder.record("empty_cache", self.session.elapsed_s,
                             replica=self.replica)
        self._sample(allocator)

    def on_oom(self, allocator: BaseAllocator, size: int, error) -> None:
        self.recorder.record("oom", self.session.elapsed_s,
                             replica=self.replica, size=size)
        self._sample(allocator)


# ----------------------------------------------------------------------
# Well-formedness checks (used by tests and the CI smoke)
# ----------------------------------------------------------------------
def validate_chrome_trace(data: Any) -> int:
    """Check Chrome trace-event JSON well-formedness; returns the event
    count.  Raises :class:`ValueError` on: a missing/ill-typed
    ``traceEvents`` list, negative or non-numeric timestamps/durations,
    or overlapping "X" spans on one (pid, tid) lane (phases must nest —
    and this simulator's request phases are strictly sequential, so any
    overlap means the exporter emitted a non-monotone timeline).
    """
    if not isinstance(data, dict) or not isinstance(
            data.get("traceEvents"), list):
        raise ValueError("chrome trace must be an object with a "
                         "'traceEvents' list")
    events = data["traceEvents"]
    lanes: Dict[Tuple[Any, Any], float] = {}
    last_ts = float("-inf")
    for i, event in enumerate(events):
        if not isinstance(event, dict) or "ph" not in event:
            raise ValueError(f"traceEvents[{i}] is not a phase event")
        if event["ph"] == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"traceEvents[{i}] has bad ts {ts!r}")
        if ts < last_ts:
            raise ValueError(
                f"traceEvents[{i}] ts {ts} precedes {last_ts} "
                "(stream must be time-ordered)")
        last_ts = ts
        if event["ph"] == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"traceEvents[{i}] has bad dur {dur!r}")
            lane = (event.get("pid"), event.get("tid"))
            open_until = lanes.get(lane, float("-inf"))
            if ts < open_until - 1e-6:
                raise ValueError(
                    f"traceEvents[{i}] overlaps the previous span on "
                    f"pid/tid {lane} (starts {ts} before {open_until})")
            lanes[lane] = max(open_until, ts + dur)
    return len(events)


# ----------------------------------------------------------------------
# Sinks: the registered ``trace`` component kind
# ----------------------------------------------------------------------
def _checked_path(path: str) -> str:
    if not str(path).strip():
        raise ValueError("trace sink needs a non-empty path")
    return path


@register_component(
    "trace", "chrome",
    aliases=("perfetto",),
    params=(
        Param("path", str, "trace.json", kind="str",
              doc="output file for the Chrome trace-event JSON"),
    ),
    description="Chrome trace-event JSON (load in Perfetto or "
                "chrome://tracing)",
)
class ChromeTraceSink:
    """Writes a recorder as Chrome trace-event JSON."""

    name = "chrome"

    def __init__(self, path: str = "trace.json"):
        self.path = _checked_path(path)

    def write(self, recorder: TraceRecorder) -> str:
        """Export ``recorder`` to :attr:`path`; returns the path."""
        recorder.to_chrome(self.path)
        return self.path


@register_component(
    "trace", "jsonl",
    params=(
        Param("path", str, "trace.jsonl", kind="str",
              doc="output file for the JSONL event log"),
    ),
    description="compact JSONL event log (one JSON object per event)",
)
class JsonlTraceSink:
    """Writes a recorder as one JSON object per line."""

    name = "jsonl"

    def __init__(self, path: str = "trace.jsonl"):
        self.path = _checked_path(path)

    def write(self, recorder: TraceRecorder) -> str:
        """Export ``recorder`` to :attr:`path`; returns the path."""
        recorder.to_jsonl(self.path)
        return self.path


def sink_spec_for_path(path: str) -> ComponentSpec:
    """A ``trace`` sink spec inferred from a path's suffix (``.jsonl``
    → ``jsonl``, anything else → ``chrome``)."""
    name = "jsonl" if str(path).endswith(".jsonl") else "chrome"
    return ComponentSpec(name, {"path": path}, "trace")
