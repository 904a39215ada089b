"""``repro.obs`` — structured serving telemetry.

Three complementary instruments over the online serving simulator,
all passive: a run without them is byte-identical to one before this
package existed, and "without" means the do-nothing ``NO_TRACE`` /
``NO_GAUGES`` instances, which the simulator calls unconditionally:

* **Lifecycle tracing** (:mod:`repro.obs.trace`) —
  :class:`TraceRecorder` captures every request's arrival → queued →
  admitted → first-token → preempt/resume → finish/reject path plus
  allocator events (OOM, ``empty_cache``, sampled memory) through the
  existing :class:`~repro.allocators.base.AllocatorObserver` hook, and
  exports Chrome trace-event JSON (Perfetto-loadable) or compact
  JSONL.  Export sinks are registered components of the new ``trace``
  kind (``repro list-components --kind trace``).
* **Streaming quantiles** (:mod:`repro.obs.sketch`) —
  :class:`QuantileSketch`, a mergeable t-digest backing
  ``ServingReport.from_requests(streaming=True)``: percentiles in
  constant memory, and fleet-level reports merge per-replica sketches
  instead of concatenating sample lists.
* **Time-series gauges** (:mod:`repro.obs.gauges`) —
  :class:`GaugeSampler` polls queue depth, running count, pool/KV
  bytes, KV block utilization and active replicas on a fixed
  simulated-time stride, for ``repro.analysis`` tables.

Wire-up: ``repro serve --trace out.json --gauges --streaming``, or the
``trace`` / ``gauge_every_s`` / ``streaming`` fields of
:class:`repro.api.ServingSpec`.
"""

from repro.obs.gauges import GaugePoint, GaugeSampler
from repro.obs.sketch import QuantileSketch
from repro.obs.trace import (
    FRONTEND_REPLICA,
    REQUEST_EVENT_KINDS,
    SYSTEM_EVENT_KINDS,
    TRACE_SINKS,
    AllocatorTraceObserver,
    ChromeTraceSink,
    JsonlTraceSink,
    TraceEvent,
    TraceRecorder,
    sink_spec_for_path,
    validate_chrome_trace,
)

__all__ = [
    "AllocatorTraceObserver",
    "ChromeTraceSink",
    "FRONTEND_REPLICA",
    "GaugePoint",
    "GaugeSampler",
    "JsonlTraceSink",
    "QuantileSketch",
    "REQUEST_EVENT_KINDS",
    "SYSTEM_EVENT_KINDS",
    "TRACE_SINKS",
    "TraceEvent",
    "TraceRecorder",
    "sink_spec_for_path",
    "validate_chrome_trace",
]
