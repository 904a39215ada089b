"""Reporting layer: experiment runners and table rendering.

- :mod:`repro.analysis.tables` — plain-text table formatting used by
  every paper artefact.
- :mod:`repro.analysis.experiments` — :func:`grid`, the one helper
  that runs a base experiment spec × ordered axes through
  :func:`repro.api.run_sweep` (every paper figure's grid, ``repro
  sweep``), and :func:`comparison` for baseline-vs-GMLake rows.
- :mod:`repro.analysis.summary` — the §5 "76 workloads / 8 models"
  aggregate statistics.
- :mod:`repro.analysis.serving` — serving-summary tables for the
  online serving simulator (:mod:`repro.serve`).
- :mod:`repro.analysis.observability` — gauge time-series tables for
  :mod:`repro.obs` telemetry.
"""

from repro.analysis.experiments import along, comparison, grid
from repro.analysis.memory_report import (
    MemoryReport,
    PeakMemoryObserver,
    fragmentation_headroom,
    report_for,
)
from repro.analysis.observability import format_gauges, gauge_rows
from repro.analysis.serving import (
    format_serving_summary,
    format_tenant_summary,
    goodput_vs_rate_rows,
    serving_summary_rows,
    tenant_rows,
)
from repro.analysis.summary import SummaryStats, summarize
from repro.analysis.tables import format_table

__all__ = [
    "format_gauges",
    "gauge_rows",
    "format_serving_summary",
    "format_tenant_summary",
    "goodput_vs_rate_rows",
    "serving_summary_rows",
    "tenant_rows",
    "along",
    "comparison",
    "grid",
    "SummaryStats",
    "summarize",
    "format_table",
    "MemoryReport",
    "PeakMemoryObserver",
    "report_for",
    "fragmentation_headroom",
]
