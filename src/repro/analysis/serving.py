"""Serving-summary tables for the online serving simulator.

Renders :class:`~repro.serve.metrics.ServingReport` populations the
same way the training artefacts render :class:`EngineResult` grids,
so `python -m repro serve` output and the ``ext-online-serving``
artefact's table look identical.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.serve.metrics import ServingReport, SloConfig
from repro.serve.request import ServeRequest
from repro.units import MB


def serving_row(label: Any, result: Any,
                report: ServingReport) -> Dict[str, Any]:
    """One labelled table row: ``report``'s SLO metrics beside the
    memory headline of the run ``result`` it came from."""
    row: Dict[str, Any] = {"run": label, **report.as_row()}
    availability = row.pop("avail %")  # stays the last column
    row["util"] = round(result.utilization_ratio, 3)
    row["RM (GB)"] = round(result.peak_reserved_gb, 2)
    row["migrated (MB)"] = round(result.kv_metrics.migrated_bytes / MB, 1)
    row["avail %"] = availability
    return row


def serving_summary_rows(
    runs: Mapping[Any, Tuple[Any, ServingReport]],
) -> List[Dict[str, Any]]:
    """Rows for a {label: (result, report)} mapping, in insertion
    order."""
    return [serving_row(label, result, report)
            for label, (result, report) in runs.items()]


def format_serving_summary(
    runs: Mapping[Any, Tuple[Any, ServingReport]],
    title: Optional[str] = None,
    slo: Optional[SloConfig] = None,
) -> str:
    """Render the serving-summary table of {label: (result, report)}.

    ``slo`` is only used for the title annotation — the reports were
    already computed against their SLO.
    """
    slo = slo if slo is not None else SloConfig()
    if title is None:
        title = "online serving summary"
    title = (f"{title}  (SLO: TTFT <= {slo.ttft_s:g}s, "
             f"TPOT <= {slo.tpot_s * 1e3:g}ms)")
    return format_table(serving_summary_rows(runs), title=title)


def goodput_vs_rate_rows(
    cells: Sequence[Tuple[float, Mapping[str, ServingReport]]],
) -> List[Dict[str, Any]]:
    """Rows for a rising-arrival-rate sweep: one row per rate, one
    goodput/SLO column pair per allocator — the §6-style capacity
    picture (``cells`` is ``[(rate, {allocator: report}), ...]``)."""
    rows = []
    for rate, by_allocator in cells:
        row: Dict[str, Any] = {"rate (req/s)": rate}
        for name, report in by_allocator.items():
            row[f"goodput {name}"] = round(report.goodput_req_s, 3)
            row[f"SLO% {name}"] = round(report.slo_attainment * 100.0, 1)
            row[f"preempt {name}"] = report.preemptions
        rows.append(row)
    return rows


def defrag_comparison_rows(
    results: Mapping[Any, Any],
    slo: Optional[SloConfig] = None,
) -> List[Dict[str, Any]]:
    """One row per serving run, pool-level next to cache-level defrag.

    ``results`` maps a display label to a
    :class:`~repro.serve.simulator.ServingResult` (duck-typed — any
    object with ``report()``, allocator/KV names, pool stats and
    ``kv_metrics`` works).  Each row pairs the *pool* fragmentation the
    allocator left (``pool frag``, 1 − utilization) with the *cache*
    fragmentation the KV model left (``kv frag``, internal waste in
    chunk/block tails), plus the copy traffic the layout cost — so a
    table with gmlake+chunked, caching+chunked and paged rows answers
    the head-to-head question: where did each strategy pay?
    """
    rows = []
    for label, result in results.items():
        report = result.report(slo)
        kv = getattr(result, "kv_metrics", None)
        rows.append({
            "run": label,
            "allocator": getattr(result, "allocator_name", "-"),
            "kv": getattr(result, "kv_cache_name", "-"),
            "goodput (req/s)": round(report.goodput_req_s, 3),
            "SLO %": round(report.slo_attainment * 100.0, 1),
            "preempt": report.preemptions,
            "RM (GB)": round(result.peak_reserved_gb, 2),
            "pool frag": round(result.fragmentation_ratio, 3),
            "kv frag": round(kv.internal_frag_ratio, 3) if kv else "-",
            "copy (MB)": round(
                (kv.grow_copy_bytes + kv.preempt_copy_bytes) / (1 << 20), 1)
            if kv else "-",
            # Interconnect traffic of swap-based preemption; 0 under
            # recompute.
            "swap (MB)": round(kv.swapped_bytes / (1 << 20), 1)
            if kv else "-",
            # Cross-replica KV migration of disaggregated serving; 0 on
            # colocated runs.
            "migrated (MB)": round(
                getattr(kv, "migrated_bytes", 0) / (1 << 20), 1)
            if kv else "-",
        })
        # Prefix-sharing columns appear only when some run declared
        # prefixes, so existing tables keep their shape.
        if kv is not None and getattr(kv, "prefix_lookups", 0):
            rows[-1]["prefix hit"] = round(kv.prefix_hit_rate, 3)
            rows[-1]["shared (MB)"] = round(kv.shared_bytes / (1 << 20), 1)
            rows[-1]["cow (MB)"] = round(kv.cow_copy_bytes / (1 << 20), 2)
        # Tier-offload columns appear only when some run demoted KV
        # into a slow-memory hierarchy (memory_tiers runs).
        if kv is not None and getattr(kv, "demoted_bytes", None):
            rows[-1]["demoted (MB)"] = round(
                sum(kv.demoted_bytes.values()) / (1 << 20), 1)
            rows[-1]["promoted (MB)"] = round(
                sum(kv.promoted_bytes.values()) / (1 << 20), 1)
    # format_table keys columns off the first row, so when any run fed
    # the hierarchy, give the tierless baselines explicit zero cells.
    if any("demoted (MB)" in row for row in rows):
        for row in rows:
            row.setdefault("demoted (MB)", 0.0)
            row.setdefault("promoted (MB)", 0.0)
    return rows


def format_defrag_comparison(
    results: Mapping[Any, Any],
    title: Optional[str] = None,
    slo: Optional[SloConfig] = None,
) -> str:
    """Render the pool-level vs. cache-level defragmentation table."""
    if title is None:
        title = "pool-level vs. cache-level defragmentation"
    return format_table(defrag_comparison_rows(results, slo), title=title)


def tenant_rows(
    requests: Iterable[ServeRequest],
    makespan_s: float,
    slo: Optional[SloConfig] = None,
) -> List[Dict[str, Any]]:
    """One SLO-metrics row per tenant of a multi-tenant run.

    Groups the request population by ``request.tenant`` (requests
    without a tenant land in a ``"-"`` row) and reports each group
    through the same :class:`~repro.serve.metrics.ServingReport`
    aggregation as the fleet-wide summary, plus the tenant's share of
    completed output tokens — the quantity weighted-fair queueing
    divides.  Rows are sorted by tenant id for stable output.
    """
    groups: Dict[str, List[ServeRequest]] = {}
    for request in requests:
        groups.setdefault(request.tenant or "-", []).append(request)
    total_tokens = sum(r.tokens_done for g in groups.values()
                       for r in g if r.finished) or 1
    rows = []
    for tenant in sorted(groups):
        population = groups[tenant]
        report = ServingReport.from_requests(population, makespan_s, slo)
        tokens = sum(r.tokens_done for r in population if r.finished)
        row: Dict[str, Any] = {"tenant": tenant, "requests": len(population)}
        row.update(report.as_row())
        del row["req"]  # the "requests" column above
        row["tokens"] = tokens
        row["token share"] = round(tokens / total_tokens, 3)
        rows.append(row)
    return rows


def format_tenant_summary(
    requests: Iterable[ServeRequest],
    makespan_s: float,
    title: Optional[str] = None,
    slo: Optional[SloConfig] = None,
) -> str:
    """Render the per-tenant serving table (``repro serve --tenants``)."""
    rows = tenant_rows(requests, makespan_s, slo)
    if not rows:
        return "(no requests)"
    return format_table(rows, title=title or "per-tenant serving summary")
