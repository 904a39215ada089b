"""The paper's experiment grids, built by one helper.

A *grid* is a base :class:`~repro.api.ExperimentSpec` crossed with
ordered axes.  An axis maps each of its keys to the spec fields that
key overrides (:func:`along` builds the common one-field axis); a field
is an ``ExperimentSpec`` field (``allocators``, ``capacity``) or a
field of its ``workload`` / ``serving`` block.  :func:`grid` runs every
point through :func:`~repro.api.run_sweep` and returns the results
keyed by axis values.  Benches render the results; tests assert their
shapes (who wins, direction of trends, OOM ordering).
"""

from __future__ import annotations

from dataclasses import fields, replace
from itertools import product
from typing import Any, Dict, Hashable, Iterable, Mapping, Optional, Sequence

from repro.api.experiment import ExperimentSpec
from repro.api.result import ExperimentResult
from repro.api.sweep import run_sweep
from repro.sim.engine import EngineResult
from repro.sim.metrics import ComparisonRow, compare_results

#: Axis key -> the spec fields that key sets.
Axis = Mapping[Hashable, Mapping[str, Any]]

_SPEC_FIELDS = frozenset(f.name for f in fields(ExperimentSpec))


def along(field: str, values: Iterable[Any]) -> Dict[Any, Dict[str, Any]]:
    """The one-field axis: each value keys the point setting ``field``
    to it."""
    return {value: {field: value} for value in values}


def point(base: ExperimentSpec, overrides: Mapping[str, Any]) -> ExperimentSpec:
    """``base`` with ``overrides`` applied to the spec's own fields or,
    for any other name, to its workload (replay / cluster) or serving
    (serve) block."""
    spec = replace(base, **{k: v for k, v in overrides.items()
                            if k in _SPEC_FIELDS})
    inner = {k: v for k, v in overrides.items() if k not in _SPEC_FIELDS}
    if inner:
        block = "serving" if spec.mode == "serve" else "workload"
        spec = replace(spec, **{block: replace(getattr(spec, block), **inner)})
    return spec


def grid(base: ExperimentSpec, *axes: Axis, jobs: Optional[int] = None):
    """Run ``base`` × ``axes`` through :func:`run_sweep` (``jobs`` as
    there: results are identical at any value).

    Returns nested dicts, one level per axis in axis order, keyed by
    axis keys; each leaf is one point's results, one
    :class:`~repro.api.ExperimentResult` per allocator.  With no axes
    the base's own result list comes back.  Later axes override
    earlier ones on a shared field.
    """
    cells = list(product(*(axis.items() for axis in axes)))
    points = [point(base, {field: value
                           for _, overrides in cell
                           for field, value in overrides.items()})
              for cell in cells]
    results = run_sweep(points, jobs=jobs)
    if not axes:
        return results[0]
    out: Dict[Hashable, Any] = {}
    for cell, result in zip(cells, results):
        node = out
        for key, _ in cell[:-1]:
            node = node.setdefault(key, {})
        node[cell[-1][0]] = result
    return out


def comparison(results: Sequence[ExperimentResult]) -> ComparisonRow:
    """A replay point run under (baseline, GMLake), as one row."""
    baseline, gmlake = (result.raw for result in results)
    return compare_results(baseline.meta["label"], baseline, gmlake)


def first_oom_batch(
    rows: Sequence[ComparisonRow],
    side: str = "baseline",
) -> Optional[int]:
    """Smallest batch size whose run OOMed on ``side`` (Fig. 13's OOM
    markers); None when the sweep never OOMed."""
    for row in rows:
        result: EngineResult = getattr(row, side)
        if result.oom:
            return int(result.meta["batch_size"])
    return None
