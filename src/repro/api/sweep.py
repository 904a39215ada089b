"""``run_sweep`` — fan independent experiment points across cores.

A *sweep* is a list of :class:`~repro.api.experiment.ExperimentSpec`
points (rate sweeps, allocator grids, workload grids).  Every point is
a self-contained simulation on its own simulated device with its own
fixed seed, so points are embarrassingly parallel: ``run_sweep`` ships
each point's JSON form to a ``multiprocessing`` worker and collects the
:class:`~repro.api.result.ExperimentResult` lists back in order.

Results are byte-identical whatever ``jobs`` is — parallelism changes
wall-clock only.  The merge side leans on the :class:`RunResult`
protocol: :func:`sweep_rows` renders any mix of modes into uniform
table rows.

CLI::

    python -m repro run --spec sweep.json --sweep --jobs 4

where ``sweep.json`` is either a JSON *list* of experiment objects
(one point each) or a single experiment object whose allocators are
expanded into one point per allocator.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.api.experiment import ExperimentSpec, run
from repro.api.result import ExperimentResult, run_result_row

SweepPointLike = Union[ExperimentSpec, Dict[str, Any], str]


def _normalize(point: SweepPointLike) -> ExperimentSpec:
    if isinstance(point, ExperimentSpec):
        return point
    if isinstance(point, dict):
        return ExperimentSpec.from_dict(point)
    return ExperimentSpec.load(point)


def expand_spec_points(spec: ExperimentSpec) -> List[ExperimentSpec]:
    """Split a multi-allocator experiment into one point per allocator.

    This is the unit of sweep parallelism: each allocator of each
    experiment runs on a fresh device anyway, so a two-allocator spec
    is exactly two independent points.
    """
    return [replace(spec, allocators=(allocator,))
            for allocator in spec.allocators]


def _run_point(payload: Dict[str, Any]) -> List[ExperimentResult]:
    """Worker entry: rebuild the spec from JSON form and run it."""
    return run(ExperimentSpec.from_dict(payload))


def run_sweep(
    points: Sequence[SweepPointLike],
    jobs: Optional[int] = None,
) -> List[List[ExperimentResult]]:
    """Run every sweep point, ``jobs`` at a time; results stay in order.

    Parameters
    ----------
    points:
        Experiment points (specs, their dict forms, or file paths).
    jobs:
        Worker processes.  ``None`` uses ``os.cpu_count()``; ``1`` (or
        a single point) runs serially in-process — handy under
        profilers and debuggers, and bit-for-bit the same results.

    Returns
    -------
    One ``List[ExperimentResult]`` per point (one entry per allocator
    of that point), in the order the points were given.
    """
    specs = [_normalize(point) for point in points]
    payloads = [spec.to_dict() for spec in specs]
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    jobs = min(jobs, len(payloads)) or 1
    if jobs == 1:
        return [_run_point(payload) for payload in payloads]
    with multiprocessing.get_context().Pool(processes=jobs) as pool:
        return pool.map(_run_point, payloads)


def sweep_point_label(spec: ExperimentSpec) -> str:
    """Short human label for one sweep point (the table's left column)."""
    if spec.mode == "serve":
        serving, disagg = spec.serving, spec.serving.disagg
        arrivals = (serving.arrivals or
                    f"{serving.arrival} rate={serving.rate_per_s:g}/s")
        fleet = (f"{disagg.prefill_replicas}P+{disagg.decode_replicas}D"
                 if disagg else f"x{serving.replicas}")
        return f"serve {serving.model} {arrivals} {fleet}"
    workload = spec.workload
    return (f"{spec.mode} {workload.model} bs={workload.batch_size} "
            f"g={workload.n_gpus} {workload.strategies}")


def sweep_rows(
    specs: Sequence[ExperimentSpec],
    results: Sequence[Sequence[ExperimentResult]],
) -> List[Dict[str, Any]]:
    """Uniform table rows over a whole sweep, any mix of modes.

    Each row is a (point, allocator) cell rendered through the shared
    :class:`RunResult` surface via :func:`run_result_row`.
    """
    rows: List[Dict[str, Any]] = []
    for spec, point_results in zip(specs, results):
        for result in point_results:
            rows.append({"point": sweep_point_label(spec),
                         **run_result_row(result)})
    return rows
