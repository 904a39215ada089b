"""``repro.api`` — the public surface for building and running experiments.

Three layers, each usable alone:

* **Registry** (:mod:`repro.api.registry`) — every component (an
  allocator, a scheduler, a KV-cache model, ...) registers once with
  :func:`register_component` (kind, canonical name, aliases, paper
  section, tunable parameters).  The CLI, benchmarks and simulators all
  resolve components here; plugging in a new one is one decorator.
* **Specs** (:mod:`repro.api.spec`) — :class:`ComponentSpec` (alias
  :class:`AllocatorSpec` for its default kind) parses the
  ``"gmlake?chunk_mb=512&stitching=off"`` mini-DSL into a validated,
  JSON-round-trippable configuration, and :func:`resolve` builds the
  component; :class:`ExperimentSpec` does the same for a whole
  experiment (mode + workload + allocators).
* **Runner** (:mod:`repro.api.experiment`) — :func:`run` dispatches
  replay, cluster and serving runs through one code path; each
  :class:`ExperimentResult` reads the :class:`RunResult` surface off its
  mode's own ``raw`` result (the §5.1 ratios: ``MemoryHeadline``).
* **Sweeps** (:mod:`repro.api.sweep`) — :func:`run_sweep` fans
  independent experiment points over worker processes (results are
  byte-identical at any job count) and :func:`sweep_rows` merges any
  mix of modes into uniform tables via the :class:`RunResult` surface.

Quick start::

    from repro import api

    allocator = api.AllocatorSpec.parse("gmlake?chunk_mb=512")
    results = api.run(api.ExperimentSpec(
        mode="replay",
        allocators=["caching", allocator],
        workload=api.WorkloadSpec(model="opt-1.3b", batch_size=2),
    ))
    print(results[-1].summary())
"""

from repro.api.experiment import (
    MODES,
    DisaggSpec,
    ExperimentSpec,
    ServingSpec,
    WorkloadSpec,
    run,
)
from repro.api.registry import (
    ComponentInfo,
    Param,
    SpecError,
    UnknownComponentError,
    component_kinds,
    component_names,
    get_component_info,
    iter_components,
    kind_label,
    register_component,
    register_kind,
)
from repro.api.result import (
    ExperimentResult,
    RunResult,
    WorstMemberRunResult,
    run_result_row,
)
from repro.api.spec import (
    AllocatorSpec,
    ComponentSpec,
    SpecLike,
    resolve,
    resolve_allocator,
)
from repro.api.sweep import (
    expand_spec_points,
    run_sweep,
    sweep_point_label,
    sweep_rows,
)

__all__ = [
    "AllocatorSpec",
    "ComponentInfo",
    "ComponentSpec",
    "DisaggSpec",
    "ExperimentResult",
    "ExperimentSpec",
    "MODES",
    "Param",
    "RunResult",
    "ServingSpec",
    "SpecError",
    "SpecLike",
    "UnknownComponentError",
    "WorkloadSpec",
    "WorstMemberRunResult",
    "component_kinds",
    "component_names",
    "expand_spec_points",
    "get_component_info",
    "iter_components",
    "kind_label",
    "register_component",
    "register_kind",
    "resolve",
    "resolve_allocator",
    "run",
    "run_result_row",
    "run_sweep",
    "sweep_point_label",
    "sweep_rows",
]
