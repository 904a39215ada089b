"""Layer attribution: ``src/repro`` module -> layer, cProfile -> shares.

A *layer* is a module (or a few that only make sense together) under
``src/repro``.  The traced run profiles ``api.run(spec)`` with
``cProfile``; :func:`attribute` folds the profile into per-layer CPU
self time and calls.  Time in code outside ``src/repro`` (builtins,
stdlib, the harness's span wrappers) is charged to the layer that
called it, walking the callers table upwards; what no layer called is
``other``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

LAYERS: Tuple[str, ...] = (
    "api", "workloads", "sim", "allocators", "core", "sortedlist", "gpu",
    "serve.arrivals", "serve.simulator", "serve.scheduler", "serve.kvcache",
    "serve.preemption", "serve.cluster", "serve.disagg", "serve.metrics",
    "obs", "other",
)

#: Whole packages: the package and everything below it.
PACKAGE_LAYERS: Dict[str, str] = {
    "repro.api": "api",
    # Front-ends over repro.api; nothing in them runs under api.run.
    "repro.analysis": "api",
    "repro.workloads": "workloads",
    "repro.sim": "sim",
    "repro.allocators": "allocators",
    "repro.core": "core",
    "repro.gpu": "gpu",
    "repro.obs": "obs",
}

#: Single modules.  ``repro.serve`` is listed module by module so that a
#: new file under it is unmapped (and fails the self-test) until someone
#: decides which layer it belongs to.
MODULE_LAYERS: Dict[str, str] = {
    "repro": "api",
    "repro.__main__": "api",
    "repro.cli": "api",
    "repro.errors": "api",
    "repro.units": "api",
    "repro.testing": "api",
    "repro.sortedlist": "sortedlist",
    "repro.serve": "serve.simulator",
    "repro.serve.arrivals": "serve.arrivals",
    "repro.serve.simulator": "serve.simulator",
    "repro.serve.request": "serve.simulator",
    "repro.serve.scheduler": "serve.scheduler",
    "repro.serve.kvcache": "serve.kvcache",
    "repro.serve.prefix": "serve.kvcache",
    "repro.serve.preemption": "serve.preemption",
    "repro.serve.memtier": "serve.preemption",
    "repro.serve.interconnect": "serve.preemption",
    "repro.serve.cluster": "serve.cluster",
    "repro.serve.faults": "serve.cluster",
    "repro.serve.autoscale": "serve.cluster",
    "repro.serve.disagg": "serve.disagg",
    "repro.serve.metrics": "serve.metrics",
}


def layer_of_module(module: str) -> Optional[str]:
    """The layer of a dotted module name, ``None`` if it has none."""
    layer = MODULE_LAYERS.get(module)
    if layer is not None:
        return layer
    parts = module.split(".")
    for end in range(len(parts), 0, -1):
        layer = PACKAGE_LAYERS.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    return None


def module_of_file(path: str, src_root: str) -> Optional[str]:
    """``<src_root>/repro/serve/kvcache.py`` -> ``repro.serve.kvcache``;
    ``None`` for a file outside ``src_root`` (or not a ``.py`` file)."""
    prefix = src_root.rstrip("/") + "/"
    if not (path.startswith(prefix) and path.endswith(".py")):
        return None
    parts = path[len(prefix):-3].split("/")
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer_of_file(path: str, src_root: str) -> Optional[str]:
    """The layer of a source file; ``None`` for code outside every layer
    (builtins, stdlib, the harness)."""
    module = module_of_file(path, src_root)
    return layer_of_module(module) if module else None


# ----------------------------------------------------------------------
# cProfile post-processing
# ----------------------------------------------------------------------
#: A pstats function key: (filename, first line, function name).
Func = Tuple[str, int, str]


def _is_public(name: str) -> bool:
    """A name callers outside the layer may use: no single leading
    underscore, and not a compiler-made frame (``<module>``, ``<lambda>``,
    ``<listcomp>``, ...)."""
    if name.startswith("<"):
        return False
    return not name.startswith("_") or (name.startswith("__")
                                        and name.endswith("__"))


def _edge_shares(callers: Dict[Func, tuple], index: int) -> Dict[Func, float]:
    """Each caller's share of a function, by field ``index`` of the
    caller edge ``(cc, nc, tt, ct)``; by call count when that field is
    zero on every edge."""
    weights = {caller: edge[index] for caller, edge in callers.items()}
    if not any(weights.values()):
        weights = {caller: edge[1] for caller, edge in callers.items()}
    total = sum(weights.values())
    return {caller: w / total for caller, w in weights.items()} if total else {}


def attribute(stats: Dict[Func, tuple], src_root: str,
              ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Fold ``pstats.Stats(...).stats`` into per-layer numbers.

    Returns ``(self_s, calls)``, both keyed by every name in
    :data:`LAYERS`.  ``self_s`` sums to the profile's total self time:
    a function in a layer's module keeps its own; a function elsewhere
    hands its self time to its callers (in proportion to the self time
    of each caller edge), and a caller that is itself outside every
    layer passes its part on to *its* callers (in proportion to the
    cumulative time of each edge), until a layer is reached.  ``calls``
    counts calls to a layer's public functions made by a direct caller
    that is not in that layer.
    """
    func_layer = {func: layer_of_file(func[0], src_root) for func in stats}
    memo: Dict[Func, Dict[str, float]] = {}

    def owners(func: Func, index: int, seen: frozenset) -> Dict[str, float]:
        """Layer -> share (summing to 1) of a foreign function."""
        if index == 3 and func in memo:
            return memo[func]
        shares = _edge_shares(stats[func][4], index) if func in stats else {}
        if func in seen or not shares:
            return {"other": 1.0}
        out: Dict[str, float] = defaultdict(float)
        for caller, share in shares.items():
            layer = func_layer.get(caller)
            if layer is not None:
                out[layer] += share
            else:
                for name, part in owners(caller, 3, seen | {func}).items():
                    out[name] += part * share
        if index == 3:
            memo[func] = dict(out)
        return out

    self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = func_layer[func]
        if layer is None:
            for name, share in owners(func, 2, frozenset()).items():
                self_s[name] += share * tt
            continue
        self_s[layer] += tt
        if _is_public(func[2]):
            calls[layer] += sum(edge[1] for caller, edge in callers.items()
                                if func_layer.get(caller) != layer)
    return self_s, calls


def call_count(stats: Dict[Func, tuple], path_suffix: str,
               names: Iterable[str] = (), prefix: str = "",
               line: Optional[int] = None, caller: str = "") -> int:
    """Calls to functions of the file ending in ``path_suffix`` whose
    name is in ``names`` or starts with ``prefix``.

    ``line`` pins the function's first line (to tell two ``__init__``
    of one file apart); ``caller`` counts only calls made directly by
    functions of that name (to leave out ``super()`` chains).
    """
    names = set(names)
    total = 0
    for (path, first_line, name), entry in stats.items():
        if not path.endswith(path_suffix):
            continue
        if not (name in names or (prefix and name.startswith(prefix))):
            continue
        if line is not None and first_line != line:
            continue
        if caller:
            total += sum(edge[1] for func, edge in entry[4].items()
                         if func[2] == caller)
        else:
            total += entry[1]
    return total


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def span_self_times(spans: List[Dict[str, Any]]) -> List[float]:
    """Self time of each span: its duration minus the part of that
    interval its direct children cover.

    ``spans[i]`` has ``id == i``, a ``parent`` id (or ``None``),
    ``start`` and ``end``.  Children of one parent may overlap (they do
    not, for single-threaded wrappers, but the arithmetic does not rely
    on it): the covered part is the union of the child intervals,
    clipped to the parent.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = []
    for span in spans:
        covered = 0.0
        reach = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(span["end"] - span["start"] - covered)
    return out
