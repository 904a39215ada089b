"""The component registry — one catalogue for every pluggable piece.

The paper sells GMLake as a *transparent drop-in* for the caching
allocator; this module makes the repo's own plumbing equally drop-in,
and not just for allocators.  Every pluggable component — allocators,
serving KV-cache models, admission schedulers, arrival processes,
preemption policies, autoscalers — registers once under a **kind**,
with metadata (canonical name, aliases, paper section, tunable
parameters), and every consumer — the CLI, the replay engine, the
serving simulator, the benchmarks — resolves components through the
same catalogue instead of hand-rolled dicts and factory closures.

Registering a new component::

    @register_component(
        "scheduler", "priority",
        aliases=("prio",),
        params=(Param("levels", int, 4),),
    )
    class PriorityScheduler(Scheduler): ...

Registration is the only place a component is described.  Parameters
may be declared explicitly, or are introspected from the constructor
signature when omitted; with ``config_cls=GMLakeConfig`` construction
passes one config object.
:class:`~repro.api.spec.ComponentSpec` consumes this metadata to parse
``"name?key=value&..."`` spec strings, and validates the values by
constructing the component (:meth:`ComponentInfo.validate`), so the
constructor's own range checks are the only ones written.
"""

from __future__ import annotations

import functools
import inspect
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ReproError
from repro.units import GB, KB, MB, fmt_bytes, parse_size


class SpecError(ReproError, ValueError):
    """A malformed component/experiment spec (bad name, param or value)."""


class UnknownComponentError(SpecError, KeyError):
    """The spec names a component the registry does not know.

    Inherits :class:`KeyError` so callers that predate the registry
    keep catching the same exception type.
    """

    def __str__(self) -> str:  # KeyError.__str__ repr()s the message
        return self.args[0] if self.args else ""


#: Value kinds a parameter can declare.  ``size`` parameters accept byte
#: counts, human strings ("512MB"), and unit-suffixed key aliases
#: (``chunk_mb=512``); ``bool`` parameters accept on/off/true/false/1/0.
_KINDS = ("int", "float", "bool", "str", "size")


@dataclass(frozen=True)
class Param:
    """One tunable parameter of a registered component.

    Attributes
    ----------
    name:
        Canonical parameter name (a constructor or config-field name).
    type:
        Python type of the validated value.
    default:
        Default value when the spec does not mention the parameter.
    kind:
        Value syntax: ``int`` / ``float`` / ``bool`` / ``str`` /
        ``size`` (bytes, accepts ``"512MB"`` strings and ``*_mb`` keys).
    aliases:
        Alternative spec keys (e.g. ``stitching`` for
        ``enable_stitch``).
    doc:
        One-line description shown by ``repro list-components``.
    """

    name: str
    type: type
    default: Any
    kind: str = "int"
    aliases: Tuple[str, ...] = ()
    doc: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown param kind {self.kind!r}")
        expected = {"int": int, "size": int, "float": float,
                    "bool": bool, "str": str}[self.kind]
        if self.type is not expected:
            raise ValueError(
                f"param {self.name!r}: kind {self.kind!r} requires type "
                f"{expected.__name__}, got {self.type.__name__}"
            )

    @property
    def keys(self) -> Tuple[str, ...]:
        """Every spec key that resolves to this parameter.

        Size parameters additionally accept ``<base>_kb/_mb/_gb`` keys
        (``base`` is the name minus a trailing ``_size``), whose numeric
        value is scaled by the unit — so ``chunk_mb=512`` means a
        512 MB ``chunk_size``.
        """
        keys = [self.name, *self.aliases]
        if self.kind == "size":
            base = self.name[: -len("_size")] if self.name.endswith("_size") else self.name
            keys += [f"{base}_kb", f"{base}_mb", f"{base}_gb"]
        return tuple(dict.fromkeys(keys))

    def default_str(self) -> str:
        """The default rendered for the registry listing."""
        if self.kind == "size":
            return fmt_bytes(self.default)
        return str(self.default)

    @property
    def type_name(self) -> str:
        return "size" if self.kind == "size" else self.type.__name__


def find_param(
    params: Sequence[Param], owner: str, key: str
) -> Tuple[Param, float]:
    """Resolve a spec key to ``(param, value_scale)`` among ``params``.

    ``owner`` names the thing being configured (e.g. ``allocator
    'gmlake'``) for error messages.  Shared by every component kind so
    each ``name?key=value`` mini-DSL validates keys the same way.
    Raises :class:`SpecError` for unknown keys.
    """
    for param in params:
        for candidate in param.keys:
            if candidate == key:
                scale = 1.0
                if param.kind == "size" and key != param.name:
                    scale = {"_kb": KB, "_mb": MB, "_gb": GB}.get(key[-3:], 1.0)
                return param, scale
    known = ", ".join(p.name for p in params) or "(none)"
    raise SpecError(
        f"{owner} has no parameter {key!r}; known parameters: {known}"
    )


_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def parse_param_value(owner: str, param: Param, raw: Any, scale: float = 1.0) -> Any:
    """Coerce one raw spec value to the parameter's declared type.

    ``owner`` names the configured thing for error messages; ``scale``
    multiplies numeric ``size`` values (unit-suffixed keys).  Raises
    :class:`SpecError` on malformed values.
    """
    try:
        if param.kind == "bool":
            if isinstance(raw, bool):
                return raw
            word = str(raw).strip().lower()
            if word not in _BOOL_WORDS:
                raise ValueError(f"expected on/off/true/false, got {raw!r}")
            return _BOOL_WORDS[word]
        if param.kind == "size":
            if isinstance(raw, str) and not raw.strip().replace(".", "", 1).isdigit():
                value = parse_size(raw)
            else:
                value = int(float(raw) * scale)
            if value <= 0:
                raise ValueError("sizes must be positive")
            return value
        if param.kind == "int":
            return int(str(raw), 0)
        if param.kind == "float":
            value = float(raw)
            if math.isnan(value):
                raise ValueError("not a number")
            return value
        return str(raw)
    except (TypeError, ValueError) as exc:
        raise SpecError(
            f"bad value {raw!r} for {owner} parameter "
            f"{param.name!r} ({param.type_name}): {exc}"
        ) from exc


#: ``inspect.signature`` costs ~50 µs and every spec parse asks for its
#: component's; the registered classes are few and never change.
_signature = functools.lru_cache(maxsize=None)(inspect.signature)


@dataclass(frozen=True)
class ComponentInfo:
    """Registry metadata for one component of one kind."""

    name: str
    cls: type
    kind: str = "allocator"
    aliases: Tuple[str, ...] = ()
    params: Tuple[Param, ...] = ()
    config_cls: Optional[type] = None
    paper_section: str = ""
    description: str = ""
    #: Optional hook: given the explicitly-set params, return derived
    #: defaults for params the user left unset (e.g. GMLake raises its
    #: fragmentation limit to a non-default chunk size).
    derive: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None
    #: Optional hook: validate the explicitly-set params at spec-parse
    #: time — only for what :meth:`validate`'s trial construction
    #: cannot see: explicit-vs-default, or a component whose
    #: construction needs a runtime argument or I/O.
    check: Optional[Callable[[Dict[str, Any]], None]] = None
    #: Optional construction override: ``factory(*args, **params)``
    #: instead of ``cls(*args, **params)`` (e.g. replay arrivals load
    #: their log file from a ``path`` param).
    factory: Optional[Callable[..., Any]] = None

    @property
    def owner(self) -> str:
        """How error messages name this component."""
        return f"{kind_label(self.kind)} {self.name!r}"

    def find_param(self, key: str) -> Tuple[Param, float]:
        """Resolve a spec key to ``(param, value_scale)``.

        Raises :class:`SpecError` for unknown keys.
        """
        return find_param(self.params, self.owner, key)

    def resolve_params(self, explicit: Dict[str, Any]) -> Dict[str, Any]:
        """Fill derived defaults around the explicitly-set parameters."""
        resolved = dict(explicit)
        if self.derive is not None:
            for key, value in self.derive(explicit).items():
                resolved.setdefault(key, value)
        return resolved

    def validate(self, explicit: Dict[str, Any]) -> None:
        """Reject bad ``explicit`` params at spec-parse time.

        Runs the ``check`` hook, then constructs the component's
        ``config_cls`` (else ``cls``) when the params alone suffice —
        so the constructor is the validator.  Entries with a
        ``factory``, or whose constructor needs a runtime argument
        (an allocator's device, a KV cache's model), are validated by
        :meth:`build`.
        """
        if self.check is not None:
            self.check(explicit)
        if self.factory is not None:
            return
        target = self.config_cls or self.cls
        resolved = self.resolve_params(explicit)
        try:
            _signature(target).bind(**resolved)
        except TypeError:
            return
        with self._construction_errors(resolved):
            target(**resolved)

    def build(self, *args: Any, params: Optional[Dict[str, Any]] = None) -> Any:
        """Instantiate the component with ``params`` (plus positional
        ``args`` the kind requires — e.g. the device for allocators)."""
        resolved = self.resolve_params(params or {})
        with self._construction_errors(resolved):
            if self.factory is not None:
                return self.factory(*args, **resolved)
            if self.config_cls is not None:
                return self.cls(*args, self.config_cls(**resolved))
            return self.cls(*args, **resolved)

    @contextmanager
    def _construction_errors(self, resolved: Dict[str, Any]) -> Iterator[None]:
        """Report a constructor's ``TypeError`` / ``ValueError`` as a
        :class:`SpecError` naming the component and its params."""
        try:
            yield
        except (TypeError, ValueError) as exc:
            raise SpecError(
                f"cannot construct {self.owner} "
                f"with params {resolved!r}: {exc}"
            ) from exc


#: kind -> canonical name -> info, in registration order per kind.
_COMPONENTS: Dict[str, Dict[str, ComponentInfo]] = {}
#: kind -> alias -> canonical name.
_COMPONENT_ALIASES: Dict[str, Dict[str, str]] = {}
#: kind -> display label used in error messages and listings.
_KIND_LABELS: Dict[str, str] = {}


def _kind_registry(kind: str) -> Dict[str, ComponentInfo]:
    if kind not in _COMPONENTS:
        raise SpecError(
            f"unknown component kind {kind!r}; known: {sorted(_COMPONENTS)}"
        )
    return _COMPONENTS[kind]


def kind_label(kind: str) -> str:
    """Display label for ``kind`` (e.g. ``KV-cache model``)."""
    return _KIND_LABELS.get(kind, kind)


def _params_from_init(cls: type) -> Tuple[Param, ...]:
    """Derive :class:`Param` metadata from a constructor signature.

    Keyword parameters with a simple-typed default become tunables;
    anything else (``self``, required positionals like the allocators'
    ``device``, complex defaults) is not spec-addressable.
    """
    params = []
    for parameter in list(inspect.signature(cls.__init__).parameters.values())[1:]:
        default = parameter.default
        if default is inspect.Parameter.empty:
            continue
        if isinstance(default, bool):
            kind: str = "bool"
        elif isinstance(default, int):
            kind = "int"
        elif isinstance(default, float):
            kind = "float"
        elif isinstance(default, str):
            kind = "str"
        else:
            continue
        params.append(Param(parameter.name, type(default), default, kind=kind))
    return tuple(params)


def register_kind(
    kind: str, label: Optional[str] = None,
) -> Dict[str, ComponentInfo]:
    """Declare a component kind (idempotent).

    ``label`` is the display name used in error messages and listings.
    Returns the kind's **live** catalogue dict (canonical name →
    :class:`ComponentInfo`) — the same object later registrations fill
    in, so a kind's home module can expose it (``MEMORY_TIERS``).
    """
    registry = _COMPONENTS.setdefault(kind, {})
    _COMPONENT_ALIASES.setdefault(kind, {})
    if label is not None:
        _KIND_LABELS.setdefault(kind, label)
    return registry


def register_component(
    kind: str,
    name: str,
    *,
    aliases: Sequence[str] = (),
    params: Optional[Sequence[Param]] = None,
    config_cls: Optional[type] = None,
    paper_section: str = "",
    description: str = "",
    derive: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None,
    check: Optional[Callable[[Dict[str, Any]], None]] = None,
    factory: Optional[Callable[..., Any]] = None,
) -> Callable[[type], type]:
    """Class decorator registering a component under ``(kind, name)``.

    ``aliases`` are alternative names resolving to the same entry (the
    registry keeps one canonical entry; listings print aliases as
    metadata, not as extra components).  ``params`` declares the
    tunables explicitly; when omitted they are introspected from the
    constructor signature.  With ``config_cls`` construction passes a
    single config object built from the params.  ``check`` is a
    parse-time hook for what constructing the class cannot validate (see
    :meth:`ComponentInfo.validate`); ``factory`` overrides construction.
    """
    register_kind(kind)
    registry = _COMPONENTS[kind]
    alias_map = _COMPONENT_ALIASES[kind]

    def decorate(cls: type) -> type:
        if name in registry or name in alias_map:
            raise ValueError(f"{kind_label(kind)} {name!r} registered twice")
        if params is not None:
            tunables = tuple(params)
        else:
            tunables = _params_from_init(cls)
        doc = description or (cls.__doc__ or "").strip().splitlines()[0]
        info = ComponentInfo(
            name=name, cls=cls, kind=kind, aliases=tuple(aliases),
            params=tunables, config_cls=config_cls,
            paper_section=paper_section, description=doc,
            derive=derive, check=check, factory=factory,
        )
        registry[name] = info
        for alias in info.aliases:
            if alias in registry or alias in alias_map:
                raise ValueError(
                    f"{kind_label(kind)} alias {alias!r} registered twice")
            alias_map[alias] = name
        return cls

    return decorate


def component_canonical_name(kind: str, name: str) -> str:
    """Map a name or alias to the canonical registry name of ``kind``."""
    registry = _kind_registry(kind)
    key = name.strip().lower()
    key = _COMPONENT_ALIASES[kind].get(key, key)
    if key not in registry:
        known = ", ".join(sorted(set(registry) | set(_COMPONENT_ALIASES[kind])))
        raise UnknownComponentError(
            f"unknown {kind_label(kind)} {name!r}; known: {known}")
    return key


def get_component_info(kind: str, name: str) -> ComponentInfo:
    """Look up registry metadata by canonical name or alias."""
    return _COMPONENTS[kind][component_canonical_name(kind, name)]


def component_kinds() -> List[str]:
    """Registered component kinds, in registration order."""
    return list(_COMPONENTS)


def component_names(kind: str, include_aliases: bool = False) -> List[str]:
    """Registered component names of ``kind``, optionally with aliases."""
    names = list(_kind_registry(kind))
    if include_aliases:
        names += list(_COMPONENT_ALIASES[kind])
    return sorted(names)


def iter_components(kind: str) -> Iterable[ComponentInfo]:
    """Iterate ``kind``'s registry entries in registration order."""
    return iter(_kind_registry(kind).values())


# ----------------------------------------------------------------------
# Built-in allocator registrations
# ----------------------------------------------------------------------
def _register_builtins() -> None:
    from repro.allocators.caching import CachingAllocator
    from repro.allocators.expandable import ExpandableSegmentsAllocator
    from repro.allocators.native import NativeAllocator
    from repro.allocators.vmm_naive import VmmNaiveAllocator
    from repro.core.allocator import GMLakeAllocator
    from repro.core.config import GMLakeConfig

    def gmlake_derive(explicit: Dict[str, Any]) -> Dict[str, Any]:
        # A non-default chunk size drags the dependent knobs with it
        # (the config requires fragmentation_limit >= chunk_size, and
        # the ablations sweep all three together), unless they are
        # pinned explicitly.
        chunk = explicit.get("chunk_size")
        if chunk is None:
            return {}
        return {"small_threshold": chunk, "fragmentation_limit": chunk}

    register_component(
        "allocator", "gmlake",
        params=(
            Param("chunk_size", int, 2 * MB, kind="size",
                  doc="uniform physical chunk size (§3.1)"),
            Param("small_threshold", int, 2 * MB, kind="size",
                  doc="requests below this use the splitting small pool"),
            Param("fragmentation_limit", int, 2 * MB, kind="size",
                  doc="blocks below this are never split/stitched (§4.3)"),
            Param("max_spool_blocks", int, 4096, aliases=("spool",),
                  doc="LRU cap on cached stitched sBlocks (§4.3)"),
            Param("va_oversubscription", float, 64.0, kind="float",
                  doc="virtual-address budget, x device capacity"),
            Param("stitch_after_split", bool, True, kind="bool",
                  doc="re-fuse split halves into an sBlock (Fig. 9 S2)"),
            Param("enable_stitch", bool, True, kind="bool",
                  aliases=("stitching",),
                  doc="virtual memory stitching on/off (ablation)"),
        ),
        config_cls=GMLakeConfig,
        paper_section="§3–§4",
        description="GMLake: pooled VMM allocator with virtual memory stitching",
        derive=gmlake_derive,
    )(GMLakeAllocator)

    register_component(
        "allocator", "caching",
        aliases=("pytorch",),
        paper_section="§2.2",
        description="PyTorch best-fit caching allocator with split/coalesce (BFC)",
    )(CachingAllocator)

    register_component(
        "allocator", "native",
        params=(
            Param("op_amplification", int, 40,
                  doc="CUDA calls one trace tensor stands for"),
        ),
        paper_section="§2.2",
        description="one cudaMalloc/cudaFree per tensor (no pooling)",
    )(NativeAllocator)

    register_component(
        "allocator", "vmm-naive",
        params=(
            Param("chunk_size", int, 2 * MB, kind="size",
                  doc="physical chunk size backing each allocation"),
        ),
        paper_section="§2.5",
        description="unpooled VMM: full reserve/map per malloc, teardown per free",
    )(VmmNaiveAllocator)

    register_component(
        "allocator", "expandable",
        paper_section="extension",
        description="PyTorch expandable segments: growable VMM arenas, no stitching",
    )(ExpandableSegmentsAllocator)


_register_builtins()
