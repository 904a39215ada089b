"""``ComponentSpec`` — one way to name a *configured* component.

A spec is a canonical component name plus validated parameter values,
parseable from a URL-query-style mini-DSL::

    caching
    gmlake?chunk_mb=512&stitching=off
    gmlake?chunk_size=512MB&enable_stitch=false     # same thing
    memory-aware?margin=1.5                         # a scheduler
    closed-loop?clients=8&think_s=2.0               # an arrival process

CLI flags, benchmark sweeps, JSON experiment files and the serving
simulator all speak this one language, so a configured component needs
no Python-side factory code anywhere.  Specs round-trip losslessly
through ``to_dict``/``from_dict`` (JSON-safe) and :meth:`spec_string`.

:class:`ComponentSpec` is the one spec class: its ``kind`` field says
which registry the name belongs to (``"allocator"`` by default, hence
the alias :data:`AllocatorSpec`), and :func:`resolve` is the one way a
consumer turns "a spec string, a spec, or my own instance" into a
component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple, Union

from repro.allocators.base import BaseAllocator
from repro.api.registry import (
    ComponentInfo,
    SpecError,
    get_component_info,
    kind_label,
    parse_param_value,
)
from repro.gpu.device import GpuDevice
from repro.units import MB


def parse_query(text: str) -> Tuple[str, Dict[str, Any]]:
    """Split a ``"name?key=value&key=value"`` mini-DSL string.

    Returns ``(name, raw_params)`` without validating either — the
    kind's registry does that.
    """
    text = text.strip()
    if not text:
        raise SpecError("empty spec")
    name, _, query = text.partition("?")
    params: Dict[str, Any] = {}
    if query:
        for item in query.split("&"):
            if not item:
                continue
            key, sep, value = item.partition("=")
            if not sep or not key:
                raise SpecError(
                    f"malformed spec item {item!r} in {text!r} "
                    "(expected key=value)"
                )
            if key in params:
                raise SpecError(f"duplicate parameter {key!r} in {text!r}")
            params[key] = value
    return name, params


@dataclass(frozen=True)
class ComponentSpec:
    """A validated, immutable (component, parameters) pair of one kind.

    ``params`` holds only *explicitly set* parameters, keyed by their
    canonical names — defaults are left to the component so a spec
    stays minimal and stable under serialization.  Construction
    validates the name against the ``kind``'s registry, every value
    against its declared :class:`~repro.api.registry.Param` metadata,
    and the values as a group by constructing the component
    (:meth:`~repro.api.registry.ComponentInfo.validate`), so bad specs
    fail at parse time, in the constructor's words, not mid-run.
    """

    name: str
    params: Dict[str, Any] = field(default_factory=dict)
    #: The registry kind the name belongs to.
    kind: str = "allocator"

    def __post_init__(self):
        info = get_component_info(self.kind, self.name)  # raises on unknown
        object.__setattr__(self, "name", info.name)
        validated = {}
        for key, raw in self.params.items():
            param, scale = info.find_param(str(key))
            if param.name in validated:
                raise SpecError(
                    f"parameter {param.name!r} set twice in {self.name} spec "
                    f"(key {key!r} is an alias)"
                )
            validated[param.name] = parse_param_value(
                info.owner, param, raw, scale)
        info.validate(validated)
        object.__setattr__(self, "params", validated)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: "SpecLike", kind: str = "allocator") -> "ComponentSpec":
        """Parse ``"name"`` or ``"name?key=value&key=value"`` as a
        ``kind`` component (a spec of that kind passes through)."""
        if isinstance(text, cls):
            if text.kind != kind:
                raise SpecError(
                    f"expected a {kind_label(kind)} spec, got "
                    f"{kind_label(text.kind)} {text.spec_string()!r}")
            return text
        name, params = parse_query(text)
        return cls(name, params, kind)

    @classmethod
    def from_dict(cls, data: Dict[str, Any],
                  kind: str = "allocator") -> "ComponentSpec":
        """Inverse of :meth:`to_dict` (which does not record the kind)."""
        label = kind_label(kind)
        if "name" not in data:
            raise SpecError(f"{label} spec dict needs a 'name': {data!r}")
        unknown = set(data) - {"name", "params"}
        if unknown:
            raise SpecError(f"unknown {label} spec keys {sorted(unknown)}")
        return cls(str(data["name"]), dict(data.get("params") or {}), kind)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation; round-trips via :meth:`from_dict`."""
        out: Dict[str, Any] = {"name": self.name}
        if self.params:
            out["params"] = dict(self.params)
        return out

    def spec_string(self) -> str:
        """The canonical mini-DSL string; ``parse`` round-trips it."""
        if not self.params:
            return self.name
        info = self.info
        items = []
        for key, value in sorted(self.params.items()):
            param, _ = info.find_param(key)
            if isinstance(value, bool):
                rendered = str(value).lower()
            elif param.kind == "size" and value % MB == 0:
                rendered = f"{value // MB}MB"
            else:
                rendered = str(value)
            items.append(f"{key}={rendered}")
        return f"{self.name}?{'&'.join(items)}"

    @property
    def label(self) -> str:
        """Short display label for tables (name, or name+params)."""
        return self.spec_string()

    # ------------------------------------------------------------------
    # Use
    # ------------------------------------------------------------------
    @property
    def info(self) -> ComponentInfo:
        """The registry entry this spec builds."""
        return get_component_info(self.kind, self.name)

    def build(self, *args: Any) -> Any:
        """Instantiate the configured component (positional ``args``
        are whatever the kind's constructors require up front)."""
        return self.info.build(*args, params=self.params)

    def __str__(self) -> str:
        return self.spec_string()


#: The allocator-kind spec — ``ComponentSpec``'s default ``kind``.
AllocatorSpec = ComponentSpec

#: Anything accepted where a component is named by spec.
SpecLike = Union[str, ComponentSpec]


def resolve(kind: str, value: Any, *args: Any) -> Any:
    """The ``kind`` component ``value`` names.

    A spec string or a :class:`ComponentSpec` of that kind is built
    (``args`` are what the kind's constructors need up front — the
    device, the model); anything else is the caller's own instance and
    is returned as is.
    """
    if isinstance(value, (str, ComponentSpec)):
        return ComponentSpec.parse(value, kind).build(*args)
    return value


def resolve_allocator(
    kind: Union[SpecLike, Callable[[GpuDevice], BaseAllocator]],
    device: GpuDevice,
) -> BaseAllocator:
    """Build an allocator from a spec string, spec, or bare
    ``device -> allocator`` factory callable."""
    if callable(kind):
        return kind(device)
    return resolve("allocator", kind, device)
