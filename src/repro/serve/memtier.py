"""Tiered KV memory: host DRAM / CXL / NVMe offload targets below HBM.

The paper's serving argument stops at a single modeled device plus one
PCIe swap hop.  This module generalizes that hop into a **memory
hierarchy**: an ordered list of slow-memory tiers below the implicit
``hbm`` device tier, each with its own capacity, bandwidth and latency,
registered under the ``memory-tier`` component kind and named by the
same ``"name?key=value"`` mini-DSL as every other policy:

``dram``
    Host DRAM over the host link.  ``gb_per_s`` / ``latency_us``
    default to 0, the sentinel for "use the device latency model's
    PCIe figures" — so a bare ``dram`` tier prices transfers exactly
    the way swap preemption always has.

``cxl``
    CXL-attached memory: more capacity than host DRAM, load/store
    latency in microseconds, bandwidth below the host link.

``nvme``
    NVMe flash: effectively unbounded capacity, milliseconds of setup
    latency, single-digit GB/s.

A **hierarchy** (:class:`TierHierarchy`) is built from a comma-
separated spec string, e.g.::

    dram?gb=64,cxl?gb=256&gb_per_s=40&latency_us=1,nvme?gb=2048

Cold KV bytes *demote* to the first tier (in order) with room and
*promote* back on first touch; every transfer is priced by the tier's
:class:`~repro.serve.interconnect.Interconnect` (an explicit ``link``
spec, or a :class:`~repro.serve.interconnect.PcieInterconnect` built
from the tier's own ``gb_per_s`` / ``latency_us``) and charged to the
simulated clock.  Swap preemption is the degenerate two-tier case: one
unbounded DRAM tier over the host link (see
:mod:`repro.serve.preemption`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.api.registry import (
    Param,
    SpecError,
    register_component,
    register_kind,
)
from repro.api.spec import ComponentSpec, SpecLike, resolve
from repro.serve.interconnect import Interconnect, PcieInterconnect
from repro.units import GB

__all__ = [
    "MemoryTier",
    "DramTier",
    "CxlTier",
    "NvmeTier",
    "TierHierarchy",
    "MemoryTiersLike",
    "MEMORY_TIERS",
    "parse_memory_tiers",
    "resolve_memory_tiers",
]

#: The live ``memory-tier`` catalogue dict (tier name -> ComponentInfo).
MEMORY_TIERS = register_kind("memory-tier", label="memory tier")


class MemoryTier:
    """One slow-memory level below the device's HBM.

    ``gb == 0`` means unbounded capacity (the sentinel swap preemption's
    host tier uses — host memory is not modeled as scarce).  The tier's
    transfer pricing comes from an explicit ``link`` interconnect spec,
    or — when ``link`` is empty — a :class:`PcieInterconnect` built
    from the tier's own ``gb_per_s`` / ``latency_us`` (whose 0 values
    fall back to the device latency model, like every PCIe link).
    """

    name: str = "tier"

    def __init__(self, gb: float = 0.0, gb_per_s: float = 0.0,
                 latency_us: float = 0.0, link: str = ""):
        if gb < 0:
            raise ValueError(f"gb must be >= 0 (0 = unbounded), got {gb}")
        if gb_per_s < 0:
            raise ValueError(f"gb_per_s must be >= 0, got {gb_per_s}")
        if latency_us < 0:
            raise ValueError(f"latency_us must be >= 0, got {latency_us}")
        self.gb = gb
        self.capacity_bytes = float("inf") if gb == 0 else int(gb * GB)
        self.interconnect: Interconnect = (
            resolve("interconnect", link) if link
            else PcieInterconnect(gb_per_s=gb_per_s, latency_us=latency_us))
        self.gb_per_s = gb_per_s
        self.latency_us = latency_us
        self.link = link

    def transfer_us(self, size: int, latency) -> float:
        """Microseconds one ``size``-byte transfer to/from this tier
        takes (``latency`` is the device's latency model, used by
        links with 0-sentinel parameters)."""
        return self.interconnect.transfer_us(size, latency)


def _check_tier(params: Dict[str, Any]) -> None:
    # Only the spec knows which values were *given*: the constructor
    # receives gb_per_s/latency_us either way (cxl and nvme default
    # them non-zero), so it cannot tell a conflict from a default.
    if params.get("link") and (
            "gb_per_s" in params or "latency_us" in params):
        raise SpecError(
            "pass either a link interconnect spec or explicit "
            "gb_per_s/latency_us, not both")


def _tier_params(gb: float, gb_per_s: float, latency_us: float,
                 capacity_doc: str) -> tuple:
    return (
        Param("gb", float, gb, kind="float",
              doc=f"tier capacity, GB (0 = unbounded); {capacity_doc}"),
        Param("gb_per_s", float, gb_per_s, kind="float",
              doc="transfer bandwidth, GB/s (0 = the device latency "
                  "model's PCIe bandwidth)"),
        Param("latency_us", float, latency_us, kind="float",
              doc="per-transfer setup latency, µs (0 = the device "
                  "latency model's PCIe latency)"),
        Param("link", str, "", kind="str",
              doc="explicit interconnect spec pricing transfers (e.g. "
                  "'pcie?gb_per_s=12'); mutually exclusive with "
                  "gb_per_s/latency_us"),
    )


@register_component(
    "memory-tier", "dram",
    aliases=("host",),
    params=_tier_params(64.0, 0.0, 0.0, "64 GB host DRAM by default"),
    check=_check_tier,
    description="host DRAM over the host link (device PCIe figures by "
                "default — swap preemption's exact pricing)",
)
class DramTier(MemoryTier):
    """Host DRAM: the tier swap preemption always offloaded to."""

    name = "dram"

    def __init__(self, gb: float = 64.0, gb_per_s: float = 0.0,
                 latency_us: float = 0.0, link: str = ""):
        super().__init__(gb, gb_per_s, latency_us, link)


@register_component(
    "memory-tier", "cxl",
    params=_tier_params(256.0, 40.0, 1.0, "256 GB CXL pool by default"),
    check=_check_tier,
    description="CXL-attached memory: big, microsecond-latency, "
                "below-host-link bandwidth",
)
class CxlTier(MemoryTier):
    """CXL-attached memory expansion."""

    name = "cxl"

    def __init__(self, gb: float = 256.0, gb_per_s: float = 40.0,
                 latency_us: float = 1.0, link: str = ""):
        super().__init__(gb, gb_per_s, latency_us, link)


@register_component(
    "memory-tier", "nvme",
    aliases=("flash", "ssd"),
    params=_tier_params(2048.0, 6.0, 80.0, "2 TB NVMe by default"),
    check=_check_tier,
    description="NVMe flash: effectively unbounded, tens of µs setup, "
                "single-digit GB/s",
)
class NvmeTier(MemoryTier):
    """NVMe flash — the deepest (and slowest) offload target."""

    name = "nvme"

    def __init__(self, gb: float = 2048.0, gb_per_s: float = 6.0,
                 latency_us: float = 80.0, link: str = ""):
        super().__init__(gb, gb_per_s, latency_us, link)


class TierHierarchy:
    """An ordered stack of slow-memory tiers below the device's HBM.

    The hierarchy owns the *residency ledger*: which offloaded item
    (a parked request's KV, a demoted prefix block) lives in which
    tier, and how many bytes each tier holds.  Placement is
    first-fit in tier order — an item demotes to the shallowest tier
    with room and comes back from wherever it landed.  Every item is
    resident in **exactly one** tier (or none); capacities are never
    exceeded; a drained run leaves every tier empty — the invariants
    ``tests/test_serve_memtier.py`` fuzzes.

    Like a KV-cache model, a hierarchy carries per-run state and binds
    to one replica's session + device.
    """

    def __init__(self, tiers: Iterable[Union[SpecLike, MemoryTier]]):
        self.tiers: List[MemoryTier] = [
            resolve("memory-tier", tier) for tier in tiers]
        if not self.tiers:
            raise ValueError("a tier hierarchy needs at least one tier")
        labels: List[str] = []
        for index, tier in enumerate(self.tiers):
            label = tier.name
            if label in labels:
                label = f"{tier.name}{index}"
            labels.append(label)
        #: Stable per-tier labels (tier name, de-duplicated in order).
        self.labels: List[str] = labels
        self._used: List[int] = [0] * len(self.tiers)
        #: item name -> (tier index, size in bytes).
        self._resident: Dict[str, Tuple[int, int]] = {}
        self._session = None
        self._latency = None
        self._trace = None
        self._replica = 0

    # -- wiring --------------------------------------------------------
    def bind(self, session, device) -> None:
        """Attach the replica's session clock + device latency model."""
        self._session = session
        self._latency = device.latency

    def attach_trace(self, recorder, replica: int = 0) -> None:
        """Attach an observability recorder so demote/promote instants
        and the per-tier byte counter land in the lifecycle stream."""
        self._trace = recorder
        self._replica = replica

    # -- residency -----------------------------------------------------
    def demote(self, name: str, size: int) -> Optional[Tuple[str, float]]:
        """Park ``size`` bytes under ``name`` in the shallowest tier
        with room.

        Returns ``(tier label, transfer µs)`` — the caller charges the
        clock and its own byte ledger — or ``None`` when every tier is
        full (the caller falls back to dropping the bytes).
        """
        if name in self._resident:
            raise ValueError(f"{name!r} is already resident in tier "
                             f"{self.tier_of(name)}")
        for index, tier in enumerate(self.tiers):
            if self._used[index] + size > tier.capacity_bytes:
                continue
            self._used[index] += size
            self._resident[name] = (index, size)
            us = tier.transfer_us(size, self._latency)
            self._note_transfer("kv_demote", self.labels[index], size)
            return self.labels[index], us
        return None

    def promote(self, name: str) -> Optional[Tuple[str, int, float]]:
        """Bring ``name`` back to the device on first touch.

        Returns ``(tier label, size, transfer µs)``, or ``None`` when
        ``name`` is not resident in any tier.
        """
        entry = self._resident.pop(name, None)
        if entry is None:
            return None
        index, size = entry
        self._used[index] -= size
        us = self.tiers[index].transfer_us(size, self._latency)
        self._note_transfer("kv_promote", self.labels[index], size)
        return self.labels[index], size, us

    def discard(self, name: str) -> None:
        """Drop ``name``'s residency without a transfer (rejection)."""
        entry = self._resident.pop(name, None)
        if entry is not None:
            index, size = entry
            self._used[index] -= size

    def holds(self, name: str) -> bool:
        """Whether ``name`` is currently resident in some tier."""
        return name in self._resident

    def tier_of(self, name: str) -> Optional[str]:
        """The label of the tier holding ``name`` (``None`` if absent)."""
        entry = self._resident.get(name)
        return None if entry is None else self.labels[entry[0]]

    # -- introspection -------------------------------------------------
    @property
    def used_bytes(self) -> Dict[str, int]:
        """Bytes currently resident per tier label."""
        return dict(zip(self.labels, self._used))

    @property
    def resident_bytes(self) -> int:
        """Total bytes resident across all tiers."""
        return sum(self._used)

    @property
    def resident_items(self) -> int:
        """Items currently parked in some tier."""
        return len(self._resident)

    @property
    def drained(self) -> bool:
        """True when no tier holds anything (a clean end state)."""
        return not self._resident and not any(self._used)

    def spec_strings(self) -> List[str]:
        """The tiers as canonical spec strings (for result labels)."""
        out = []
        for tier in self.tiers:
            params = []
            if tier.gb:
                params.append(f"gb={tier.gb:g}")
            if tier.link:
                params.append(f"link={tier.link}")
            else:
                if tier.gb_per_s:
                    params.append(f"gb_per_s={tier.gb_per_s:g}")
                if tier.latency_us:
                    params.append(f"latency_us={tier.latency_us:g}")
            out.append(tier.name + ("?" + "&".join(params) if params
                                    else ""))
        return out

    # -- tracing -------------------------------------------------------
    def _note_transfer(self, kind: str, label: str, size: int) -> None:
        if self._trace is None:
            return
        t_s = self._session.elapsed_s if self._session is not None else 0.0
        self._trace.record(kind, t_s, replica=self._replica,
                           tier=label, mb=round(size / (1 << 20), 3))
        self._trace.record(
            "kv_tier", t_s, replica=self._replica,
            **{label: round(used / (1 << 20), 3)
               for label, used in self.used_bytes.items()})


def parse_memory_tiers(text: str) -> List[ComponentSpec]:
    """Parse a comma-separated hierarchy string into tier specs.

    ``""`` (or whitespace) means no tiering and yields an empty list.
    Tier spec strings never contain commas, so the split is unambiguous.
    """
    if not text or not text.strip():
        return []
    return [ComponentSpec.parse(part.strip(), "memory-tier")
            for part in text.split(",") if part.strip()]


#: Anything accepted where a whole hierarchy is named: a comma-
#: separated spec string, a list of tier specs/instances, a built
#: :class:`TierHierarchy`, or ``None`` / ``""`` for no tiering.
MemoryTiersLike = Union[str, Iterable[Union[SpecLike, MemoryTier]],
                        TierHierarchy, None]


def resolve_memory_tiers(tiers: MemoryTiersLike) -> Optional[TierHierarchy]:
    """Build a hierarchy from a spec string, tier list, or instance.

    Returns ``None`` for ``None`` / ``""`` / an empty list — the
    "no tiering" configurations, which must stay byte-identical to the
    pre-tier simulator.
    """
    if tiers is None:
        return None
    if isinstance(tiers, TierHierarchy):
        return tiers
    if isinstance(tiers, str):
        specs = parse_memory_tiers(tiers)
        return TierHierarchy(specs) if specs else None
    tiers = list(tiers)
    return TierHierarchy(tiers) if tiers else None
