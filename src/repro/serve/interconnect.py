"""Interconnect models: what moving KV bytes between memories costs.

The serving stack moves KV-cache bytes across links in two places:
swap preemption parks a victim's KV in host memory (GPU↔host), and
disaggregated prefill/decode serving migrates a finished prefill's KV
to a decode replica (GPU↔GPU, see :mod:`repro.serve.disagg`).  Both
transfers are priced by an **interconnect model** registered under the
``interconnect`` component kind and named by the same
``"name?key=value"`` mini-DSL as every other policy:

``pcie``
    The host link.  ``gb_per_s`` / ``latency_us`` default to 0, the
    sentinel for "use the device latency model's PCIe figures"
    (:class:`~repro.gpu.latency.LatencyModel`, 24 GB/s + 25 µs by
    default) — so a bare ``pcie`` spec prices transfers exactly the
    way swap preemption always has.

``nvlink``
    A direct GPU↔GPU link: much higher bandwidth (200 GB/s default)
    and lower per-transfer setup latency (2 µs default), with no
    device fallback — the parameters *are* the link.

A transfer of ``size`` bytes costs ``latency_us + size / (gb_per_s *
GB) * 1e6`` microseconds, charged to the simulated clock of whichever
replica performs it.
"""

from __future__ import annotations

from abc import ABC

from repro.api.registry import Param, register_component, register_kind
from repro.units import GB

register_kind("interconnect", label="interconnect")


class Interconnect(ABC):
    """A point-to-point link KV bytes travel over.

    Stateless: one instance may price transfers for a whole fleet.
    ``transfer_us`` takes the device's
    :class:`~repro.gpu.latency.LatencyModel` so links with 0-sentinel
    parameters (``pcie``) can fall back to the modelled device figures.
    """

    name: str = "interconnect"

    def __init__(self, gb_per_s: float = 0.0, latency_us: float = 0.0):
        if gb_per_s < 0:
            raise ValueError(f"gb_per_s must be >= 0, got {gb_per_s}")
        if latency_us < 0:
            raise ValueError(f"latency_us must be >= 0, got {latency_us}")
        self.gb_per_s = gb_per_s
        self.latency_us = latency_us

    def _resolve(self, latency) -> tuple:
        """(bandwidth GB/s, setup µs) after device-fallback resolution."""
        return (self.gb_per_s or latency.pcie_gb_per_s,
                self.latency_us or latency.pcie_latency_us)

    def transfer_us(self, size: int, latency) -> float:
        """Microseconds one transfer of ``size`` bytes takes.

        ``latency`` is the transferring device's
        :class:`~repro.gpu.latency.LatencyModel` (used only by links
        whose parameters defer to the device, i.e. ``pcie`` with the 0
        sentinels).  The formula is setup latency plus size over
        bandwidth; a default ``pcie`` link prices with the device's
        ``pcie_latency_us`` and ``pcie_gb_per_s``.
        """
        bandwidth, setup = self._resolve(latency)
        if bandwidth <= 0:
            raise ValueError(
                f"{self.name} bandwidth must be positive, got {bandwidth}")
        return setup + size / (bandwidth * GB) * 1e6


@register_component(
    "interconnect", "pcie",
    params=(
        Param("gb_per_s", float, 0.0, kind="float",
              doc="link bandwidth, GB/s (0 = the device latency "
                  "model's PCIe bandwidth)"),
        Param("latency_us", float, 0.0, kind="float",
              doc="per-transfer setup latency, µs (0 = the device "
                  "latency model's PCIe latency)"),
    ),
    description="host link: defaults to the device latency model's "
                "PCIe bandwidth/latency (swap preemption's pricing)",
)
class PcieInterconnect(Interconnect):
    """The host link; 0-valued parameters defer to the device model."""

    name = "pcie"


@register_component(
    "interconnect", "nvlink",
    params=(
        Param("gb_per_s", float, 200.0, kind="float",
              doc="link bandwidth, GB/s"),
        Param("latency_us", float, 2.0, kind="float",
              doc="per-transfer setup latency, µs"),
    ),
    description="direct GPU-to-GPU link: high bandwidth, low setup "
                "latency, no device fallback",
)
class NvlinkInterconnect(Interconnect):
    """A direct GPU↔GPU link parameterized entirely by its spec."""

    name = "nvlink"

    def __init__(self, gb_per_s: float = 200.0, latency_us: float = 2.0):
        if gb_per_s <= 0:
            raise ValueError(f"gb_per_s must be > 0, got {gb_per_s}")
        super().__init__(gb_per_s, latency_us)

    def _resolve(self, latency) -> tuple:
        del latency  # fully self-described, no device fallback
        return self.gb_per_s, self.latency_us
