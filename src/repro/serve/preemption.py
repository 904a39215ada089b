"""Preemption policies: what happens when the KV cache cannot grow.

When a decode step needs KV memory the allocator cannot provide, the
simulator evicts a victim request.  *How* the victim's KV leaves the
device — and what it costs to bring the request back — is the
preemption policy, registered under the ``preemption`` component kind
and named by the same ``"name?key=value"`` mini-DSL as allocators.

There is one concrete policy, :class:`OffloadPreemption`, which owns
the single table of off-device KV (``req_id -> where the bytes are,
how many``).  The configurations the serving stack offers are four
constructions of it (the table in ``docs/memory_tiers.md`` spells out
where evicted KV goes, what restore costs and which
:class:`~repro.serve.kvcache.KVCacheMetrics` ledger is written):

``recompute``
    No tiers (the default): the victim's KV is freed outright and
    rebuilt on re-admission by re-running prefill over the full
    context, vLLM-style.
``swap``
    One private, unbounded host-DRAM tier priced by the ``interconnect``
    parameter (``pcie`` by default, e.g.
    ``"swap?interconnect=pcie?gb_per_s=12"``), ledger ``swapped_bytes``.
``tiered``
    ``recompute`` on a replica that has a ``memory_tiers`` hierarchy:
    victims demote into it, per-tier ``demoted_bytes`` /
    ``promoted_bytes`` ledgers.  A full hierarchy degrades to
    ``recompute`` victim by victim.
disaggregated import / export
    Any of the above on a prefill replica exports finished KV over the
    fleet's link (:meth:`OffloadPreemption.export_on_finish`); on a
    decode replica the migrated bytes start parked *on the wire*
    (:meth:`OffloadPreemption.expect_imports`), ledger
    ``migrated_bytes`` on both ends.

The *victim selection* (youngest other running request loses its slot
first) and the queue bookkeeping (requeue, ``max_preemptions``,
timeout deadlines) stay in the simulator; the policy owns the victim's
KV bytes and the restore cost.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.api.registry import (
    Param,
    SpecError,
    register_component,
    register_kind,
)
from repro.api.spec import ComponentSpec, SpecLike, resolve
from repro.serve.interconnect import Interconnect
from repro.serve.memtier import DramTier, TierHierarchy
from repro.serve.request import ServeRequest

register_kind("preemption", label="preemption policy")


class PreemptionPolicy(ABC):
    """How a preempted request's KV leaves the device and comes back.

    A policy instance carries per-run state (the off-device KV table),
    so — like a :class:`~repro.serve.kvcache.KVCacheModel` — it binds
    to exactly one simulator.
    """

    name: str = "preemption"

    def __init__(self):
        self._sim = None

    def bind(self, simulator) -> None:
        """Attach the owning simulator (once, at startup)."""
        if self._sim is not None:
            raise ValueError(
                f"preemption policy {self.name!r} is already bound to a "
                "replica; a policy instance carries per-run state, so "
                "build a fresh one (or pass a spec string) per simulator"
            )
        self._sim = simulator

    # -- hooks the simulator drives ------------------------------------
    def select_victim(
        self, running: List[ServeRequest], request: ServeRequest
    ) -> Optional[ServeRequest]:
        """The running request to evict so ``request``'s KV can grow.

        Default: the youngest *other* running request (vLLM-style —
        the latest admitted loses its slot first); ``None`` when no
        other victim exists and ``request`` itself must yield.
        """
        for candidate in reversed(running):
            if candidate is not request:
                return candidate
        return None

    @abstractmethod
    def evict(self, request: ServeRequest, requeue: bool = True) -> None:
        """Release the victim's KV (charging any offload cost).

        ``requeue`` is ``False`` when the simulator already knows the
        victim will be rejected (preemption budget exhausted) — an
        offloading policy must not pay to preserve KV that can never
        be restored.
        """

    @abstractmethod
    def restore_us(self, request: ServeRequest, context: int) -> float:
        """Microseconds to make an admitted request decode-ready.

        Called right after the request's KV capacity was provisioned:
        for a fresh request this is the prefill over its prompt; for a
        preempted one it is whatever the policy needs to rebuild the
        KV contents (recompute prefill, swap-in transfer, ...).
        """

    def forget(self, request: ServeRequest) -> None:
        """Drop any off-device state held for ``request`` (rejection)."""

    def on_finish(self, request: ServeRequest) -> None:
        """``request`` emitted its last token; its device KV is released
        right after this returns (a disaggregated prefill replica
        exports it first)."""


#: Parked-table location of KV that is between a prefill and a decode
#: replica (every other location is a tier-hierarchy item name).
_ON_WIRE = "wire"


class OffloadPreemption(PreemptionPolicy):
    """The one preemption policy: owner of every off-device KV byte.

    A victim's KV demotes to the shallowest ``hierarchy`` tier with
    room (device→tier transfer charged to the clock) and promotes back
    on re-admission instead of being recomputed.  When there is no
    hierarchy, every tier is full, or the victim will never requeue,
    the KV is dropped and re-admission re-runs prefill over the full
    context — so the policy over no tiers *is* recompute preemption.

    ``scalar_ledger`` selects where moved bytes are counted: per tier
    in ``KVCacheMetrics.demoted_bytes`` / ``promoted_bytes``, or (swap,
    whose one tier is private to the policy) both directions in the
    scalar ``swapped_bytes``.
    """

    def __init__(self, name: str = "recompute",
                 hierarchy: Optional[TierHierarchy] = None,
                 scalar_ledger: bool = False):
        super().__init__()
        self.name = name
        self.hierarchy = hierarchy
        self._scalar_ledger = scalar_ledger
        #: req_id -> (where the KV is, bytes): a hierarchy item name,
        #: or ``_ON_WIRE`` for a migration not yet imported.
        self._parked: Dict[int, Tuple[str, int]] = {}
        #: The disaggregated fleet's link (None on a colocated replica)
        #: and, on the prefill side, who exports and the shared
        #: ``req_id -> bytes`` record of what left.
        self._link: Optional[Interconnect] = None
        self._export_ids: Set[int] = set()
        self._exported: Dict[int, int] = {}

    def bind(self, simulator) -> None:
        super().bind(simulator)
        if self.hierarchy is not None:
            self.hierarchy.bind(simulator.session, simulator.device)

    # -- disaggregated serving -----------------------------------------
    def export_on_finish(self, link: Interconnect, req_ids: Set[int],
                         exported: Dict[int, int]) -> None:
        """Prefill replica: ship the KV of ``req_ids`` over ``link``
        when they finish, recording ``req_id -> bytes`` in
        ``exported``."""
        self._link = link
        self._export_ids = req_ids
        self._exported = exported

    def expect_imports(self, link: Interconnect,
                       parcels: Dict[int, int]) -> None:
        """Decode replica: ``parcels`` (``req_id -> bytes``) arrive
        parked on the wire; first admission lands them over ``link``
        instead of running a prefill."""
        self._link = link
        for req_id, size in parcels.items():
            self._parked[req_id] = (_ON_WIRE, size)

    @property
    def pending_imports(self) -> int:
        """Migrated parcels neither imported nor rolled back."""
        return sum(1 for where, _ in self._parked.values()
                   if where == _ON_WIRE)

    def on_finish(self, request: ServeRequest) -> None:
        if request.req_id not in self._export_ids:
            return
        sim = self._sim
        held = sim.kv.held_bytes(request)
        transfer_us = self._link.transfer_us(held, sim.device.latency)
        if sim.trace is not None:
            sim.trace.request_event(
                "migrate_out", request, sim.session.elapsed_s,
                us=transfer_us, bytes=held)
        # The export reads the device copy, so the clock charge
        # precedes the release — and the finish timestamp (the decode
        # clone's arrival) lands after it.
        sim.session.advance(transfer_us)
        sim.kv.metrics.migrated_bytes += held
        self._exported[request.req_id] = held

    # -- preemption ----------------------------------------------------
    def _account(self, label: str, size: int, restore: bool) -> None:
        metrics = self._sim.kv.metrics
        if self._scalar_ledger:
            metrics.swapped_bytes += size
            return
        ledger = metrics.promoted_bytes if restore else metrics.demoted_bytes
        ledger[label] = ledger.get(label, 0) + size

    def evict(self, request: ServeRequest, requeue: bool = True) -> None:
        kv = self._sim.kv
        held = kv.held_bytes(request)
        if self.hierarchy is not None and held > 0 and requeue:
            name = f"kvreq{request.req_id}"
            placed = self.hierarchy.demote(name, held)
            if placed is not None:
                # Device->tier copy happens before the device KV is
                # freed (the copy needs the source live), so the clock
                # charge precedes the release.
                label, us = placed
                self._sim.session.advance(us)
                self._account(label, held, restore=False)
                self._parked[request.req_id] = (name, held)
                kv.release(request)
                return
        # Nowhere to park it (or the victim can never come back): drop
        # the KV outright and note the discard (``preempt_copy_bytes``).
        kv.release(request, preempted=True)

    def restore_us(self, request: ServeRequest, context: int) -> float:
        where, held = self._parked.pop(request.req_id, (None, 0))
        sim = self._sim
        if where == _ON_WIRE:
            transfer_us = self._link.transfer_us(held, sim.device.latency)
            if sim.trace is not None:
                sim.trace.request_event(
                    "migrate_in", request, sim.session.elapsed_s,
                    us=transfer_us, bytes=held)
            sim.kv.metrics.migrated_bytes += held
            return transfer_us
        if where is not None:
            label, size, us = self.hierarchy.promote(where)
            self._account(label, size, restore=True)
            return us
        # Fresh admission, or a victim whose KV was dropped: prefill
        # over the full context.
        return context / sim.config.prefill_tokens_per_s * 1e6

    def forget(self, request: ServeRequest) -> None:
        where, _ = self._parked.pop(request.req_id, (None, 0))
        if where is not None and where != _ON_WIRE:
            self.hierarchy.discard(where)

    @property
    def parked_requests(self) -> int:
        """Requests whose KV is currently off the device."""
        return len(self._parked)


def _recompute(
        hierarchy: Optional[TierHierarchy] = None) -> OffloadPreemption:
    if hierarchy is None:
        return OffloadPreemption()
    return OffloadPreemption("tiered", hierarchy)


def _swap(hierarchy: Optional[TierHierarchy] = None,
          interconnect: Union[SpecLike, Interconnect] = "pcie",
          ) -> OffloadPreemption:
    if hierarchy is not None:
        # Both would claim the victim's KV.
        raise SpecError(
            "memory_tiers generalizes swap preemption's single host "
            "hop; pass preemption 'recompute' (the default) with a "
            "tier hierarchy, or drop memory_tiers to keep swap")
    # gb=0 = unbounded: host memory is not modeled as scarce.
    host = DramTier(gb=0.0)
    host.interconnect = resolve("interconnect", interconnect)
    return OffloadPreemption("swap", TierHierarchy([host]),
                             scalar_ledger=True)


def _check_swap(params: Dict[str, Any]) -> None:
    # Building swap needs the replica's hierarchy; its link does not.
    link = params.get("interconnect")
    if link is not None:
        try:
            ComponentSpec.parse(link, "interconnect")
        except SpecError as exc:
            raise SpecError(
                f"swap preemption interconnect: {exc}") from None


register_component(
    "preemption", "recompute", params=(), factory=_recompute,
    description="free the victim's KV and re-run prefill over the full "
                "context on re-admission (vLLM-style recompute); with "
                "memory_tiers the victim demotes into the hierarchy "
                "instead",
)(OffloadPreemption)
register_component(
    "preemption", "swap",
    params=(
        Param("interconnect", str, "pcie", kind="str",
              doc="interconnect spec pricing the host offload "
                  "(an 'interconnect' component, e.g. "
                  "'pcie?gb_per_s=12')"),
    ),
    check=_check_swap, factory=_swap,
    description="offload the victim's KV to host memory over the "
                "configured interconnect (PCIe by default) and swap it "
                "back on re-admission",
)(OffloadPreemption)
