"""``RunResult`` — the uniform shape every experiment mode reports.

Offline replay returns an :class:`~repro.sim.engine.EngineResult`,
online serving a :class:`~repro.serve.simulator.ServingResult`, cluster
runs their aggregate types — four shapes with four vocabularies.  The
:class:`RunResult` protocol names the quantities all of them share
(allocator, peak bytes, utilization/fragmentation, throughput, OOM),
and :class:`ExperimentResult` adapts any mode-specific result to it, so
``analysis`` tables and the CLI consume every mode through one row
builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Protocol, runtime_checkable

from repro.allocators.stats import MemoryHeadline


@runtime_checkable
class RunResult(Protocol):
    """What every experiment result exposes, whatever the mode.

    Every member is read-only; results supply them as fields or
    properties, the memory headline through
    :class:`~repro.allocators.stats.MemoryHeadline`.  ``throughput`` is
    mode-appropriate (training samples/s for replay, completed
    requests/s for serving); ``extras()`` carries the mode-specific
    remainder (SLO metrics, per-rank peaks, ...).
    """

    allocator_name: str
    peak_active_bytes: int
    peak_reserved_bytes: int
    utilization_ratio: float
    fragmentation_ratio: float
    peak_reserved_gb: float
    peak_active_gb: float
    throughput: float
    oom: bool

    def extras(self) -> Dict[str, Any]: ...


class WorstMemberRunResult(MemoryHeadline):
    """Mixin: the :class:`RunResult` memory surface of an aggregate.

    Both cluster aggregates (training ranks, serving replicas) report
    memory from the *worst member* — the one with the highest reserved
    peak, what capacity planning sees.  Both peaks come from that same
    member, so a row's utilization always matches its reported peaks;
    :attr:`min_utilization` is the lowest ratio of any member.
    Subclasses implement :meth:`_result_members`.
    """

    def _result_members(self) -> list:
        raise NotImplementedError

    def _worst_member(self):
        return max(self._result_members(),
                   key=lambda r: r.peak_reserved_bytes)

    @property
    def allocator_name(self) -> str:
        members = self._result_members()
        return members[0].allocator_name if members else ""

    @property
    def peak_active_bytes(self) -> int:
        return self._worst_member().peak_active_bytes

    @property
    def peak_reserved_bytes(self) -> int:
        return self._worst_member().peak_reserved_bytes

    @property
    def min_utilization(self) -> float:
        """The lowest member's utilization ratio."""
        return min(m.utilization_ratio for m in self._result_members())


#: The report-only serving metrics layered over ``result.extras()``.
_REPORT_EXTRAS = ("goodput_req_s", "slo_attainment", "p99_ttft_s",
                  "mean_tpot_s", "token_slo_attainment",
                  "token_goodput_tok_s")


@dataclass
class ExperimentResult(MemoryHeadline):
    """A mode-agnostic result adapter satisfying :class:`RunResult`.

    ``raw`` is the full mode-specific result; peaks, throughput and OOM
    are read off it, never copied, so the two can never disagree.
    """

    allocator_name: str
    mode: str
    raw: Any
    _extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def peak_active_bytes(self) -> int:
        return self.raw.peak_active_bytes

    @property
    def peak_reserved_bytes(self) -> int:
        return self.raw.peak_reserved_bytes

    @property
    def throughput(self) -> float:
        return self.raw.throughput

    @property
    def oom(self) -> bool:
        return self.raw.oom

    def extras(self) -> Dict[str, Any]:
        """Mode-specific metrics beyond the shared surface."""
        return dict(self._extras)

    def summary(self) -> str:
        """One-line report, uniform across modes."""
        oom = " OOM" if self.oom else ""
        return (
            f"{self.allocator_name:24s} [{self.mode}] "
            f"reserved={self.peak_reserved_gb:6.2f}GB "
            f"active={self.peak_active_gb:6.2f}GB "
            f"util={self.utilization_ratio:5.1%} "
            f"thru={self.throughput:8.2f}/s{oom}"
        )

    # ------------------------------------------------------------------
    # Adapters, one per experiment mode, over one constructor call
    # ------------------------------------------------------------------
    @classmethod
    def _adapt(cls, mode: str, result, label: str,
               extras: Dict[str, Any]) -> "ExperimentResult":
        return cls(allocator_name=label or result.allocator_name,
                   mode=mode, raw=result, _extras=extras)

    @classmethod
    def from_engine(cls, result, label: str = "") -> "ExperimentResult":
        """Adapt an offline-replay :class:`EngineResult`."""
        return cls._adapt("replay", result, label, result.extras())

    @classmethod
    def from_cluster(cls, result, label: str = "") -> "ExperimentResult":
        """Adapt a multi-rank training :class:`ClusterResult`: peaks are
        worst-rank (what capacity planning sees), throughput is the
        synchronous job's (slowest rank)."""
        return cls._adapt("cluster", result, label, result.extras())

    @classmethod
    def _from_serve(cls, mode: str, result, slo, label: str,
                    streaming: bool,
                    report_keys=_REPORT_EXTRAS) -> "ExperimentResult":
        """The one body behind the three serve adapters: ``extras()``
        is extended with the SLO metrics only a report (which needs an
        :class:`SloConfig`) can compute.  ``streaming=True`` computes
        report percentiles from t-digest sketches instead of
        materialized sample lists."""
        report = result.report(slo, streaming=streaming)
        extras = result.extras()
        extras.update((key, getattr(report, key)) for key in report_keys)
        return cls._adapt(mode, result, label, extras)

    @classmethod
    def from_serving(cls, result, slo=None, label: str = "",
                     streaming: bool = False) -> "ExperimentResult":
        """Adapt a single-replica :class:`ServingResult`."""
        return cls._from_serve("serve", result, slo, label, streaming)

    @classmethod
    def from_serve_cluster(cls, result, slo=None, label: str = "",
                           streaming: bool = False) -> "ExperimentResult":
        """Adapt a multi-replica :class:`ServeClusterResult`: memory
        headlines are worst-replica, SLO metrics fleet-wide."""
        return cls._from_serve("serve-cluster", result, slo, label,
                               streaming)

    @classmethod
    def from_serve_disagg(cls, result, slo=None, label: str = "",
                          streaming: bool = False) -> "ExperimentResult":
        """Adapt a :class:`~repro.serve.disagg.DisaggServingResult`:
        memory headlines are worst-replica across both fleets, SLO
        metrics cover the merged original-request population, plus the
        per-phase TTFT attribution only a disaggregated run reports."""
        return cls._from_serve(
            "serve-disagg", result, slo, label, streaming,
            report_keys=_REPORT_EXTRAS + ("prefill_wait_s", "decode_wait_s"))


def run_result_row(result: RunResult) -> Dict[str, Any]:
    """One table row (for :func:`repro.analysis.format_table`) from any
    :class:`RunResult`, whatever the experiment mode."""
    return {
        "allocator": result.allocator_name,
        "reserved (GB)": round(result.peak_reserved_gb, 2),
        "active (GB)": round(result.peak_active_gb, 2),
        "utilization": round(result.utilization_ratio, 3),
        "thru (/s)": round(result.throughput, 2),
        "OOM": result.oom,
    }
