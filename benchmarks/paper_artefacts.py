"""Every paper artefact, declared once.

One :class:`Artefact` subclass per figure, table, claim or extension:
id, paper section, docstring as description, a grid of experiment
specs run through :func:`repro.analysis.grid` (or a bespoke
:meth:`~Artefact.measure` where live allocator state is needed), a
table renderer and the checks.  ``bench_paper_artefacts.py`` fails on
a table that differs from its pin ``tests/golden/paper/<id>.txt``;
``REPRO_REGEN_GOLDENS=1`` rewrites the pins, ``REPRO_SWEEP_JOBS`` sets
the grids' workers (unset or 0: one per core; tables are identical at
any value).  To add an artefact, subclass :class:`Artefact`, run the
runner once with ``REPRO_REGEN_GOLDENS=1`` and commit the new pin.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Callable, Dict, List

import pytest

from repro.allocators import VmmNaiveAllocator
from repro.analysis import along, comparison, format_table, summarize
from repro.analysis.experiments import first_oom_batch, point
from repro.analysis.experiments import grid as run_grid
from repro.analysis.serving import format_defrag_comparison, goodput_vs_rate_rows
from repro.api import (
    AllocatorSpec,
    DisaggSpec,
    ExperimentSpec,
    ServingSpec,
    WorkloadSpec,
    resolve_allocator,
)
from repro.core.bestfit import FitState
from repro.gpu.device import GpuDevice
from repro.gpu.latency import LatencyModel
from repro.serve import PoissonArrivals, ServingConfig, ServingSimulator, SloConfig
from repro.sim import render_timeline
from repro.sim.engine import AllocationRecorder, run_trace
from repro.units import GB, MB
from repro.workloads import MODELS, get_model

PINS = Path(__file__).resolve().parent.parent / "tests" / "golden" / "paper"
REGEN = os.environ.get("REPRO_REGEN_GOLDENS") == "1"
#: Sweep workers for every grid (None = one per core).
JOBS = int(os.environ.get("REPRO_SWEEP_JOBS", "0")) or None


def assert_pinned(artefact_id: str, table: str) -> None:
    """Fail unless ``table`` is the artefact's pinned text; with
    ``REPRO_REGEN_GOLDENS=1``, pin it first."""
    pin = PINS / f"{artefact_id}.txt"
    if REGEN:
        PINS.mkdir(parents=True, exist_ok=True)
        pin.write_text(table + "\n", encoding="utf-8")
    assert pin.is_file(), (
        f"{artefact_id} has no pin; run with REPRO_REGEN_GOLDENS=1")
    assert table + "\n" == pin.read_text(encoding="utf-8")


def _leaves(fn: Callable, node: Any) -> Any:
    """``fn`` over every leaf (one point's result list) of a grid."""
    if isinstance(node, dict):
        return {key: _leaves(fn, child) for key, child in node.items()}
    return fn(node)


def _raw(results):
    """A one-allocator point's mode-specific result."""
    (result,) = results
    return result.raw


def _by_allocator(results) -> Dict[str, Any]:
    return {result.allocator_name: result.raw for result in results}


def _replay(model: str, batch: int, allocators=("caching", "gmlake"),
            **workload) -> ExperimentSpec:
    """A replay experiment: four GPUs, LR, eight iterations unless
    ``workload`` says otherwise."""
    return ExperimentSpec(allocators=allocators,
                          workload=WorkloadSpec(model, batch, **workload))


def _serve(allocator: str, capacity: int, **serving) -> ExperimentSpec:
    return ExperimentSpec(mode="serve", allocators=[allocator],
                          capacity=capacity, serving=ServingSpec(**serving))


def _models(batches: Dict[str, int]) -> Dict[str, Dict[str, Any]]:
    """An axis over models, each at its own batch size."""
    return {model: {"model": model, "batch_size": batch}
            for model, batch in batches.items()}


class Artefact:
    """One paper artefact; a subclass's docstring is its description, and
    it declares the class attributes and :meth:`render` / :meth:`check`
    (and :meth:`measure` when it is not a grid).
    """

    id: str
    section: str
    #: ``(base spec, *axes)`` for :func:`repro.analysis.grid`.
    grid: tuple = ()
    #: How one grid point's results are read (the grid's leaves).
    cell = staticmethod(_raw)

    def measure(self) -> Any:
        base, *axes = self.grid
        return _leaves(self.cell, run_grid(base, *axes, jobs=JOBS))

    def render(self, measured: Any) -> str:
        raise NotImplementedError

    def check(self, measured: Any) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# §2: the problem
# ----------------------------------------------------------------------
def _paper_util_table(results, paper, column: str, label: Callable,
                      title: str) -> str:
    """Measured utilization and reserved memory beside the paper's
    utilization, one row per axis key."""
    return format_table([
        {column: label(key), "paper util": util,
         "measured util": round(results[key].utilization_ratio, 3),
         "reserved (GB)": round(results[key].peak_reserved_gb, 2)}
        for key, util in paper.items()], title=title)


class Fig03StrategyUtilization(Artefact):
    """Figure 3: caching-allocator memory utilization under strategy
    combinations (OPT-1.3B, four A100s).

    Paper: P 97%, PR 80%, PLR 76%, PRO 73%, PLRO 70% — every added
    memory-reduction technique costs the splitting-based allocator
    utilization.
    """

    id, section = "fig03-strategy-utilization", "§2.3, Fig. 3"
    PAPER = {"N": 0.97, "R": 0.80, "LR": 0.76, "RO": 0.73, "LRO": 0.70}
    grid = (_replay("opt-1.3b", 8, ["caching"]), along("strategies", PAPER))

    def render(self, results):
        return _paper_util_table(
            results, self.PAPER, "strategy", lambda c: f"P{'' if c == 'N' else c}",
            title="Figure 3 — PyTorch caching-allocator utilization "
                  "vs strategy combination (OPT-1.3B, 4 GPUs)")

    def check(self, results):
        # Shape: plain training utilizes best; every combo is worse.
        plain = results["N"].utilization_ratio
        assert plain > 0.90
        for combo in ("R", "LR", "RO", "LRO"):
            assert results[combo].utilization_ratio < plain


class Fig04GpuScaleout(Artefact):
    """Figure 4: caching-allocator utilization vs GPU count (OPT-13B).

    Paper: 91% at 1 GPU declining to 76% at 16 GPUs — ZeRO-3 shards shrink
    with scale while full-size gather buffers keep churning the pool.
    """

    id, section = "fig04-gpu-scaleout", "§2.4, Fig. 4"
    PAPER = {1: 0.91, 2: 0.84, 4: 0.78, 8: 0.80, 16: 0.76}
    grid = (_replay("opt-13b", 4, ["caching"]), along("n_gpus", PAPER))

    def render(self, results):
        return _paper_util_table(
            results, self.PAPER, "GPUs", lambda n: n,
            title="Figure 4 — caching-allocator utilization vs GPU "
                  "count (OPT-13B, ZeRO-3)")

    def check(self, results):
        utils = [results[n].utilization_ratio for n in sorted(self.PAPER)]
        assert utils[0] > 0.95  # single GPU: barely fragments
        assert utils[-1] < utils[0] - 0.05  # 16 GPUs: clearly worse
        # Monotone-ish decline: each step never improves by more than noise.
        for a, b in zip(utils, utils[1:]):
            assert b <= a + 0.03


class Fig05FootprintIrregularity(Artefact):
    """Figure 5: allocation-stream statistics of GPT-NeoX-20B training,
    original PyTorch vs PyTorch + LR (LoRA + recomputation).

    Paper: the original run makes 46k allocations averaging 93 MB; the +LR
    run makes 76k averaging 85 MB — complex strategies mean more, smaller,
    more irregular allocations.  (Absolute counts depend on run length; the
    ratios are the shape under test: ~1.65x the allocations at ~0.91x the
    mean size.)
    """

    id, section = "fig05-footprint-irregularity", "§2.3, Fig. 5"

    def measure(self):
        """(plain, +LR) trace statistics: the trace, not a replay."""
        return tuple(
            WorkloadSpec("gpt-neox-20b", 2, strategies=combo)
            .build().build_trace().stats()
            for combo in ("N", "LR"))

    def render(self, stats):
        plain, lr = stats
        rows = [
            {"run": "original PyTorch",
             "allocations": plain.n_allocs,
             "mean size (MB)": round(plain.mean_alloc_bytes / (1 << 20), 1)},
            {"run": "PyTorch + LR",
             "allocations": lr.n_allocs,
             "mean size (MB)": round(lr.mean_alloc_bytes / (1 << 20), 1)},
            {"run": "ratio (paper: 1.65x / 0.91x)",
             "allocations": f"{lr.n_allocs / plain.n_allocs:.2f}x",
             "mean size (MB)":
                 f"{lr.mean_alloc_bytes / plain.mean_alloc_bytes:.2f}x"},
        ]
        return format_table(
            rows, title="Figure 5 — GPT-NeoX-20B allocation-stream statistics")

    def check(self, stats):
        plain, lr = stats
        alloc_ratio = lr.n_allocs / plain.n_allocs
        size_ratio = lr.mean_alloc_bytes / plain.mean_alloc_bytes
        assert alloc_ratio > 1.3       # clearly more allocations
        assert size_ratio < 1.0        # clearly smaller mean size


class Fig06VmmLatency(Artefact):
    """Figure 6: allocation latency of the VMM allocator vs the native
    allocator, for chunk sizes 2 MB .. 1 GB and blocks of 512 MB / 1 GB /
    2 GB.

    Paper shape: at 2 MB chunks the VMM path is over 100x slower than
    ``cudaMalloc`` (115x for the 2 GB block); at 1 GB chunks it is within
    ~1.5x.  Latency falls monotonically as chunks grow.

    The artefact exercises the *live* simulated driver
    (VmmNaiveAllocator), not just the latency formulas, so it also
    validates the allocator's call pattern.
    """

    id, section = "fig06-vmm-latency", "§2.5, Fig. 6"
    CHUNK_SIZES = [2 * MB * (1 << i) for i in range(10)]  # 2 MB .. 1 GB
    BLOCK_SIZES = [512 * MB, 1 * GB, 2 * GB]

    def measure(self):
        """({(chunk, block): µs}, native cudaMalloc µs for 2 GB)."""
        out = {}
        for chunk in self.CHUNK_SIZES:
            for block in self.BLOCK_SIZES:
                device = GpuDevice(capacity=4 * GB)
                allocator = VmmNaiveAllocator(device, chunk_size=chunk)
                t0 = device.clock.now_us
                allocation = allocator.malloc(block)
                out[(chunk, block)] = device.clock.now_us - t0
                allocator.free(allocation)
        return out, GpuDevice().latency.cuda_malloc(2 * GB)

    def render(self, measured):
        latencies, _ = measured
        latency = GpuDevice().latency
        rows = [{"chunk": "native",
                 **{f"{b // MB}MB": f"{latency.cuda_malloc(b) / 1000:.2f}ms"
                    for b in self.BLOCK_SIZES}}]
        for chunk in self.CHUNK_SIZES:
            rows.append({
                "chunk": f"{chunk // MB}MB",
                **{f"{b // MB}MB": f"{latencies[(chunk, b)] / 1000:.2f}ms"
                   for b in self.BLOCK_SIZES},
            })
        return format_table(
            rows, title="Figure 6 — VMM allocation latency vs chunk size "
                        "(paper: 2MB chunks are ~115x native; monotone decline)")

    def check(self, measured):
        latencies, native_us = measured
        # Shape assertions: monotone decline, >100x at 2 MB, ~native at 1 GB.
        curve = [latencies[(chunk, 2 * GB)] for chunk in self.CHUNK_SIZES]
        assert all(a > b for a, b in zip(curve, curve[1:]))
        assert curve[0] / native_us > 100
        assert curve[-1] / native_us < 3


class Table1VmmBreakdown(Artefact):
    """Table 1: VMM API execution-time breakdown, normalized to cuMemAlloc.

    Paper (2 GB allocation):

        Chunk size      2 MB   128 MB   1024 MB
        cuMemReserve    0.003   0.003     0.002
        cuMemCreate    18.1     0.89      0.79
        cuMemMap        0.70    0.01      0.002
        cuMemSetAccess 96.8     8.2       0.7
        Total         115.4     9.1       1.5
    """

    id, section = "table1-vmm-breakdown", "§2.5, Table 1"
    PAPER = {
        2 * MB: {"cuMemReserve": 0.003, "cuMemCreate": 18.1, "cuMemMap": 0.70,
                 "cuMemSetAccess": 96.8, "Total": 115.4},
        128 * MB: {"cuMemReserve": 0.003, "cuMemCreate": 0.89,
                   "cuMemMap": 0.01, "cuMemSetAccess": 8.2, "Total": 9.1},
        1024 * MB: {"cuMemReserve": 0.002, "cuMemCreate": 0.79,
                    "cuMemMap": 0.002, "cuMemSetAccess": 0.7, "Total": 1.5},
    }

    def measure(self):
        """The latency model's breakdown of a 2 GB allocation per chunk."""
        latency = LatencyModel()
        return {chunk: latency.vmm_breakdown(2 * GB, chunk)
                for chunk in self.PAPER}

    def render(self, measured):
        rows = []
        for chunk, paper_row in self.PAPER.items():
            for api, paper_value in paper_row.items():
                rows.append({
                    "chunk": f"{chunk // MB}MB",
                    "API": api,
                    "paper": paper_value,
                    "measured": round(measured[chunk][api], 3),
                })
        return format_table(
            rows, title="Table 1 — VMM API breakdown for a 2 GB allocation "
                         "(units of cuMemAlloc time)")

    def check(self, measured):
        for chunk, paper_row in self.PAPER.items():
            assert measured[chunk]["Total"] == pytest.approx(
                paper_row["Total"], rel=0.05
            )
            assert measured[chunk]["cuMemCreate"] == pytest.approx(
                paper_row["cuMemCreate"], rel=0.05
            )


class Sec22NativeVsCaching(Artefact):
    """§2.2: the caching allocator vs the GPU-native allocator, end to end.

    Paper: "The throughput of the GPU native allocator is 9.7x lower than
    the original PyTorch allocator" (OPT-1.3B on four A100-80G GPUs).
    """

    id, section = "sec22-native-vs-caching", "§2.2"
    PAPER_RATIO = 9.7
    grid = (_replay("opt-1.3b", 8, ("caching", "native"), strategies="N",
                    iterations=6),)
    cell = staticmethod(_by_allocator)

    def render(self, runs):
        caching, native = runs["caching"], runs["native"]
        ratio = caching.throughput_samples_per_s / native.throughput_samples_per_s
        return format_table(
            [
                {"allocator": "caching (PyTorch)",
                 "samples/s": round(caching.throughput_samples_per_s, 2),
                 "utilization": round(caching.utilization_ratio, 3)},
                {"allocator": "native (cudaMalloc)",
                 "samples/s": round(native.throughput_samples_per_s, 2),
                 "utilization": round(native.utilization_ratio, 3)},
                {"allocator": "ratio", "samples/s": f"{ratio:.1f}x",
                 "utilization": f"paper: {self.PAPER_RATIO}x"},
            ],
            title="§2.2 — native vs caching allocator (OPT-1.3B, 4 GPUs)",
        )

    def check(self, runs):
        caching, native = runs["caching"], runs["native"]
        ratio = caching.throughput_samples_per_s / native.throughput_samples_per_s
        assert 6.0 < ratio < 14.0
        # The native allocator trades speed for zero fragmentation.
        assert native.utilization_ratio == pytest.approx(1.0)


# ----------------------------------------------------------------------
# §5: evaluation
# ----------------------------------------------------------------------
#: Figures 10 and 11: model -> per-GPU batch.
FIG10_MODELS = {"opt-13b": 4, "vicuna-13b": 4, "gpt-neox-20b": 2}


class Fig10Strategies(Artefact):
    """Figure 10 (a-c): utilization ratio and reserved memory across
    strategy combinations, caching allocator vs GMLake, for OPT-13B,
    Vicuna-13B and GPT-NeoX-20B on four GPUs with ZeRO-3.

    Paper shape: the baseline fragments 5-24% depending on the combo;
    GMLake holds utilization at ~90-100% and cuts reserved memory by up to
    ~17 GB while matching throughput.
    """

    id, section = "fig10-strategies", "§5.2, Fig. 10"
    grid = (_replay("opt-13b", 4), _models(FIG10_MODELS),
            along("strategies", ("N", "R", "LR", "RO", "LRO")))
    cell = staticmethod(comparison)

    def render(self, results):
        tables = []
        for model, rows in results.items():
            table = []
            for row in rows.values():
                table.append({
                    "strategy": row.baseline.meta["strategies"],
                    "RM base (GB)": round(row.baseline.peak_reserved_gb, 1),
                    "RM GML (GB)": round(row.gmlake.peak_reserved_gb, 1),
                    "UR base": round(row.baseline.utilization_ratio, 3),
                    "UR GML": round(row.gmlake.utilization_ratio, 3),
                    "saved (GB)": round(row.reserved_saving_gb, 2),
                    "thru ratio": round(row.throughput_ratio or 0, 2),
                })
            tables.append(format_table(
                table,
                title=f"Figure 10 — {model}, strategies x allocators "
                      "(paper: GMLake util ~0.9-1.0, baseline down to ~0.76)",
            ))
        return "\n\n".join(tables)

    def check(self, results):
        for model, rows in results.items():
            for row in rows.values():
                # GMLake wins or ties utilization in every cell.
                assert row.gmlake.utilization_ratio >= (
                    row.baseline.utilization_ratio - 0.01
                )
                assert row.gmlake.utilization_ratio > 0.9
                # Throughput is comparable (within 15%).
                if row.throughput_ratio is not None:
                    assert row.throughput_ratio > 0.85
            # At least one strategy combo shows a real memory saving.
            assert max(r.reserved_saving_gb for r in rows.values()) > 0.2


class Fig11Scaleout(Artefact):
    """Figure 11 (a-f): GPU scale-out 1->16, caching vs GMLake, for
    OPT-13B, Vicuna-13B and GPT-NeoX-20B with LR strategies on DeepSpeed
    ZeRO-3: utilization ratio, reserved memory and throughput.

    Paper shape: baseline utilization decays toward ~76-80% at 16 GPUs;
    GMLake maintains ~90%+ (up to 23% / 17 GB better on GPT-NeoX-20B) at
    indistinguishable throughput that scales with the GPU count.
    """

    id, section = "fig11-scaleout", "§5.2, Fig. 11"
    grid = (_replay("opt-13b", 4), _models(FIG10_MODELS),
            along("n_gpus", (1, 2, 4, 8, 16)))
    cell = staticmethod(comparison)

    def render(self, results):
        tables = []
        for model, rows in results.items():
            table = []
            for row in rows.values():
                table.append({
                    "GPUs": row.baseline.meta["n_gpus"],
                    "RM base (GB)": round(row.baseline.peak_reserved_gb, 1),
                    "RM GML (GB)": round(row.gmlake.peak_reserved_gb, 1),
                    "UR base": round(row.baseline.utilization_ratio, 3),
                    "UR GML": round(row.gmlake.utilization_ratio, 3),
                    "thru base": round(row.baseline.throughput_samples_per_s, 2),
                    "thru GML": round(row.gmlake.throughput_samples_per_s, 2),
                })
            tables.append(format_table(
                table,
                title=f"Figure 11 — {model}, GPU scale-out (paper: GMLake "
                      "~90% util at 16 GPUs vs baseline ~76-81%)",
            ))
        return "\n\n".join(tables)

    def check(self, results):
        for model, by_gpus in results.items():
            rows = list(by_gpus.values())
            base_utils = [r.baseline.utilization_ratio for r in rows]
            gml_utils = [r.gmlake.utilization_ratio for r in rows]
            # Baseline decays with scale; GMLake stays high everywhere.
            assert base_utils[-1] < base_utils[0]
            assert min(gml_utils) > 0.9
            # Throughput scales and matches the baseline within 15%.
            for row in rows:
                if row.throughput_ratio is not None:
                    assert row.throughput_ratio > 0.85
            thru = [r.gmlake.throughput_samples_per_s for r in rows]
            assert thru[-1] > 4 * thru[0]


class Fig12Platforms(Artefact):
    """Figure 12: utilization and reserved memory across training platforms
    — FSDP-GLM-10B, DeepSpeed-OPT-13B, Colossal-AI-GPT-2 — with LoRA +
    recomputation on four GPUs.

    Paper shape: GMLake reduces fragmentation 9-33% and reserved memory
    7-25 GB regardless of platform.
    """

    id, section = "fig12-platforms", "§5.2.3, Fig. 12"
    grid = (_replay("opt-13b", 8), {
        "fsdp": {"platform": "fsdp", "model": "glm-10b", "batch_size": 8},
        "deepspeed": {"platform": "deepspeed", "model": "opt-13b",
                      "batch_size": 8},
        "colossalai": {"platform": "colossalai", "model": "gpt-2",
                       "batch_size": 16},
    })
    cell = staticmethod(comparison)

    def render(self, rows):
        table = []
        for platform, row in rows.items():
            table.append({
                "platform": platform,
                "model": row.baseline.meta["model"],
                "RM base (GB)": round(row.baseline.peak_reserved_gb, 1),
                "RM GML (GB)": round(row.gmlake.peak_reserved_gb, 1),
                "UR base": round(row.baseline.utilization_ratio, 3),
                "UR GML": round(row.gmlake.utilization_ratio, 3),
                "frag reduction": round(row.fragmentation_reduction, 3),
            })
        return format_table(
            table, title="Figure 12 — platforms (paper: 9-33% fragmentation "
                         "reduction, 7-25 GB reserved savings)")

    def check(self, rows):
        for row in rows.values():
            assert row.gmlake.utilization_ratio >= row.baseline.utilization_ratio
            assert row.gmlake.utilization_ratio > 0.9
        # At least one platform shows a clear fragmentation reduction.
        assert max(r.fragmentation_reduction for r in rows.values()) > 0.03


class Fig13Batchsize(Artefact):
    """Figure 13 (a-f): end-to-end batch-size sweeps with OOM markers, for
    OPT-1.3B, OPT-13B and GPT-NeoX-20B (LoRA + recompute + ZeRO-3, 4 GPUs).

    Paper shape: reserved memory grows with batch size; the PyTorch caching
    allocator hits OOM at a smaller batch than GMLake on every model
    (OPT-1.3B 249, OPT-13B 120, GPT-NeoX-20B 72 run fine on GMLake while
    PyTorch OOMs); throughput stays comparable until the OOM point.
    """

    id, section = "fig13-batchsize", "§5.3, Fig. 13"
    SWEEPS = {
        "opt-1.3b": (32, 64, 128, 192, 224, 256),
        "opt-13b": (20, 40, 60, 80, 100, 120),
        "gpt-neox-20b": (12, 24, 36, 48, 60, 72),
    }
    grid = (_replay("opt-13b", 4), {
        (model, batch): {"model": model, "batch_size": batch}
        for model, batches in SWEEPS.items() for batch in batches})
    cell = staticmethod(comparison)

    def _by_model(self, results):
        return {model: [results[(model, batch)] for batch in batches]
                for model, batches in self.SWEEPS.items()}

    def render(self, results):
        def cell(result):
            if result.oom:
                return f"OOM@it{result.oom_iteration}"
            return (f"{result.peak_reserved_gb:.1f}GB/"
                    f"{result.utilization_ratio:.0%}/"
                    f"{result.throughput_samples_per_s:.2f}smp/s")

        tables = []
        for model, rows in self._by_model(results).items():
            table = [{"batch": row.baseline.meta["batch_size"],
                      "caching (RM/UR/thru)": cell(row.baseline),
                      "GMLake (RM/UR/thru)": cell(row.gmlake)}
                     for row in rows]
            tables.append(format_table(
                table, title=f"Figure 13 — {model} batch sweep "
                             "(paper: baseline OOMs first)"))
        return "\n\n".join(tables)

    def check(self, results):
        for model, rows in self._by_model(results).items():
            oom_base = first_oom_batch(rows, "baseline")
            oom_gml = first_oom_batch(rows, "gmlake")
            # The baseline OOMs somewhere in each sweep, and GMLake never
            # OOMs earlier.
            assert oom_base is not None, f"{model}: baseline never OOMed"
            assert oom_gml is None or oom_gml >= oom_base
            # Before OOM, GMLake reserves no more memory than the baseline.
            for row in rows:
                if not row.baseline.oom and not row.gmlake.oom:
                    assert row.gmlake.peak_reserved_bytes <= (
                        row.baseline.peak_reserved_bytes + (64 << 20)
                    )


class Fig14MemoryTrace(Artefact):
    """Figure 14: memory trace of GPT-NeoX-20B fine-tuning at a batch size
    the caching allocator cannot survive.

    Paper shape (batch 72, LoRA + recompute, 4 GPUs): PyTorch OOMs around
    t=200 s while GMLake completes; active memory is at the same level for
    both, but PyTorch's reserved memory sits far above its active memory
    (fragmentation) whereas GMLake's reserved hugs the active curve; after
    ~4 iterations GMLake's allocation behaviour stabilizes.
    """

    id, section = "fig14-memory-trace", "§5.4, Fig. 14"
    BATCH = 48  # the paper uses 72 on its testbed; 48 is our OOM crossover

    def measure(self):
        """Both timelines, plus GMLake's live fit-state counters."""
        trace = WorkloadSpec("gpt-neox-20b", self.BATCH).build().build_trace()
        base = run_trace(resolve_allocator("caching", GpuDevice()), trace,
                         record_timeline=True)
        gml_alloc = resolve_allocator("gmlake", GpuDevice())
        gml = run_trace(gml_alloc, trace, record_timeline=True)
        return base, gml, gml_alloc.counters.state_hits

    def render(self, measured):
        base, gml, _ = measured
        lines = [f"Figure 14 — GPT-NeoX-20B memory trace, batch {self.BATCH} "
                 "(paper: PyTorch OOM ~200s; GMLake completes)"]
        status = (f"OOM at t={base.oom_time_s:.0f}s (iteration {base.oom_iteration})"
                  if base.oom else "completed")
        lines.append(f"caching: {status}")
        lines.append(render_timeline(base.timeline))
        lines.append("")
        status = (f"OOM at t={gml.oom_time_s:.0f}s" if gml.oom
                  else f"completed {gml.iterations_completed} iterations, "
                       f"reserved {gml.peak_reserved_gb:.1f} GB")
        lines.append(f"gmlake : {status}")
        lines.append(render_timeline(gml.timeline))
        return "\n".join(lines)

    def check(self, measured):
        base, gml, hits = measured
        # The baseline dies; GMLake finishes the run.
        assert base.oom
        assert not gml.oom
        # GMLake's reserved memory hugs its active memory.
        assert gml.utilization_ratio > 0.95
        # Convergence: exact matches dominate the steady state.
        exact = hits[FitState.EXACT_MATCH.value]
        churn = (hits[FitState.SINGLE_BLOCK.value]
                 + hits[FitState.MULTIPLE_BLOCKS.value]
                 + hits[FitState.INSUFFICIENT_BLOCKS.value])
        assert exact > churn


class Table2ModelRegistry(Artefact):
    """Table 2: the benchmark specification matrix — models, strategies and
    DDP frameworks — exercised end to end.

    Each Table 2 row (model, strategy set, platform) must build a valid
    trace and run under GMLake without error.
    """

    id, section = "table2-model-registry", "§5.1, Table 2"
    # (model, strategies, platform, batch) — the paper's Table 2 plus the
    # batch sizes our simulated 80 GB device accommodates.
    MATRIX = {
        i: {"model": model, "strategies": strategies, "platform": platform,
            "batch_size": batch}
        for i, (model, strategies, platform, batch) in enumerate((
            ("opt-1.3b", "LRO", "deepspeed", 8),
            ("gpt-2", "RO", "colossalai", 16),
            ("glm-10b", "RO", "fsdp", 8),
            ("opt-13b", "LRO", "deepspeed", 8),
            ("vicuna-13b", "LRO", "deepspeed", 8),
            ("gpt-neox-20b", "LRO", "deepspeed", 4),
        ))
    }

    def measure(self):
        """(validated trace length, GMLake run) per row."""
        base = _replay("opt-1.3b", 8, ["gmlake"], iterations=6)
        lengths = []
        for overrides in self.MATRIX.values():
            trace = point(base, overrides).workload.build().build_trace()
            trace.validate()
            lengths.append(len(trace))
        runs = _leaves(_raw, run_grid(base, self.MATRIX, jobs=JOBS))
        return list(zip(lengths, runs.values()))

    def render(self, measured):
        rows = []
        for n_events, result in measured:
            model = get_model(result.meta["model"])
            rows.append({
                "model": model.name,
                "params (B)": round(model.n_params / 1e9, 1),
                "strategies": result.meta["strategies"],
                "framework": result.meta["platform"],
                "trace events": n_events,
                "GML util": round(result.utilization_ratio, 3),
                "OOM": result.oom,
            })
        return format_table(
            rows, title="Table 2 — benchmark specification matrix "
                        "(all rows runnable end to end)")

    def check(self, measured):
        assert len(measured) == 6
        assert all(not result.oom for _, result in measured)


#: Per-model batch size keeping every combo within 80 GB.
BATCH = {
    "opt-1.3b": 8, "gpt-2": 16, "opt-6.7b": 8, "llama-7b": 8,
    "glm-10b": 8, "opt-13b": 4, "vicuna-13b": 4, "gpt-neox-20b": 2,
}


class Summary76Workloads(Artefact):
    """§5 headline summary: the 76-workload grid over 8 models.

    Paper: "GMLake achieves a significant reduction in the fragmentation
    ratio of 15% on average and up to 33%, as well as a decrease in
    reserved GPU memory of 9.2 GB on average and up to 25 GB, obtained from
    76 workloads within 8 different models."

    The grid reproduces that population: strategy combos for all 8
    models, scale-out points, batch variants and platform cells = 76
    workloads, each run under the caching allocator and GMLake.
    """

    id, section = "summary-76-workloads", "§5"
    PAPER = {"avg_frag_reduction": 0.15, "max_frag_reduction": 0.33,
             "avg_saving_gb": 9.2, "max_saving_gb": 25.0}
    # The 76 cells: 40 strategy cells + 16 scale-out + 12 batch variants +
    # 8 platform cells.
    grid = (_replay("opt-1.3b", 8, iterations=6), dict(enumerate(
        [{"model": m, "batch_size": BATCH[m], "strategies": combo}
         for m in MODELS for combo in ("N", "R", "LR", "RO", "LRO")]
        + [{"model": m, "batch_size": BATCH[m], "n_gpus": n}
           for m in ("opt-1.3b", "llama-7b", "opt-13b", "gpt-neox-20b")
           for n in (1, 2, 8, 16)]
        + [{"model": m, "batch_size": BATCH[m] * factor}
           for m in ("opt-1.3b", "opt-13b", "gpt-neox-20b")
           for factor in (2, 4, 6, 8)]
        + [{"model": m, "batch_size": BATCH[m], "platform": platform}
           for m in ("gpt-2", "glm-10b", "opt-6.7b", "vicuna-13b")
           for platform in ("fsdp", "colossalai")])))
    cell = staticmethod(comparison)

    def render(self, rows):
        stats = summarize(list(rows.values()))
        paper = self.PAPER
        table = [
            {"metric": "workloads", "paper": 76, "measured": stats.n_workloads},
            {"metric": "avg frag reduction", "paper": paper["avg_frag_reduction"],
             "measured": round(stats.avg_frag_reduction, 3)},
            {"metric": "max frag reduction", "paper": paper["max_frag_reduction"],
             "measured": round(stats.max_frag_reduction, 3)},
            {"metric": "avg reserved saving (GB)", "paper": paper["avg_saving_gb"],
             "measured": round(stats.avg_saving_gb, 2)},
            {"metric": "max reserved saving (GB)", "paper": paper["max_saving_gb"],
             "measured": round(stats.max_saving_gb, 2)},
            {"metric": "baseline OOMs", "paper": "-",
             "measured": stats.baseline_ooms},
            {"metric": "GMLake OOMs", "paper": "-",
             "measured": stats.gmlake_ooms},
        ]
        return format_table(
            table, title="§5 summary — 76 workloads / 8 models "
                         "(shape: GMLake saves memory on average, never loses)")

    def check(self, rows):
        stats = summarize(list(rows.values()))
        assert stats.n_workloads == 76
        # Direction: GMLake reduces fragmentation and reserved memory.
        assert stats.avg_frag_reduction > 0.02
        assert stats.max_frag_reduction > 0.10
        assert stats.avg_saving_gb > 0.2
        # GMLake never OOMs where the baseline survived.
        assert stats.gmlake_ooms <= stats.baseline_ooms


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------
class AblationChunkSize(Artefact):
    """Ablation (§3.1): GMLake's uniform physical chunk size.

    The paper fixes 2 MB chunks for "the best defragmentation effect" and
    accepts the per-chunk API cost.  This artefact sweeps the chunk size
    and shows the trade-off the paper describes: larger chunks cut the
    warm-up driver time (fewer create/map/setAccess calls) but round every
    block up further, costing utilization.
    """

    id, section = "ablation-chunk-size", "§3.1"
    CHUNKS = [2 * MB, 8 * MB, 32 * MB, 128 * MB]
    # chunk_mb alone drags small_threshold / fragmentation_limit along
    # (the registry's derived defaults for GMLake).
    grid = (_replay("opt-13b", 4), {
        chunk: {"allocators": [f"gmlake?chunk_mb={chunk // MB}"]}
        for chunk in CHUNKS})

    def render(self, results):
        rows = [
            {
                "chunk": f"{chunk // MB}MB",
                "utilization": round(results[chunk].utilization_ratio, 3),
                "reserved (GB)": round(results[chunk].peak_reserved_gb, 2),
                "driver time (ms)": round(results[chunk].driver_time_us / 1e3, 1),
                "thru (smp/s)": round(results[chunk].throughput_samples_per_s, 2),
            }
            for chunk in self.CHUNKS
        ]
        return format_table(
            rows, title="Ablation — GMLake chunk size (paper picks 2 MB: "
                        "best utilization, driver cost amortized by caching)")

    def check(self, results):
        # 2 MB chunks give the best (lowest) reserved memory...
        reserved = [results[c].peak_reserved_bytes for c in self.CHUNKS]
        assert reserved[0] == min(reserved)
        # ...while large chunks spend less driver time warming up.
        first, last = results[self.CHUNKS[0]], results[self.CHUNKS[-1]]
        assert last.driver_time_us < first.driver_time_us


class AblationFragmentationLimit(Artefact):
    """Ablation (§4.3): the minimal fragmentation limit.

    The paper sets a limit (e.g. 128 MB) below which blocks are not
    stitched or split, trading defragmentation for lower overhead.  In this
    reproduction stitching is the *only* coalescing mechanism, so a large
    limit strands split remainders below the threshold: usable pool mass
    decays and reserved memory creeps up every iteration.  This artefact
    demonstrates that leak, which is why the default equals the chunk size.
    """

    id, section = "ablation-fragmentation-limit", "§4.3"
    LIMITS = [2 * MB, 8 * MB, 32 * MB, 128 * MB]
    grid = (_replay("opt-1.3b", 8), {
        limit: {"allocators": [
            AllocatorSpec("gmlake", {"fragmentation_limit": limit})]}
        for limit in LIMITS})

    def render(self, results):
        rows = [
            {
                "limit": f"{limit // MB}MB",
                "utilization": round(results[limit].utilization_ratio, 3),
                "reserved (GB)": round(results[limit].peak_reserved_gb, 2),
            }
            for limit in self.LIMITS
        ]
        return format_table(
            rows, title="Ablation — fragmentation limit (large limits leak "
                        "reserved memory without pBlock coalescing)")

    def check(self, results):
        # The chunk-size limit (filter off) gives the best utilization.
        best = results[self.LIMITS[0]].utilization_ratio
        worst = min(r.utilization_ratio for r in results.values())
        assert best == max(r.utilization_ratio for r in results.values())
        assert best > 0.95
        assert worst < best  # larger limits measurably hurt


class AblationSpool(Artefact):
    """Ablation (§4.3 / §5.4): sPool capacity and the LRU StitchFree policy.

    The paper's convergence argument needs "enough sPool instances" so that
    every stitched composition survives to the next iteration.  A tight cap
    makes the LRU evict compositions before reuse: the allocator re-stitches
    every iteration (visible as stitch counts that keep growing and extra
    driver time), though reserved memory is unaffected — StitchFree only
    drops virtual mappings.
    """

    id, section = "ablation-spool", "§4.3 / §5.4"
    CAPS = [16, 64, 256, 4096]

    def measure(self):
        """{cap: (replay, the allocator's live stitch counters)}."""
        trace = WorkloadSpec("opt-13b", 4).build().build_trace()
        out = {}
        for cap in self.CAPS:
            allocator = AllocatorSpec.parse(f"gmlake?spool={cap}").build(GpuDevice())
            out[cap] = (run_trace(allocator, trace), allocator.counters)
        return out

    def render(self, results):
        rows = [
            {
                "sPool cap": cap,
                "stitches": counters.stitches,
                "stitch frees": counters.stitch_frees,
                "utilization": round(result.utilization_ratio, 3),
                "thru (smp/s)": round(result.throughput_samples_per_s, 2),
            }
            for cap, (result, counters) in results.items()
        ]
        return format_table(
            rows, title="Ablation — sPool capacity (tight caps thrash the "
                        "LRU and re-stitch forever; reserved memory unharmed)")

    def check(self, results):
        # Tight caps force dramatically more stitch work...
        assert results[16][1].stitches > 2 * results[4096][1].stitches
        # ...but never hurt the memory outcome (StitchFree is VA-only).
        assert results[16][0].utilization_ratio > 0.95
        assert results[4096][0].utilization_ratio > 0.95


class AblationStitching(Artefact):
    """Ablation: virtual memory stitching on vs off.

    With ``enable_stitch=False`` GMLake degrades to a pooled VMM allocator
    that can split but never fuse non-contiguous blocks — the same
    limitation as the caching allocator, minus segments.  The gap between
    the two configurations isolates the contribution of stitching itself
    (the paper's core mechanism, Figure 1).
    """

    id, section = "ablation-stitching", "§3, Fig. 1"
    COMBOS = ("R", "LR", "LRO")
    grid = (_replay("opt-13b", 4, ("gmlake?stitching=on",
                                   "gmlake?stitching=off")),
            along("strategies", COMBOS))
    cell = staticmethod(lambda results: [result.raw for result in results])

    def render(self, results):
        rows = [
            {
                "strategy": combo,
                "UR stitch": round(on.utilization_ratio, 3),
                "UR no-stitch": round(off.utilization_ratio, 3),
                "RM stitch (GB)": round(on.peak_reserved_gb, 2),
                "RM no-stitch (GB)": round(off.peak_reserved_gb, 2),
            }
            for combo, (on, off) in results.items()
        ]
        return format_table(
            rows, title="Ablation — stitching on vs off (OPT-13B): the VMS "
                        "mechanism is what eliminates the fragmentation")

    def check(self, results):
        for on, off in results.values():
            assert on.utilization_ratio > off.utilization_ratio
            assert on.peak_reserved_bytes < off.peak_reserved_bytes


# ----------------------------------------------------------------------
# Extensions beyond the paper
# ----------------------------------------------------------------------
class ExtExpandableSegments(Artefact):
    """Extension: GMLake vs PyTorch's expandable segments.

    The paper's technique influenced PyTorch's later
    ``expandable_segments:True`` allocator, which uses the same VMM API but
    grows segments *in place* instead of stitching free blocks.  Growing in
    place removes segment-boundary waste (freed neighbours always
    coalesce), but a request larger than every hole still forces growth —
    only stitching can fuse disjoint holes.

    Expected ordering on the paper's workloads, verified here:

        caching (BFC)  <=  expandable segments  <=  GMLake   (utilization)
    """

    id, section = "ext-expandable-segments", "extension"
    grid = (_replay("opt-13b", 4, ("caching", "expandable", "gmlake")), {
        f"{model}/{combo}": {"model": model, "batch_size": batch,
                             "strategies": combo}
        for model, batch, combo in (("opt-1.3b", 8, "LR"), ("opt-13b", 4, "LR"),
                                    ("opt-13b", 4, "RO"),
                                    ("gpt-neox-20b", 2, "LRO"))})
    cell = staticmethod(_by_allocator)

    def render(self, results):
        rows = []
        for workload, by_alloc in results.items():
            rows.append({
                "workload": workload,
                "UR caching": round(by_alloc["caching"].utilization_ratio, 3),
                "UR expandable": round(by_alloc["expandable"].utilization_ratio, 3),
                "UR gmlake": round(by_alloc["gmlake"].utilization_ratio, 3),
                "RM caching (GB)": round(by_alloc["caching"].peak_reserved_gb, 2),
                "RM expandable (GB)": round(by_alloc["expandable"].peak_reserved_gb, 2),
                "RM gmlake (GB)": round(by_alloc["gmlake"].peak_reserved_gb, 2),
            })
        return format_table(
            rows, title="Extension — expandable segments (PyTorch's later VMM "
                        "allocator): caching <= expandable <= GMLake")

    def check(self, results):
        for by_alloc in results.values():
            caching = by_alloc["caching"].utilization_ratio
            expandable = by_alloc["expandable"].utilization_ratio
            gmlake = by_alloc["gmlake"].utilization_ratio
            assert caching <= expandable + 0.02
            assert expandable <= gmlake + 0.02
            assert gmlake > 0.95


class ExtInferenceServing(Artefact):
    """Extension: LLM inference serving (the §6 vLLM-adjacent scenario).

    Continuous batching admits and retires requests with heavy-tailed,
    never-repeating KV-cache sizes — the adversarial case for exact-size
    caching and the harshest pool churn an allocator sees in production.
    GMLake's stitching must still keep reserved memory near active memory
    where the splitting allocator shreds its pool.

    Offline replay: one allocator stream, recorded from the serving
    simulator (FCFS, every request arriving at once, ample memory, so
    no allocator decision shapes it), is replayed under each allocator,
    so the allocator moves only memory numbers; ``ext-online-serving``
    closes the loop instead.
    """

    id, section = "ext-inference-serving", "§6 (extension)"
    CELLS = [("opt-6.7b", 16), ("opt-13b", 8), ("opt-13b", 16)]

    def measure(self):
        """{(model, max batch): {allocator: replay of the same trace}}."""
        out = {}
        for model, max_batch in self.CELLS:
            config = ServingConfig(max_batch=max_batch, queue_timeout_s=1e6)
            sim = ServingSimulator(model, allocator="caching", config=config)
            recorder = sim.allocator.add_observer(AllocationRecorder())
            sim.run(PoissonArrivals(rate_per_s=1000).generate(150, seed=7))
            trace = recorder.trace
            out[(model, max_batch)] = {
                name: run_trace(resolve_allocator(name, GpuDevice()), trace)
                for name in ("caching", "expandable", "gmlake")
            }
        return out

    def render(self, results):
        rows = []
        for (model, max_batch), by_alloc in results.items():
            rows.append({
                "workload": f"{model} serving bs{max_batch}",
                "UR caching": round(by_alloc["caching"].utilization_ratio, 3),
                "UR expandable": round(by_alloc["expandable"].utilization_ratio, 3),
                "UR gmlake": round(by_alloc["gmlake"].utilization_ratio, 3),
                "RM caching (GB)": round(by_alloc["caching"].peak_reserved_gb, 2),
                "RM gmlake (GB)": round(by_alloc["gmlake"].peak_reserved_gb, 2),
            })
        return format_table(
            rows, title="Extension — inference serving (continuous batching, "
                        "heavy-tailed KV sizes)")

    def check(self, results):
        for by_alloc in results.values():
            assert by_alloc["gmlake"].utilization_ratio >= (
                by_alloc["caching"].utilization_ratio - 0.01
            )
            assert by_alloc["gmlake"].utilization_ratio > 0.9


#: The serving extensions' shared regime: opt-1.3b, rates rising to past
#: the SLO knee, memory-aware admission, fixed seed.
SERVE_MODEL = "opt-1.3b"
SERVE_RATES = (2.0, 4.0, 8.0)    # requests/s
SERVE_REQUESTS = 80


def _rising(allocator: str, capacity: int, **serving) -> ExperimentSpec:
    """The shared serving regime at ``SERVE_RATES[0]`` on ``capacity``."""
    serving = {"model": SERVE_MODEL, "rate_per_s": SERVE_RATES[0],
               "n_requests": SERVE_REQUESTS, "queue_timeout_s": 30.0,
               "seed": 1, **serving}
    return _serve(allocator, capacity, **serving)


class ExtOnlineServing(Artefact):
    """Extension: online serving with allocator-in-the-loop scheduling.

    The offline serving artefact (``ext-inference-serving``) replays a
    fixed admission schedule, so the allocator can only change *memory*
    numbers.  Here the admission schedule itself reacts to live allocator
    state (memory-aware policy + OOM preemption), so fragmentation feeds
    back into goodput: under a rising Poisson arrival rate, the splitting
    caching allocator's shredded pool forces preemption storms and SLO
    misses well before GMLake's stitched pool does — the paper's §6
    serving argument, made measurable.
    """

    id, section = "ext-online-serving", "§6 (extension)"
    ALLOCATORS = ("caching", "expandable", "gmlake")
    grid = (_rising("gmlake", 4 * GB), along("rate_per_s", SERVE_RATES),
            {name: {"allocators": [name]} for name in ALLOCATORS})
    cell = staticmethod(lambda results: _raw(results).report(SloConfig()))

    def render(self, reports):
        return format_table(
            goodput_vs_rate_rows(list(reports.items())),
            title="Extension — online serving under rising arrival rate "
                  f"({SERVE_MODEL}, 4 GB, memory-aware admission)")

    def check(self, reports):
        top_rate, top = list(reports.items())[-1]
        assert top_rate == max(SERVE_RATES)
        # The headline: at the highest arrival rate, GMLake sustains at
        # least the caching allocator's goodput...
        assert top["gmlake"].goodput_req_s >= top["caching"].goodput_req_s
        # ...with far less preemption churn (fragmentation is the cause).
        assert top["gmlake"].preemptions < top["caching"].preemptions
        # Sanity: the low-rate regime is easy for everyone.
        low = reports[SERVE_RATES[0]]
        for name in self.ALLOCATORS:
            assert low[name].slo_attainment == 1.0
            assert low[name].completed == SERVE_REQUESTS


def _reports(cells, slo) -> Dict[Any, Dict[str, Any]]:
    """{rate: {config: report}} over {rate: {config: result}}."""
    return {rate: {label: result.report(slo)
                   for label, result in by_config.items()}
            for rate, by_config in cells.items()}


def _goodput_table(cells, column: str, value: Callable, title: str) -> str:
    """One row per rate: each config's goodput and ``column``, the
    ``value`` of its (result, report)."""
    rows = []
    for rate, by_config in cells.items():
        row: Dict[str, Any] = {"rate (req/s)": rate}
        for label, result in by_config.items():
            report = result.report(SloConfig())
            row[f"goodput {label}"] = round(report.goodput_req_s, 3)
            row[column.format(label)] = value(result, report)
        rows.append(row)
    return format_table(rows, title=title)


def _with_ledger(table: str, cells, ledger: str) -> str:
    """``table``, then the top rate's per-config ledger breakdown."""
    top_rate, top = list(cells.items())[-1]
    return "\n".join([table, "", format_defrag_comparison(
        top, title=f"{ledger} at {top_rate:g} req/s", slo=SloConfig())])


class ExtPagedVsStitched(Artefact):
    """Extension: pool-level vs. cache-level defragmentation, head to head.

    The paper's answer to serving fragmentation is *pool-level*: GMLake
    stitches the stranded pool memory back together under unchanged
    chunked KV tensors.  vLLM's answer is *cache-level*: page the KV cache
    into fixed-size blocks so the pool only ever sees one size and cannot
    fragment at all.  This artefact runs both on identical arrival streams
    — gmlake+chunked (stitching), caching+chunked (the fragmenting
    baseline) and caching+paged (block tables rescue even the splitting
    allocator) — across rising Poisson rates, and reports goodput and peak
    memory per cell plus the full defrag breakdown at the top rate.

    What it shows: both strategies beat the fragmenting baseline on
    preemption churn, but they pay in different ledgers — chunked KV pays
    pool fragmentation and growth-copy traffic, paged KV pays internal
    fragmentation in each request's last block (an order of magnitude
    smaller at block_tokens=16).
    """

    id, section = "ext-paged-vs-stitched", "§6 (extension)"
    CONFIGS = {
        "gmlake+chunked": {"allocators": ["gmlake"], "kv_cache": "chunked"},
        "caching+chunked": {"allocators": ["caching"], "kv_cache": "chunked"},
        "caching+paged": {"allocators": ["caching"],
                          "kv_cache": "paged?block_tokens=16"},
    }
    grid = (_rising("gmlake", 4 * GB), along("rate_per_s", SERVE_RATES), CONFIGS)

    def render(self, cells):
        return _with_ledger(_goodput_table(
            cells, "RM {} (GB)", lambda r, _: round(r.peak_reserved_gb, 2),
            title="Extension — paged KV (cache-level) vs. stitched pool "
                  f"(pool-level) defrag ({SERVE_MODEL}, 4 GB)"),
            cells, "defrag breakdown")

    def check(self, cells):
        reports = _reports(cells, SloConfig())
        top_rate = list(cells)[-1]
        assert top_rate == max(SERVE_RATES)
        # Pool-level defrag: at the top rate GMLake's stitched pool
        # sustains at least the fragmenting baseline's goodput.
        assert (reports[top_rate]["gmlake+chunked"].goodput_req_s
                >= reports[top_rate]["caching+chunked"].goodput_req_s)
        # Cache-level defrag: same-size blocks mean the splitting allocator
        # never preempts *more* than it did under chunked KV, at any rate.
        for rate in SERVE_RATES:
            assert (reports[rate]["caching+paged"].preemptions
                    <= reports[rate]["caching+chunked"].preemptions)
        # The ledgers differ: paged KV's waste is internal to blocks and an
        # order of magnitude below chunked KV's chunk-tail waste ...
        for by_config in cells.values():
            paged_frag = by_config["caching+paged"].kv_metrics.internal_frag_ratio
            chunked_frag = by_config["caching+chunked"].kv_metrics.internal_frag_ratio
            assert paged_frag < chunked_frag
            # ... and paged growth never copies KV, chunked growth always does.
            assert by_config["caching+paged"].kv_metrics.grow_copy_bytes == 0
            assert by_config["caching+chunked"].kv_metrics.grow_copy_bytes > 0
        # Under light load the paged pool also reserves no more memory than
        # the fragmenting chunked baseline.
        low = cells[SERVE_RATES[0]]
        assert (low["caching+paged"].peak_reserved_bytes
                <= low["caching+chunked"].peak_reserved_bytes)
        # Sanity: the low-rate regime is easy for everyone.
        for label in self.CONFIGS:
            assert reports[SERVE_RATES[0]][label].slo_attainment == 1.0
            assert reports[SERVE_RATES[0]][label].completed == SERVE_REQUESTS


class ExtSwapVsRecompute(Artefact):
    """Extension: swap vs. recompute preemption, per allocator, over load.

    When the KV cache cannot grow, the serving simulator evicts a victim.
    ``recompute`` (vLLM's default) frees the victim's KV and pays GPU
    compute to re-prefill the full context on re-admission; ``swap`` pays
    PCIe bandwidth instead — the KV is offloaded to host memory at
    eviction and copied back on re-admission (both directions charged
    through the device latency model, accounted as ``swapped_bytes``).

    This artefact runs the 2x2 of {gmlake, caching} x {recompute, swap}
    on identical arrival streams across rising Poisson rates.  What it
    shows: the policies trade different ledgers — recompute converts
    preemptions into prefill compute (longer TTFT for the victim), swap
    converts them into PCIe traffic — while the allocator choice still
    decides *how often* preemption happens at all (GMLake's stitched pool
    preempts less than the fragmenting caching baseline under chunked KV).
    """

    id, section = "ext-swap-vs-recompute", "§6 (extension)"
    CONFIGS = {
        f"{allocator}+{preemption}": {"allocators": [allocator],
                                      "preemption": preemption}
        for allocator in ("gmlake", "caching")
        for preemption in ("recompute", "swap")
    }
    grid = (_rising("gmlake", 4 * GB), along("rate_per_s", SERVE_RATES), CONFIGS)

    def render(self, cells):
        return _with_ledger(_goodput_table(
            cells, "preempt {}", lambda _, report: report.preemptions,
            title="Extension — swap (PCIe offload) vs. recompute "
                  f"(re-prefill) preemption ({SERVE_MODEL}, 4 GB)"),
            cells, "preemption ledgers")

    def check(self, cells):
        reports = _reports(cells, SloConfig())
        top_rate = list(cells)[-1]
        assert top_rate == max(SERVE_RATES)
        for rate, by_config in cells.items():
            for label, config in self.CONFIGS.items():
                metrics = by_config[label].kv_metrics
                preempts = reports[rate][label].preemptions
                if config["preemption"] == "swap":
                    # Swap's ledger: PCIe bytes iff anything was preempted,
                    # and no discard cost (no victim exhausts the
                    # preemption budget anywhere in this fixed-seed grid —
                    # budget-exhausted victims *would* land in
                    # preempt_copy_bytes, like recompute's).
                    assert (metrics.swapped_bytes > 0) == (preempts > 0), label
                    assert metrics.preempt_copy_bytes == 0, label
                else:
                    # Recompute's ledger: discarded KV iff preempted, and
                    # never PCIe traffic.
                    assert metrics.swapped_bytes == 0, label
                    assert (metrics.preempt_copy_bytes > 0) == (preempts > 0), \
                        label

        # The pressure regime is real: at the top rate the fragmenting
        # baseline preempts under both policies.
        for label in ("caching+recompute", "caching+swap"):
            assert reports[top_rate][label].preemptions > 0

        # Pool-level defrag still decides preemption frequency: GMLake's
        # stitched pool never preempts more than the caching baseline
        # under the same preemption policy.
        for rate in SERVE_RATES:
            for policy in ("recompute", "swap"):
                assert (reports[rate][f"gmlake+{policy}"].preemptions
                        <= reports[rate][f"caching+{policy}"].preemptions)

        # Everyone clears the easy regime.
        for label in self.CONFIGS:
            assert reports[SERVE_RATES[0]][label].completed == SERVE_REQUESTS


class ExtMemoryTiers(Artefact):
    """Extension: tiered KV offload (DRAM / CXL) vs. recompute-only.

    When the KV cache cannot grow, ``recompute`` preemption frees the
    victim's KV and pays GPU compute to re-prefill the full context on
    re-admission.  A ``memory_tiers`` hierarchy gives the victim somewhere
    to go instead: its KV demotes into the shallowest tier with room
    (device->tier transfer charged to the clock) and promotes back on
    re-admission — bandwidth-bound restores instead of compute-bound ones,
    falling back to recompute only when every tier is full.

    This artefact runs recompute-only vs. a deliberately small host-DRAM
    tier vs. the same DRAM tier backed by a CXL pool, on identical arrival
    streams across rising Poisson rates.  What it shows: past the
    recompute knee, offload capacity *monotonically* recovers goodput —
    the starved DRAM tier helps a little, and the CXL tier behind it keeps
    absorbing the overflow that DRAM alone bounces back to recompute, at
    pricing that still beats re-prefill.
    """

    id, section = "ext-memory-tiers", "§6 (extension)"
    RATES = (4.0, 8.0, 12.0, 16.0)   # requests/s, rising past the recompute knee
    #: A DRAM tier too small for the working set, so DRAM-only keeps
    #: falling back to recompute and the CXL pool behind it has overflow
    #: left to absorb.
    DRAM = "dram?gb=0.2"
    CXL = "cxl?gb=16&gb_per_s=40&latency_us=1"
    #: config -> memory_tiers spec; "" is the recompute-only baseline.
    CONFIGS = {"recompute": "", "dram": DRAM, "dram+cxl": DRAM + "," + CXL}
    # 3 GB: weights ~2.6 GB, so KV headroom is the scarce pool.
    grid = (_serve("caching", 3 * GB, model=SERVE_MODEL, rate_per_s=RATES[0],
                   n_requests=160, kv_cache="paged?block_tokens=16",
                   max_batch=32, queue_timeout_s=30.0, seed=2),
            along("rate_per_s", RATES),
            {label: {"memory_tiers": tiers} for label, tiers in CONFIGS.items()})

    def render(self, cells):
        return _with_ledger(_goodput_table(
            cells, "preempt {}", lambda _, report: report.preemptions,
            title="Extension — tiered KV offload (DRAM / DRAM+CXL) vs. "
                  f"recompute-only preemption ({SERVE_MODEL}, 3 GB)"),
            cells, "tier ledgers")

    def check(self, cells):
        reports = _reports(cells, SloConfig())
        top_rate, top = list(cells.items())[-1]
        assert top_rate == max(self.RATES)

        # Ledger physics at every rate: only tiered configs move KV into
        # the hierarchy, and they do so exactly when preemption happens.
        for rate, by_config in cells.items():
            for label, tiers in self.CONFIGS.items():
                metrics = by_config[label].kv_metrics
                demoted = sum(metrics.demoted_bytes.values())
                if tiers:
                    assert (demoted > 0) == \
                        (reports[rate][label].preemptions > 0), label
                    assert metrics.swapped_bytes == 0, label
                else:
                    assert not metrics.demoted_bytes, label
                    assert not metrics.promoted_bytes, label

        # The pressure regime is real: at the top rate everyone preempts,
        # and the hierarchy genuinely spills — the CXL tier behind the
        # starved DRAM tier holds overflow bytes of its own.
        for label in self.CONFIGS:
            assert reports[top_rate][label].preemptions > 0, label
        spilled = top["dram+cxl"].kv_metrics.demoted_bytes
        assert spilled.get("cxl", 0) > 0, spilled
        # Deeper hierarchy absorbs strictly more than starved DRAM alone.
        assert (sum(spilled.values())
                > sum(top["dram"].kv_metrics.demoted_bytes.values()))

        # The headline: past the knee, offload capacity monotonically
        # recovers the goodput recompute burns on re-prefill — and at the
        # top rate the recovery is strict at every step.
        for rate in self.RATES[1:]:
            assert (reports[rate]["recompute"].goodput_req_s
                    <= reports[rate]["dram"].goodput_req_s
                    <= reports[rate]["dram+cxl"].goodput_req_s), rate
        assert (reports[top_rate]["recompute"].goodput_req_s
                < reports[top_rate]["dram"].goodput_req_s
                < reports[top_rate]["dram+cxl"].goodput_req_s)

        # Everyone clears the easy regime identically: no pressure, no
        # divergence between the baselines and the hierarchy.
        for label in self.CONFIGS:
            assert (reports[self.RATES[0]][label].goodput_req_s
                    == reports[self.RATES[0]]["recompute"].goodput_req_s)


TENANTS = 4
TENANT_RATE = 6.0                 # requests/s across all tenants


class ExtPrefixSharing(Artefact):
    """Extension: radix-trie prefix sharing under multi-tenant serving.

    Multi-tenant serving repeats itself: every request of a tenant opens
    with the same system prompt, so the first blocks of its KV cache are
    byte-identical across the tenant's whole stream.  The ``paged-shared``
    KV model indexes those prefixes in a radix trie over the paged block
    table — requests that declare a ``prefix_id`` splice the resident
    shared blocks into their table copy-on-write, and a block only frees
    when its reference count reaches zero.

    This artefact runs the same Zipf-skewed multi-tenant arrival stream
    (identical seeds) through plain ``paged`` and ``paged-shared`` KV at
    rising shared-prefix lengths, and reports the sharing ledger next to
    goodput and peak memory.

    What it shows: with real prefix reuse the trie serves most prompts
    from resident blocks (``prefix hit`` close to the tenant-stream reuse
    probability), which cuts peak KV memory strictly below the
    sharing-off run — the same workload simply allocates fewer blocks —
    while goodput and SLO attainment never regress.  Capacity is ample on
    purpose: at saturation both variants fill the device and the peak is
    capacity-bound, hiding exactly the effect being measured.
    """

    id, section = "ext-prefix-sharing", "§6 (extension)"
    #: Shared prompt-prefix length sweep.  250 is deliberately not a
    #: multiple of block_tokens=16: the declared prefix then ends mid-block
    #: and every hit pays a copy-on-write charge for the boundary block.
    PREFIX_TOKENS = (128, 250, 512)
    # 8 GB is ample: peak KV is workload-, not capacity-bound.
    grid = (_rising("caching", 8 * GB, kv_cache="paged?block_tokens=16"),
            {prefix: {"arrivals": f"multi-tenant?tenants={TENANTS}"
                                  f"&rate={TENANT_RATE:g}"
                                  f"&shared_prefix_tokens={prefix}"}
             for prefix in PREFIX_TOKENS},
            {"paged": {"prefix_sharing": False},
             "paged-shared": {"prefix_sharing": True}})

    def render(self, cells):
        slo = SloConfig()
        rows = []
        for prefix, by_config in cells.items():
            row = {"prefix (tok)": prefix}
            for label, result in by_config.items():
                rep = result.report(slo)
                row[f"goodput {label}"] = round(rep.goodput_req_s, 3)
                row[f"peak KV {label} (MB)"] = round(
                    result.kv_metrics.peak_kv_bytes / MB, 1)
            shared = by_config["paged-shared"].kv_metrics
            row["prefix hit"] = round(shared.prefix_hit_rate, 3)
            row["cow (MB)"] = round(shared.cow_copy_bytes / MB, 2)
            rows.append(row)
        top_prefix, top = list(cells.items())[-1]
        return "\n".join([
            format_table(
                rows,
                title="Extension — prefix-sharing paged KV under "
                      f"{TENANTS}-tenant Zipf traffic ({SERVE_MODEL}, "
                      f"8 GB, rate {TENANT_RATE:g}/s)"),
            "",
            format_defrag_comparison(
                top, title=f"sharing ledger at {top_prefix} prefix tokens",
                slo=slo)])

    def check(self, cells):
        slo = SloConfig()
        assert list(cells)[-1] == max(self.PREFIX_TOKENS)
        for by_config in cells.values():
            plain = by_config["paged"].kv_metrics
            shared = by_config["paged-shared"].kv_metrics
            # The trie actually served prompts from resident blocks ...
            assert shared.prefix_hit_rate > 0
            assert shared.shared_bytes > 0
            # ... and the sharing-off run never pays the sharing ledger.
            assert plain.prefix_lookups == 0
            assert plain.shared_bytes == 0
            # The headline: the identical workload peaks strictly lower
            # with sharing on — the reused prefix blocks exist once.
            assert shared.peak_kv_bytes < plain.peak_kv_bytes
            assert shared.kv_allocs < plain.kv_allocs
            # Sharing is memory-side only: serving quality never regresses.
            plain_rep = by_config["paged"].report(slo)
            shared_rep = by_config["paged-shared"].report(slo)
            assert shared_rep.completed == plain_rep.completed == SERVE_REQUESTS
            assert shared_rep.goodput_req_s >= plain_rep.goodput_req_s
            assert shared_rep.preemptions <= plain_rep.preemptions


class ExtDisaggVsColocated(Artefact):
    """Extension: disaggregated prefill/decode vs. colocated serving.

    Splitwise/DistServe-style disaggregation dedicates one fleet to
    prefill and one to decode; every request's KV cache migrates from its
    prefill replica to a decode replica over a modeled ``interconnect``
    component (both endpoints charged, accounted as ``migrated_bytes``).
    Colocated serving runs the same total GPU count as a symmetric
    replica fleet with no migration.

    This artefact runs both topologies — a 2-replica colocated cluster vs.
    a 1P+1D disaggregated split over NVLink — on identical arrival streams
    across rising Poisson rates.  What it shows: disaggregation buys
    *phase isolation* (decode batches never stall behind long prefills;
    the per-phase TTFT attribution columns separate prefill-queue wait
    from decode-queue wait) and pays for it in interconnect traffic that
    colocated serving never incurs.
    """

    id, section = "ext-disagg-vs-colocated", "extension"
    INTERCONNECT = "nvlink?gb_per_s=300"
    grid = (_rising("gmlake", 6 * GB), along("rate_per_s", SERVE_RATES), {
        "colocated-2gpu": {"replicas": 2},
        "disagg-1p1d": {"disagg": DisaggSpec(
            prefill_replicas=1, decode_replicas=1, interconnect=INTERCONNECT)},
    })

    def render(self, cells):
        slo = SloConfig()
        # Per-phase TTFT attribution + the migration bill, disagg only:
        # where first-token latency was spent, and what the split cost.
        phase_rows = []
        for rate, by_topology in cells.items():
            result = by_topology["disagg-1p1d"]
            rep = result.report(slo)
            phase_rows.append({
                "rate (req/s)": rate,
                "prefill wait (s)": round(rep.prefill_wait_s, 4),
                "decode wait (s)": round(rep.decode_wait_s, 4),
                "migrations": result.migrations,
                "migrated (MB)": round(result.migrated_bytes / MB, 1),
            })
        return "\n".join([
            _goodput_table(
                cells, "TTFT p99 {} (ms)",
                lambda _, report: round(report.p99_ttft_s * 1e3, 1),
                title="Extension — disaggregated (1P+1D over "
                      f"{self.INTERCONNECT}) vs. colocated (2 GPU) serving "
                      f"({SERVE_MODEL}, 6 GB/replica)"),
            "",
            format_table(
                phase_rows, title="disagg-1p1d per-phase TTFT attribution")])

    def check(self, cells):
        slo = SloConfig()
        for by_topology in cells.values():
            colocated = by_topology["colocated-2gpu"]
            disagg = by_topology["disagg-1p1d"]
            rep = disagg.report(slo)
            # Colocated serving never migrates; disaggregated serving
            # migrates every request that reached decode, bills it, and
            # leaves no KV stranded mid-flight.
            assert colocated.kv_metrics.migrated_bytes == 0
            assert disagg.migrations == disagg.completed
            assert disagg.migrated_bytes > 0
            assert disagg.pending_imports == 0
            # The attribution decomposes: both phase waits are real numbers
            # and the prefill queue is where disagg TTFT accrues.
            assert rep.prefill_wait_s >= 0.0 and rep.decode_wait_s >= 0.0
            # Both fleets exist in the extras surface.
            extras = disagg.extras()
            assert extras["prefill_replicas"] == 1
            assert extras["decode_replicas"] == 1

        # Everyone clears the easy regime.
        first_rate, first = next(iter(cells.items()))
        assert first_rate == min(SERVE_RATES)
        for label, result in first.items():
            assert result.report(slo).completed == SERVE_REQUESTS


class ExtFaultTolerance(Artefact):
    """Extension: retry/backoff vs. hedging under replica crashes.

    A fleet that loses replicas has two knobs: how hard it retries the
    victims (``retry: budget`` — exponential backoff under a per-request
    budget) and whether it hedges stuck requests onto healthy peers before
    they go stale (``retry: hedge``).  This artefact runs the
    {no-faults, crashing} x {none, budget, hedge} grid on identical
    arrival streams (same seed, same rate — matched load).

    What it shows: crashes without retries burn availability (permanent
    ``reject_reason="failed"`` losses); a budget recovers every victim but
    pays for it in tail latency (victims re-prefill after backoff, behind
    whatever queue they land in); hedging recovers the same victims *and*
    beats the budget's p99 TTFT, because duplicates dispatched to healthy
    replicas sidestep the sick one instead of waiting out its repair.
    """

    id, section = "ext-fault-tolerance", "extension"
    REPLICAS = 3
    RATE = 20.0                # req/s across the fleet: real contention
    N_REQUESTS = 400
    CRASHY = "replica-crash?mtbf_s=15&mttr_s=5"
    grid = (_serve("caching", 6 * GB, model=SERVE_MODEL, rate_per_s=RATE,
                   n_requests=N_REQUESTS, kv_cache="paged?block_tokens=16",
                   replicas=REPLICAS, seed=7),
            {"clean": {},
             "crash+none": {"faults": CRASHY},
             "crash+budget": {"faults": CRASHY, "retry": "budget?max=3"},
             "crash+hedge": {"faults": CRASHY, "retry": "hedge?after_s=1"}})

    def render(self, results):
        slo = SloConfig()
        rows = []
        for label, result in results.items():
            rep = result.report(slo)
            rows.append({
                "config": label,
                "done": rep.completed,
                "failed": rep.failed,
                "retries": rep.retries,
                "avail %": round(rep.availability * 100.0, 2),
                "p99 TTFT (s)": round(rep.p99_ttft_s, 3),
                "goodput (req/s)": round(rep.goodput_req_s, 3),
            })
        return format_table(
            rows,
            title="Extension — retry budget vs. hedging under replica "
                  f"crashes ({SERVE_MODEL}, {self.REPLICAS} replicas, "
                  f"{self.RATE:g} req/s, matched seeds)")

    def check(self, results):
        slo = SloConfig()
        reports = {label: result.report(slo)
                   for label, result in results.items()}

        # The fault-free sanity row: nothing fails, nothing retries.
        clean = reports["clean"]
        assert clean.completed == self.N_REQUESTS
        assert clean.failed == 0 and clean.retries == 0
        assert clean.availability == 1.0

        # Crashes without retries lose requests permanently.
        bare = reports["crash+none"]
        assert bare.failed > 0
        assert bare.availability < 1.0
        assert bare.completed + bare.rejected == self.N_REQUESTS

        # A retry budget recovers every victim at this MTBF/MTTR.
        budget = reports["crash+budget"]
        assert budget.completed == self.N_REQUESTS
        assert budget.failed == 0
        assert budget.retries > 0
        assert budget.availability == 1.0

        # Hedging recovers them too — and beats the budget's tail TTFT at
        # matched load and identical seeds: the artefact's headline.
        hedge = reports["crash+hedge"]
        assert hedge.completed == self.N_REQUESTS
        assert hedge.failed == 0
        assert hedge.p99_ttft_s < budget.p99_ttft_s

        # Fault handling is overhead, never magic: the crashing fleet's
        # goodput does not beat the fault-free fleet's.
        for label in ("crash+none", "crash+budget", "crash+hedge"):
            assert reports[label].goodput_req_s <= clean.goodput_req_s + 1e-9


#: Every artefact, in declaration order.
ARTEFACTS: List[Artefact] = [cls() for cls in Artefact.__subclasses__()]
