"""Tests for tables, experiment runners and the summary aggregator."""

import pytest

from repro.analysis import along, comparison, format_table, grid, summarize
from repro.analysis.experiments import first_oom_batch, point
from repro.api import ExperimentSpec, ServingSpec, WorkloadSpec
from repro.sim.engine import EngineResult
from repro.sim.metrics import ComparisonRow
from repro.units import GB


def fake_result(reserved_gb, active_gb, oom=False):
    return EngineResult(
        allocator_name="fake",
        meta={"batch_size": 4},
        peak_active_bytes=int(active_gb * GB),
        peak_reserved_bytes=int(reserved_gb * GB),
        oom=oom,
    )


def fake_row(base_reserved, gml_reserved, active, oom_base=False, oom_gml=False):
    return ComparisonRow(
        label="w",
        baseline=fake_result(base_reserved, active, oom_base),
        gmlake=fake_result(gml_reserved, active, oom_gml),
    )


class TestTables:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        out = format_table(rows)
        lines = out.splitlines()
        assert len(lines) == 4  # header, separator, two rows
        # All lines are equally wide (aligned columns).
        assert len({len(line) for line in lines}) == 1

    def test_format_table_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        out = format_table(rows, columns=["b"])
        assert "a" not in out.splitlines()[0]

    def test_format_table_title_and_empty(self):
        assert "t" in format_table([], title="t")

    def test_floats_formatted(self):
        out = format_table([{"x": 0.123456}])
        assert "0.123" in out

    def test_bools_formatted(self):
        out = format_table([{"x": True}])
        assert "yes" in out


class TestSummary:
    def test_averages(self):
        rows = [fake_row(10, 8, 7), fake_row(20, 15, 14)]
        stats = summarize(rows)
        assert stats.n_workloads == 2
        assert stats.avg_saving_gb == pytest.approx((2 + 5) / 2)
        assert stats.max_saving_gb == pytest.approx(5)

    def test_mem_reduction_ratio_weighted(self):
        rows = [fake_row(10, 8, 7), fake_row(20, 15, 14)]
        stats = summarize(rows)
        assert stats.mem_reduction_ratio == pytest.approx(7 / 30)

    def test_oom_rows_counted_but_excluded(self):
        rows = [fake_row(10, 8, 7), fake_row(20, 15, 14, oom_base=True)]
        stats = summarize(rows)
        assert stats.baseline_ooms == 1
        assert stats.avg_saving_gb == pytest.approx(2.0)

    def test_empty(self):
        stats = summarize([])
        assert stats.n_workloads == 0
        assert stats.avg_saving_gb == 0.0


class TestFirstOom:
    def test_finds_first_oom(self):
        rows = [fake_row(10, 9, 8)]
        rows[0].baseline.meta["batch_size"] = 16
        rows.append(fake_row(10, 9, 8, oom_base=True))
        rows[1].baseline.meta["batch_size"] = 32
        assert first_oom_batch(rows, "baseline") == 32
        assert first_oom_batch(rows, "gmlake") is None


def small_replay(**workload) -> ExperimentSpec:
    return ExperimentSpec(workload=WorkloadSpec("opt-1.3b", 2, **workload))


class TestGrid:
    """The one grid helper: points, keys and the merge order."""

    def test_point_sets_spec_and_block_fields(self):
        spec = point(small_replay(), {"capacity": "8GB", "n_gpus": 2})
        assert spec.capacity == 8 << 30 and spec.workload.n_gpus == 2
        serve = ExperimentSpec(mode="serve", serving=ServingSpec())
        assert point(serve, {"rate_per_s": 4.0}).serving.rate_per_s == 4.0

    def test_results_nest_one_level_per_axis_in_axis_order(self, monkeypatch):
        seen = []
        monkeypatch.setattr(
            "repro.analysis.experiments.run_sweep",
            lambda points, jobs: seen.extend(points) or list(range(len(points))))
        cells = grid(small_replay(), along("strategies", ("N", "LR")),
                     {"one": {"n_gpus": 1}, "four": {"n_gpus": 4}})
        assert cells == {"N": {"one": 0, "four": 1}, "LR": {"one": 2, "four": 3}}
        assert [(p.workload.strategies, p.workload.n_gpus) for p in seen] == [
            ("N", 1), ("N", 4), ("LR", 1), ("LR", 4)]
        assert grid(small_replay(), jobs=1) == 0

    def test_a_non_default_gmlake_spec_is_run(self):
        """A grid runs the GMLake spec it names, not the default one."""
        def gmlake_reserved(gmlake):
            base = ExperimentSpec(allocators=("caching", gmlake),
                                  workload=WorkloadSpec("opt-1.3b", 2,
                                                        iterations=2))
            cells = grid(base, along("batch_size", (1, 2)), jobs=1)
            return [comparison(results).gmlake.peak_reserved_bytes
                    for results in cells.values()]

        assert gmlake_reserved("gmlake?chunk_mb=256") != gmlake_reserved("gmlake")


class TestSweepsSmoke:
    """Fast, small-model grids in the shape of the paper's sweeps."""

    def test_strategy_sweep_shapes(self):
        cells = grid(small_replay(iterations=4),
                     along("strategies", ("N", "LR")), jobs=1)
        assert list(cells) == ["N", "LR"]
        for results in cells.values():
            row = comparison(results)
            assert row.gmlake.utilization_ratio >= row.baseline.utilization_ratio - 0.02

    def test_scaleout_sweep_runs(self):
        cells = grid(small_replay(iterations=4), along("n_gpus", (1, 4)),
                     jobs=1)
        assert len(cells) == 2
        assert comparison(cells[4]).baseline.meta["n_gpus"] == 4

    def test_batch_sweep_detects_oom(self):
        cells = grid(small_replay(iterations=3),
                     along("batch_size", (1, 4096)), jobs=1)
        small, huge = (comparison(cells[b]) for b in (1, 4096))
        assert not small.baseline.oom
        assert huge.baseline.oom and huge.gmlake.oom
