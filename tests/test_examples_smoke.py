"""Smoke tests: every example must run end to end.

Each example's ``main()`` is imported and executed, with argv patched
to its smallest arguments, so a renamed result member an example reads
fails here rather than silently.
"""

import importlib.util
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExampleSmoke:
    def test_quickstart(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["quickstart.py"])
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "invariants hold" in out
        assert "100.0%" in out

    def test_vmm_microbench(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["vmm_microbench.py"])
        load_example("vmm_microbench").main()
        out = capsys.readouterr().out
        assert "115" in out  # the headline 115x number

    def test_fragmentation_report(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["fragmentation_report.py"])
        load_example("fragmentation_report").main()
        out = capsys.readouterr().out
        assert "stitching headroom: 120 MB" in out

    def test_serving_small(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv",
                            ["serving_inference.py", "opt-1.3b", "30"])
        load_example("serving_inference").main()
        out = capsys.readouterr().out
        assert "gmlake" in out

    def test_finetune_small(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv",
                            ["finetune_llm.py", "opt-1.3b", "2"])
        load_example("finetune_llm").main()
        out = capsys.readouterr().out
        assert "Figure 10" in out

    def test_tiered_serving(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv",
                            ["tiered_serving.py", "opt-1.3b", "12", "60"])
        load_example("tiered_serving").main()
        out = capsys.readouterr().out
        assert "per-tier residency ledger" in out
        assert "demoted (MB)" in out
        assert "cxl?gb=16" in out

    def test_disagg_serving(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv",
                            ["disagg_serving.py", "opt-1.3b", "6", "30"])
        load_example("disagg_serving").main()
        out = capsys.readouterr().out
        assert "per-phase TTFT attribution" in out
        assert "1P+1D nvlink" in out
        assert "migrated (MB)" in out

    def test_cluster_scaleout(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["cluster_scaleout.py", "opt-1.3b"])
        load_example("cluster_scaleout").main()
        out = capsys.readouterr().out
        assert "caching worst RM (GB)" in out
        assert "gmlake min-util" in out

    def test_batch_scaling(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["batch_scaling.py", "opt-1.3b"])
        load_example("batch_scaling").main()
        out = capsys.readouterr().out
        assert "first OOM:" in out

    def test_memory_trace(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["memory_trace.py", "1"])
        load_example("memory_trace").main()
        out = capsys.readouterr().out
        assert "=== gmlake: completed 8 iterations ===" in out
        assert "util=" in out

    def test_online_serving(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv",
                            ["online_serving.py", "opt-1.3b", "6", "10"])
        load_example("online_serving").main()
        out = capsys.readouterr().out
        assert "caching+paged" in out
        assert "2 replicas: 10/10 done" in out
