"""Self-test of the benchmark harness (collected by the tier-1 command).

Checks the parts a later PR can break without running the benchmark:
the module -> layer map covers ``src/repro``, span self-time
arithmetic, digest stability, and that ``BENCHMARK.json`` stays within
the contract and in step with the harness.
"""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import specs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _contract():
    return json.loads((REPO / "BENCHMARK.json").read_text())


def test_every_module_maps_to_a_layer():
    src = REPO / "src"
    unmapped = []
    for path in sorted((src / "repro").rglob("*.py")):
        if layers.layer_of_file(str(path), str(src)) not in layers.LAYERS:
            unmapped.append(layers.module_of_file(str(path), str(src)))
    assert not unmapped, (
        f"add {unmapped} to benchmarks/perf/layers.py (a benchmark change: "
        "its own PR)")
    assert layers.layer_of_module("repro.serve.brand_new") is None
    assert layers.layer_of_file("/usr/lib/python3/json/encoder.py",
                                str(src)) is None


def test_span_self_time_arithmetic():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "parent": 0, "start": 3.5, "end": 6.0},   # overlaps span 1
        {"id": 4, "parent": 0, "start": 9.0, "end": 12.0},  # outlives parent
    ]
    assert layers.span_self_times(spans) == [4.0, 2.0, 1.0, 2.5, 3.0]


def test_profile_attribution_charges_foreign_time_to_the_caller():
    src = "/x/src"
    kv = (f"{src}/repro/serve/kvcache.py", 10, "admit")
    private = (f"{src}/repro/serve/kvcache.py", 30, "_ensure")
    sim = (f"{src}/repro/serve/simulator.py", 20, "tick")
    sort = ("~", 0, "<built-in method builtins.sorted>")
    key = ("/usr/lib/python3/functools.py", 5, "cmp")
    root = ("/harness/child.py", 1, "wrapper")
    stats = {
        root: (1, 1, 0.5, 10.0, {}),
        sim: (1, 1, 2.0, 9.5, {root: (1, 1, 2.0, 9.5)}),
        kv: (3, 3, 1.0, 4.0, {sim: (3, 3, 1.0, 4.0)}),
        private: (3, 3, 0.5, 0.5, {kv: (3, 3, 0.5, 0.5)}),
        # sorted() called from both layers; its key function only
        # under the simulator's call.
        sort: (4, 4, 2.0, 3.0, {sim: (1, 1, 0.5, 1.5), kv: (3, 3, 1.5, 1.5)}),
        key: (8, 8, 1.0, 1.0, {sort: (8, 8, 1.0, 1.0)}),
    }

    self_s, calls = layers.attribute(stats, src)
    assert abs(sum(self_s.values()) - 7.0) < 1e-9
    assert self_s["other"] == 0.5
    # cmp's 1.0 s follows sorted's callers by cumulative time (1.5 : 1.5).
    assert abs(self_s["serve.simulator"] - (2.0 + 0.5 + 0.5)) < 1e-9
    assert abs(self_s["serve.kvcache"] - (1.0 + 0.5 + 1.5 + 0.5)) < 1e-9
    assert calls["serve.kvcache"] == 3        # _ensure is private
    assert calls["serve.simulator"] == 1
    assert layers.call_count(stats, "repro/serve/kvcache.py", ["admit"]) == 3
    assert layers.call_count(stats, "repro/serve/kvcache.py", ["admit"],
                             caller="nobody") == 0


def test_digest_is_stable_and_sensitive():
    from repro import api

    def digest(seed):
        spec = specs.spec("serve_stitch", seed)
        spec["serving"]["n_requests"] = 10
        results = api.run(api.ExperimentSpec.from_dict(spec))
        assert child.broken_invariants(spec, results) == []
        return child.run_digest(results), child.count_events(results)

    assert digest(0) == digest(0)
    assert digest(0) != digest(1)


def test_every_workload_spec_parses():
    from repro import api

    for name in specs.NAMES:
        spec = api.ExperimentSpec.from_dict(specs.spec(name, 7, "t.json"))
        block = spec.workload if spec.mode == "replay" else spec.serving
        assert block.seed == 7
    assert set(specs.OBS_CONTROL) | set(specs.OBS_CONTROL.values()) \
        <= set(specs.NAMES)


def test_benchmark_json_is_within_the_contract():
    doc = _contract()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert metric["better"] in ("higher", "lower")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert doc["paths"] == ["benchmarks/perf"]


def test_benchmark_json_matches_the_harness():
    doc = _contract()
    assert [(w["name"], w["why"]) for w in doc["workloads"]] \
        == [(name, specs.WHY[name]) for name in specs.NAMES]
    per_layer = {m["name"] for m in doc["per_layer"]}
    for layer in layers.LAYERS:
        assert {f"{layer}.self_s", f"{layer}.share",
                f"{layer}.calls"} <= per_layer
    assert compare.TIMED_NAMES <= per_layer


def test_compare_verdicts():
    def cell(samples):
        return {"samples": samples}

    # Samples pair up by index: repeat i of both suites ran the same
    # inputs, so a spread between inputs is not noise.
    parent = cell([100.0, 80.0, 120.0, 95.0, 105.0])

    def scaled(factors):
        return cell([x * f for x, f in zip(parent["samples"], factors)])

    def verdict(factors, better="higher"):
        return compare.judge_cell(parent, scaled(factors), better,
                                  0.06)["verdict"]

    assert verdict([0.99, 1.01, 0.98, 1.0, 1.02]) == "ok"
    assert verdict([0.9, 0.91, 0.92, 0.9, 0.89]) == "regression"
    assert verdict([1.1, 1.11, 1.02, 1.1, 1.09]) == "better"
    assert verdict([0.9, 1.1, 0.85, 1.15, 1.0]) == "unresolved"
    assert verdict([1.01, 1.02, 1.03, 1.04, 1.05], better="lower") == "ok"
    assert verdict([1.1, 1.11, 1.12, 1.1, 1.09], better="lower") == "regression"
