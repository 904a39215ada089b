"""The kind-aware component registry and the one spec class.

Registry metadata, spec round-trips for every registered component of
every kind (property-tested for the serving kinds: parse → JSON →
parse is lossless for arbitrary valid parameter values), parse-time
validation by construction, and the ``repro list-components`` CLI.
"""

import io
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import repro.obs  # noqa: F401  (registers the trace kind)
import repro.serve  # noqa: F401  (registers the serving kinds)
from repro import api
from repro.api import ComponentSpec, SpecError, UnknownComponentError
from repro.cli import main as cli_main

#: One representative parameterized string per serving kind.
SPEC_VIEWS = {
    "scheduler": "memory-aware?margin=1.5",
    "arrivals": "closed-loop?clients=8&think_s=0.5",
    "preemption": "swap?interconnect=pcie?gb_per_s=12",
    "autoscaler": "queue-depth?high=6000&low=800",
    "interconnect": "nvlink?gb_per_s=300&latency_us=1.5",
}

#: Kinds whose components build from their params alone.
_SELF_CONTAINED = sorted(set(api.component_kinds()) - {"allocator", "kv-cache"})


class TestKindRegistry:
    def test_all_kinds_present(self):
        kinds = api.component_kinds()
        for kind in ("allocator", "kv-cache", "scheduler", "arrivals",
                     "preemption", "autoscaler", "interconnect"):
            assert kind in kinds

    def test_expected_names_per_kind(self):
        assert api.component_names("scheduler") == [
            "fcfs", "memory-aware", "shortest-prompt", "wfq"]
        assert api.component_names("arrivals") == [
            "closed-loop", "mmpp", "multi-tenant", "poisson", "replay"]
        assert api.component_names("preemption") == ["recompute", "swap"]
        assert api.component_names("autoscaler") == ["none", "queue-depth"]
        assert api.component_names("interconnect") == ["nvlink", "pcie"]

    def test_aliases_are_metadata_not_entries(self):
        assert "sjf" not in api.component_registry("scheduler")
        assert "sjf" in api.get_component_info(
            "scheduler", "shortest-prompt").aliases
        assert api.get_component_info("scheduler", "sjf").name \
            == "shortest-prompt"

    def test_catalogue_size(self):
        """11 kinds, 35 components — the CI smoke counts the same."""
        kinds = api.component_kinds()
        assert len(kinds) == 11
        assert sum(len(api.component_names(kind)) for kind in kinds) == 35

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown component kind"):
            api.component_names("quantizer")

    def test_unknown_name_is_keyerror_too(self):
        with pytest.raises(UnknownComponentError):
            api.get_component_info("scheduler", "priority-lottery")
        with pytest.raises(KeyError):
            api.get_component_info("preemption", "hibernate")

    def test_every_info_has_description(self):
        for kind in api.component_kinds():
            for info in api.iter_components(kind):
                assert info.description, f"{kind}/{info.name}"
                assert info.kind == kind


class TestSpecViews:
    def test_there_is_one_spec_class(self):
        """The guard that keeps the hand-copied per-kind view from
        coming back."""
        assert ComponentSpec.__subclasses__() == []
        assert api.AllocatorSpec is ComponentSpec

    @pytest.mark.parametrize("kind", sorted(SPEC_VIEWS))
    def test_parameterized_round_trip(self, kind):
        spec = ComponentSpec.parse(SPEC_VIEWS[kind], kind)
        assert spec.kind == kind
        assert ComponentSpec.parse(spec.spec_string(), kind) == spec
        assert ComponentSpec.from_dict(spec.to_dict(), kind) == spec
        assert ComponentSpec.parse(spec, kind) is spec

    @pytest.mark.parametrize("kind", sorted(api.component_kinds()))
    def test_bare_names_round_trip(self, kind):
        """Every registered component's default spec parses, and its
        canonical string parses back to it."""
        for name in api.component_names(kind):
            if name == "replay":
                continue  # replay requires a path (checked below)
            spec = ComponentSpec.parse(name, kind)
            assert spec.spec_string() == name
            assert ComponentSpec.parse(spec.spec_string(), kind) == spec
            if kind in _SELF_CONTAINED:
                built = spec.build()
                label = (getattr(built, "name", None)
                         or getattr(built, "kind", None))
                assert label == name

    def test_resolve_builds_specs_and_passes_instances_through(self):
        built = api.resolve("scheduler", "sjf")
        assert built.name == "shortest-prompt"
        assert api.resolve("scheduler", built) is built
        spec = ComponentSpec.parse("memory-aware?margin=2", "scheduler")
        assert api.resolve("scheduler", spec).margin == 2.0

    def test_a_spec_of_another_kind_is_rejected(self):
        link = ComponentSpec.parse("pcie", kind="interconnect")
        with pytest.raises(SpecError, match="expected a scheduler spec"):
            api.resolve("scheduler", link)

    def test_unknown_name_lists_known(self):
        with pytest.raises(SpecError, match="known"):
            ComponentSpec.parse("priority-lottery", "scheduler")

    def test_unknown_param_rejected(self):
        with pytest.raises(SpecError, match="no parameter"):
            ComponentSpec.parse("swap?compression=lz4", "preemption")

    def test_ill_typed_value_rejected(self):
        with pytest.raises(SpecError, match="bad value"):
            ComponentSpec.parse("poisson?rate=fast", "arrivals")


# ----------------------------------------------------------------------
# Property tests: parse -> JSON -> parse is lossless for arbitrary
# valid parameter values, across all four new kinds.
# ----------------------------------------------------------------------
_floats = st.floats(min_value=0.01, max_value=1e6, allow_nan=False,
                    allow_infinity=False)


def _round_trip(kind, name, params):
    spec = ComponentSpec(name, params, kind)
    assert ComponentSpec.parse(spec.spec_string(), kind) == spec, \
        spec.spec_string()
    assert ComponentSpec.from_dict(spec.to_dict(), kind) == spec
    # The canonical string is stable (idempotent canonicalization).
    assert ComponentSpec.parse(spec.spec_string(), kind).spec_string() \
        == spec.spec_string()


class TestSpecRoundTripProperties:
    @settings(max_examples=50)
    @given(margin=st.floats(min_value=1.0, max_value=16.0,
                            allow_nan=False))
    def test_scheduler(self, margin):
        _round_trip("scheduler", "memory-aware", {"margin": margin})

    @settings(max_examples=50)
    @given(rate=_floats)
    def test_arrivals_poisson(self, rate):
        _round_trip("arrivals", "poisson", {"rate_per_s": rate})

    @settings(max_examples=50)
    @given(clients=st.integers(min_value=1, max_value=512),
           think=_floats, service=_floats)
    def test_arrivals_closed_loop(self, clients, think, service):
        _round_trip("arrivals", "closed-loop",
                    {"clients": clients, "think_s": think,
                     "service_s": service})

    @settings(max_examples=50)
    @given(bandwidth=_floats)
    def test_preemption_swap(self, bandwidth):
        _round_trip("preemption", "swap",
                    {"interconnect": f"pcie?gb_per_s={bandwidth!r}"})

    @settings(max_examples=50)
    @given(low=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
           delta=st.floats(min_value=0.1, max_value=1e5, allow_nan=False),
           floor=st.integers(min_value=1, max_value=64))
    def test_autoscaler_queue_depth(self, low, delta, floor):
        _round_trip("autoscaler", "queue-depth",
                    {"high": low + delta, "low": low,
                     "min_replicas": floor})

    @settings(max_examples=50)
    @given(tokens=st.integers(min_value=1, max_value=4096))
    def test_kv_cache(self, tokens):
        _round_trip("kv-cache", "paged", {"block_tokens": tokens})

    @settings(max_examples=50)
    @given(bandwidth=st.floats(min_value=0.0, max_value=1e4,
                               allow_nan=False),
           setup=st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
    def test_interconnect_pcie(self, bandwidth, setup):
        _round_trip("interconnect", "pcie",
                    {"gb_per_s": bandwidth, "latency_us": setup})

    @settings(max_examples=50)
    @given(bandwidth=_floats,
           setup=st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
    def test_interconnect_nvlink(self, bandwidth, setup):
        _round_trip("interconnect", "nvlink",
                    {"gb_per_s": bandwidth, "latency_us": setup})


#: One malformed spec per range-check hook the constructors made
#: redundant: (kind, spec string, parameter at fault, constructor kwargs).
_CONSTRUCTOR_REJECTS = [
    ("autoscaler", "queue-depth?low=9&high=1", "low",
     {"low": 9.0, "high": 1.0}),
    ("arrivals", "poisson?rate=0", "rate_per_s", {"rate_per_s": 0.0}),
    ("arrivals", "closed-loop?clients=0", "clients", {"clients": 0}),
    ("arrivals", "multi-tenant?zipf=-1", "zipf", {"zipf": -1.0}),
    ("faults", "replica-crash?mtbf_s=0", "mtbf_s", {"mtbf_s": 0.0}),
    ("faults", "straggler?prob=2", "prob", {"prob": 2.0}),
    ("faults", "link-degrade?factor=0.5", "factor", {"factor": 0.5}),
    ("retry", "budget?max=0", "max", {"max": 0}),
    ("retry", "hedge?after_s=0", "after_s", {"after_s": 0.0}),
    ("interconnect", "pcie?gb_per_s=-1", "gb_per_s", {"gb_per_s": -1.0}),
    ("interconnect", "nvlink?gb_per_s=0", "gb_per_s", {"gb_per_s": 0.0}),
    ("scheduler", "memory-aware?margin=0.5", "margin", {"margin": 0.5}),
    ("scheduler", "wfq?weights=t0:x", "weights", {"weights": "t0:x"}),
]


class TestParseTimeValidation:
    """Bad configurations fail when the spec is built, not mid-run."""

    @pytest.mark.parametrize(
        "kind,text,param,kwargs", _CONSTRUCTOR_REJECTS,
        ids=[text for _, text, _, _ in _CONSTRUCTOR_REJECTS])
    def test_one_rule_two_entry_points(self, kind, text, param, kwargs):
        """The constructor's range check is the spec's: parsing reports
        it naming the parameter, and the class itself raises it."""
        with pytest.raises(SpecError, match="cannot construct") as caught:
            ComponentSpec.parse(text, kind)
        assert param in str(caught.value)
        name = text.partition("?")[0]
        with pytest.raises(ValueError):
            api.get_component_info(kind, name).cls(**kwargs)

    def test_trace_sink_needs_a_path(self):
        """A rule that lived only in a hook moved into the constructors."""
        from repro.obs import ChromeTraceSink, JsonlTraceSink

        for sink in (ChromeTraceSink, JsonlTraceSink):
            with pytest.raises(ValueError, match="non-empty path"):
                sink(path=" ")

    @pytest.mark.parametrize("text,match", [
        ("poisson?rate=0", "positive"),
        ("poisson?rate=-2", "positive"),
        ("mmpp?burst=-1", "positive"),
        ("mmpp?dwell=0", "positive"),
        ("closed-loop?clients=0", ">= 1"),
        ("closed-loop?think_s=0", "positive"),
        ("replay", "path"),
    ])
    def test_arrival_specs(self, text, match):
        with pytest.raises(SpecError, match=match):
            ComponentSpec.parse(text, "arrivals")

    @pytest.mark.parametrize("text,match", [
        ("memory-aware?margin=0.5", ">= 1.0"),
        ("memory-aware?margin=-1", ">= 1.0"),
    ])
    def test_scheduler_specs(self, text, match):
        with pytest.raises(SpecError, match=match):
            ComponentSpec.parse(text, "scheduler")

    def test_swap_bandwidth(self):
        with pytest.raises(SpecError, match=">= 0"):
            ComponentSpec.parse(
                "swap?interconnect=pcie?gb_per_s=-4", "preemption")
        # 0 is the documented "device default" sentinel, not an error.
        host = api.resolve(
            "preemption", "swap?interconnect=pcie?gb_per_s=0"
        ).hierarchy.tiers[0]
        assert host.interconnect.gb_per_s == 0.0
        # The pre-interconnect spelling is gone, not silently accepted.
        with pytest.raises(SpecError, match="no parameter"):
            ComponentSpec.parse("swap?pcie_gb_per_s=12", "preemption")

    def test_interconnect_specs(self):
        with pytest.raises(SpecError, match=">= 0"):
            ComponentSpec.parse("pcie?gb_per_s=-1", "interconnect")
        with pytest.raises(SpecError, match=">= 0"):
            ComponentSpec.parse("nvlink?latency_us=-2", "interconnect")
        # nvlink has no device fallback, so the 0 sentinel is an error
        # there but fine on pcie.
        with pytest.raises(SpecError, match="> 0"):
            ComponentSpec.parse("nvlink?gb_per_s=0", "interconnect")
        assert api.resolve("interconnect", "pcie?gb_per_s=0").gb_per_s == 0.0

    def test_swap_validates_nested_interconnect(self):
        """The swap policy's interconnect parameter is itself a spec,
        validated when the *preemption* spec parses."""
        spec = ComponentSpec.parse(
            "swap?interconnect=nvlink?gb_per_s=300", "preemption")
        assert spec.params["interconnect"] == "nvlink?gb_per_s=300"
        with pytest.raises(SpecError):
            ComponentSpec.parse(
                "swap?interconnect=hypertransport", "preemption")
        with pytest.raises(SpecError):
            ComponentSpec.parse(
                "swap?interconnect=nvlink?gb_per_s=0", "preemption")

    @pytest.mark.parametrize("text", [
        "queue-depth?high=0",
        "queue-depth?high=100&low=100",
        "queue-depth?high=100&low=200",
        "queue-depth?min=0",
    ])
    def test_autoscaler_specs(self, text):
        with pytest.raises(SpecError):
            ComponentSpec.parse(text, "autoscaler")

    def test_serving_spec_rejects_bad_rate(self):
        with pytest.raises(SpecError, match="rate_per_s"):
            api.ServingSpec(rate_per_s=0.0)
        with pytest.raises(SpecError, match="rate_per_s"):
            api.ServingSpec(rate_per_s=-3.0)

    def test_serving_spec_rejects_bad_margin(self):
        with pytest.raises(SpecError, match="margin"):
            api.ServingSpec(scheduler="memory-aware?margin=0.25")

    def test_serving_spec_rejects_bad_components(self):
        with pytest.raises(SpecError):
            api.ServingSpec(preemption="hibernate")
        with pytest.raises(SpecError):
            api.ServingSpec(autoscaler="queue-depth?high=1&low=2")
        with pytest.raises(SpecError):
            api.ServingSpec(arrivals="poisson?rate=0")

    def test_serving_spec_rejects_bad_shape(self):
        with pytest.raises(SpecError, match="n_requests"):
            api.ServingSpec(n_requests=0)
        with pytest.raises(SpecError, match="max_batch"):
            api.ServingSpec(max_batch=0)
        with pytest.raises(SpecError, match="queue_timeout_s"):
            api.ServingSpec(queue_timeout_s=-1.0)
        with pytest.raises(SpecError, match="replicas"):
            api.ServingSpec(replicas=0)

    def test_serving_spec_rejects_autoscaler_without_fleet(self):
        """An autoscaler on a single replica would be silently inert —
        reject it at parse time instead."""
        with pytest.raises(SpecError, match="replicas"):
            api.ServingSpec(autoscaler="queue-depth?high=100&low=10",
                            replicas=1)
        # With a fleet it parses fine.
        api.ServingSpec(autoscaler="queue-depth?high=100&low=10",
                        replicas=2)

    def test_serving_spec_canonicalizes_components(self):
        spec = api.ServingSpec(scheduler="sjf",
                               arrivals="poisson?rate=4",
                               preemption="swap")
        assert spec.scheduler == "shortest-prompt"
        assert spec.arrivals == "poisson?rate_per_s=4.0"
        assert spec.preemption == "swap"


class TestListComponentsCli:
    def _run(self, *argv):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli_main(list(argv))
        return code, out.getvalue()

    def test_lists_every_kind_with_params(self):
        code, text = self._run("list-components")
        assert code == 0
        for kind in ("allocator", "kv-cache", "scheduler", "arrivals",
                     "preemption", "autoscaler", "interconnect"):
            assert f"component kind {kind!r}" in text
        # Spot-check one name and one parameter per new kind.
        for needle in ("memory-aware", "margin", "closed-loop", "clients",
                       "swap", "interconnect", "queue-depth", "high",
                       "nvlink", "gb_per_s"):
            assert needle in text

    def test_kind_filter(self):
        code, text = self._run("list-components", "--kind", "preemption")
        assert code == 0
        assert "component kind 'preemption'" in text
        assert "component kind 'scheduler'" not in text
        assert "recompute" in text and "swap" in text

    def test_unknown_kind_fails(self):
        code, _ = self._run("list-components", "--kind", "quantizer")
        assert code == 2
