"""Tests for the allocator registry and the ``AllocatorSpec`` mini-DSL."""

import pytest

from repro import api
from repro.api import (
    AllocatorSpec,
    Param,
    SpecError,
    UnknownComponentError,
    register_component,
)
from repro.api.registry import (
    _COMPONENT_ALIASES,
    _COMPONENTS,
    component_canonical_name,
)
from repro.allocators.base import BaseAllocator
from repro.gpu.device import GpuDevice
from repro.units import GB, MB


class TestRegistry:
    def test_builtins_registered(self):
        assert api.component_names("allocator") == [
            "caching", "expandable", "gmlake", "native", "vmm-naive",
        ]

    def test_aliases_resolve_to_canonical(self):
        assert component_canonical_name("allocator", "pytorch") == "caching"
        assert api.get_component_info("allocator", "pytorch").name == "caching"

    def test_aliases_are_metadata_not_entries(self):
        # One canonical entry; "pytorch" must not be its own allocator.
        assert "pytorch" not in api.component_registry("allocator")
        assert "pytorch" in api.get_component_info("allocator", "caching").aliases

    def test_unknown_name(self):
        with pytest.raises(UnknownComponentError):
            component_canonical_name("allocator", "tcmalloc")

    def test_param_metadata(self):
        info = api.get_component_info("allocator", "gmlake")
        by_name = {p.name: p for p in info.params}
        assert by_name["chunk_size"].default == 2 * MB
        assert by_name["chunk_size"].type_name == "size"
        assert "stitching" in by_name["enable_stitch"].keys
        assert by_name["max_spool_blocks"].default == 4096

    def test_size_param_unit_keys(self):
        info = api.get_component_info("allocator", "gmlake")
        param, scale = info.find_param("chunk_mb")
        assert param.name == "chunk_size" and scale == MB
        param, scale = info.find_param("chunk_gb")
        assert scale == GB

    def test_introspected_params(self):
        info = api.get_component_info("allocator", "native")
        assert [p.name for p in info.params] == ["op_amplification"]
        assert info.params[0].default == 40

    def test_register_custom_allocator(self):
        class NullAllocator(BaseAllocator):
            """A do-nothing allocator for the registry test."""

            def __init__(self, device, burn_us: float = 1.0):
                super().__init__(device, name="null")
                self.burn_us = burn_us

            @property
            def reserved_bytes(self):
                return self.active_bytes

            def _malloc_impl(self, size):
                return 0x1000, size

            def _free_impl(self, allocation):
                pass

        try:
            register_component(
                "allocator", "null-test", aliases=("nil",))(NullAllocator)
            spec = AllocatorSpec.parse("null-test?burn_us=2.5")
            allocator = spec.build(GpuDevice(capacity=1 * GB))
            assert allocator.burn_us == 2.5
            assert component_canonical_name("allocator", "nil") == "null-test"
        finally:
            _COMPONENTS["allocator"].pop("null-test", None)
            _COMPONENT_ALIASES["allocator"].pop("nil", None)

    def test_double_registration_rejected(self):
        with pytest.raises(ValueError):
            register_component("allocator", "gmlake")(BaseAllocator)

    def test_param_kind_validated(self):
        with pytest.raises(ValueError):
            Param("x", int, 1, kind="complex")


class TestSpecParsing:
    def test_bare_name(self):
        spec = AllocatorSpec.parse("caching")
        assert spec.name == "caching" and spec.params == {}
        assert spec.spec_string() == "caching"

    def test_alias_canonicalized(self):
        assert AllocatorSpec.parse("pytorch").name == "caching"

    def test_unit_suffixed_key(self):
        spec = AllocatorSpec.parse("gmlake?chunk_mb=512")
        assert spec.params["chunk_size"] == 512 * MB

    def test_size_string_value(self):
        spec = AllocatorSpec.parse("gmlake?chunk_size=512MB")
        assert spec.params["chunk_size"] == 512 * MB

    def test_bool_words(self):
        for word, expected in (("off", False), ("on", True),
                               ("false", False), ("1", True)):
            spec = AllocatorSpec.parse(f"gmlake?stitching={word}")
            assert spec.params["enable_stitch"] is expected

    def test_int_alias_and_float(self):
        spec = AllocatorSpec.parse("gmlake?spool=64&va_oversubscription=8.0")
        assert spec.params["max_spool_blocks"] == 64
        assert spec.params["va_oversubscription"] == 8.0

    def test_parse_is_idempotent_on_specs(self):
        spec = AllocatorSpec.parse("gmlake?spool=64")
        assert AllocatorSpec.parse(spec) is spec

    def test_whitespace_tolerated(self):
        assert AllocatorSpec.parse("  caching ").name == "caching"


class TestSpecErrors:
    def test_unknown_allocator_is_keyerror_too(self):
        with pytest.raises(UnknownComponentError):
            AllocatorSpec.parse("tcmalloc")
        with pytest.raises(KeyError):
            AllocatorSpec.parse("tcmalloc?x=1")

    def test_unknown_parameter(self):
        with pytest.raises(SpecError, match="no parameter"):
            AllocatorSpec.parse("gmlake?bogus=1")

    def test_ill_typed_size(self):
        with pytest.raises(SpecError, match="bad value"):
            AllocatorSpec.parse("gmlake?chunk_mb=huge")

    def test_ill_typed_int(self):
        with pytest.raises(SpecError, match="bad value"):
            AllocatorSpec.parse("gmlake?spool=many")

    def test_ill_typed_bool(self):
        with pytest.raises(SpecError, match="bad value"):
            AllocatorSpec.parse("gmlake?stitching=maybe")

    def test_negative_size_rejected(self):
        with pytest.raises(SpecError):
            AllocatorSpec.parse("gmlake?chunk_mb=-4")

    def test_empty_spec(self):
        with pytest.raises(SpecError):
            AllocatorSpec.parse("   ")

    def test_malformed_item(self):
        with pytest.raises(SpecError, match="key=value"):
            AllocatorSpec.parse("gmlake?chunk_mb")

    def test_duplicate_key(self):
        with pytest.raises(SpecError, match="duplicate"):
            AllocatorSpec.parse("gmlake?spool=1&spool=2")

    def test_alias_collision(self):
        with pytest.raises(SpecError, match="alias"):
            AllocatorSpec.parse("gmlake?chunk_mb=4&chunk_size=8MB")

    def test_invalid_config_combination(self):
        # fragmentation_limit below chunk_size violates GMLakeConfig —
        # reported when the spec is constructed, not when it is built.
        with pytest.raises(SpecError, match="fragmentation_limit"):
            AllocatorSpec.parse("gmlake?chunk_mb=64&fragmentation_limit=2MB")

    @pytest.mark.parametrize("text,field", [
        ("gmlake?max_spool_blocks=-1", "max_spool_blocks"),
        ("gmlake?va_oversubscription=0.5", "va_oversubscription"),
    ])
    def test_config_values_rejected_at_parse(self, text, field):
        with pytest.raises(SpecError, match=field):
            AllocatorSpec.parse(text)

    def test_experiment_rejects_a_bad_allocator_before_any_runs(self):
        """Every allocator is validated at spec construction, so the
        first one cannot run to completion before the second one dies."""
        with pytest.raises(SpecError, match="max_spool_blocks"):
            api.ExperimentSpec(
                allocators=["caching", "gmlake?max_spool_blocks=-1"])


class TestSpecRoundTrip:
    CASES = [
        "caching",
        "native?op_amplification=1",
        "vmm-naive?chunk_mb=64",
        "gmlake?chunk_mb=512&stitching=off",
        "gmlake?spool=16&va_oversubscription=4.5&stitch_after_split=false",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_dict_round_trip(self, text):
        spec = AllocatorSpec.parse(text)
        assert AllocatorSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("text", CASES)
    def test_string_round_trip(self, text):
        spec = AllocatorSpec.parse(text)
        assert AllocatorSpec.parse(spec.spec_string()) == spec

    def test_dict_is_json_safe(self):
        import json

        spec = AllocatorSpec.parse("gmlake?chunk_mb=512&stitching=off")
        assert AllocatorSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))) == spec

    def test_from_dict_errors(self):
        with pytest.raises(SpecError):
            AllocatorSpec.from_dict({"params": {}})
        with pytest.raises(SpecError):
            AllocatorSpec.from_dict({"name": "gmlake", "junk": 1})


class TestSpecBuild:
    def test_configured_gmlake(self):
        spec = AllocatorSpec.parse("gmlake?chunk_mb=8&stitching=off")
        allocator = spec.build(GpuDevice(capacity=1 * GB))
        assert allocator.config.chunk_size == 8 * MB
        assert allocator.config.enable_stitch is False

    def test_derived_defaults_follow_chunk_size(self):
        spec = AllocatorSpec.parse("gmlake?chunk_mb=64")
        allocator = spec.build(GpuDevice(capacity=4 * GB))
        assert allocator.config.small_threshold == 64 * MB
        assert allocator.config.fragmentation_limit == 64 * MB

    def test_explicit_pin_beats_derived_default(self):
        spec = AllocatorSpec.parse(
            "gmlake?chunk_mb=8&fragmentation_limit=32MB")
        allocator = spec.build(GpuDevice(capacity=4 * GB))
        assert allocator.config.chunk_size == 8 * MB
        assert allocator.config.fragmentation_limit == 32 * MB

    def test_resolved_params_includes_defaults(self):
        spec = AllocatorSpec.parse("gmlake?spool=16")
        resolved = spec.resolved_params()
        assert resolved["max_spool_blocks"] == 16
        assert resolved["chunk_size"] == 2 * MB  # default

    def test_kwarg_allocators(self):
        native = AllocatorSpec.parse("native?op_amplification=1").build(
            GpuDevice(capacity=1 * GB))
        assert native.op_amplification == 1
        vmm = AllocatorSpec.parse("vmm-naive?chunk_mb=4").build(
            GpuDevice(capacity=1 * GB))
        assert vmm.chunk_size == 4 * MB

    def test_resolve_allocator_callable_passthrough(self):
        sentinel = object()
        assert api.resolve_allocator(lambda device: sentinel,
                                     GpuDevice(capacity=1 * GB)) is sentinel

    def test_spec_label(self):
        assert api.spec_label("gmlake?chunk_mb=4") == "gmlake?chunk_size=4MB"
        assert api.spec_label(lambda device: None) is None
