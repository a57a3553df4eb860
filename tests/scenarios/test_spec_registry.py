"""Unit coverage for scenario specs and the registry.

Specs are the subsystem's contract surface: eager schema validation,
lossless JSON round-trips and a canonical serialization the golden
digests hang off.  The registry is the coverage surface CI enumerates,
so its lookup/registration semantics are pinned here too.
"""

import importlib
import json

import pytest

from repro.exceptions import ReproError, ScenarioError
from repro.scenarios import (
    GENERATOR_SCHEMAS,
    GENERATORS,
    ScenarioSpec,
    builtin_names,
    describe_schema,
    get,
    golden_digests,
    register,
    registry,
)
# The package re-exports the facade object under the submodule's name, so
# reach the module itself through importlib for registry cleanup.
registry_module = importlib.import_module("repro.scenarios.registry")


def make_spec(**overrides):
    payload = dict(
        name="unit", generator="streaming",
        params={"dataset": "sn", "size": 80, "n_rounds": 2,
                "queries_per_round": 4},
    )
    payload.update(overrides)
    return ScenarioSpec(**payload)


class TestSpecValidation:
    def test_defaults_fill_to_the_complete_canonical_form(self):
        spec = make_spec()
        # Every schema key is present after validation, in schema order.
        assert list(spec.params) == list(GENERATOR_SCHEMAS["streaming"])
        assert spec.params["arrival"] == "steady"
        assert spec.params["missingness"] == "mcar"
        assert spec.params["drift"] == 0.0

    def test_scenario_error_is_a_repro_error(self):
        assert issubclass(ScenarioError, ReproError)

    @pytest.mark.parametrize("overrides,fragment", [
        (dict(name=""), "non-empty string name"),
        (dict(generator="nope"), "unknown generator"),
        (dict(seed="0"), "seed must be an integer"),
        (dict(seed=True), "seed must be an integer"),
        (dict(version=0), "positive integer"),
        (dict(description=3), "description must be a string"),
    ])
    def test_top_level_field_validation(self, overrides, fragment):
        with pytest.raises(ScenarioError, match=fragment):
            make_spec(**overrides)

    @pytest.mark.parametrize("params,fragment", [
        ({"bogus": 1}, "unknown parameter"),
        ({"n_rounds": "4"}, "must be int"),
        ({"n_rounds": True}, "must be int"),
        ({"n_rounds": 0}, ">= 1"),
        ({"initial_fraction": 1.5}, "<= 0.99"),
        ({"arrival": "random"}, "one of"),
        ({"missingness": "mar_ish"}, "one of"),
        ({"dataset": None}, "must not be null"),
        ({"size": 2}, ">= 4"),
    ])
    def test_parameter_schema_validation(self, params, fragment):
        base = {"dataset": "sn", "size": 80}
        base.update(params)
        with pytest.raises(ScenarioError, match=fragment):
            ScenarioSpec(name="bad", generator="streaming", params=base)

    def test_churn_extras_rejected_on_streaming(self):
        with pytest.raises(ScenarioError, match="unknown parameter"):
            make_spec(params={"dataset": "sn", "updates_per_round": 3})

    def test_model_params_checked_against_the_imputer_signature(self):
        with pytest.raises(ScenarioError, match="unknown model parameter"):
            make_spec(model={"kk": 10})
        spec = make_spec(model={"k": 5, "learning": "fixed",
                                "learning_neighbors": 5})
        assert spec.model["k"] == 5

    def test_engine_knobs_checked_against_the_serve_contract(self):
        with pytest.raises(ScenarioError, match="unknown engine knob"):
            make_spec(engine={"threads": 4})
        with pytest.raises(ScenarioError, match="unknown engine knob"):
            make_spec(engine={"incremental_fallback_fraction": 0.9})
        with pytest.raises(ScenarioError, match="unknown engine knob"):
            make_spec(engine={"shard_capacity": 4096})
        with pytest.raises(ScenarioError, match="unknown engine knob"):
            make_spec(engine={"journal_capacity": 512})
        spec = make_spec(engine={"refresh_policy": "lazy"})
        assert spec.engine == {"refresh_policy": "lazy"}

    @pytest.mark.parametrize("tenants,fragment", [
        ([], "non-empty 'tenants' list"),
        ("steady_stream", "non-empty 'tenants' list"),
        ([{"scenario": "steady_stream"}], "session-safe 'name'"),
        ([{"name": "bad name!", "scenario": "steady_stream"}],
         "session-safe 'name'"),
        ([{"name": "a", "scenario": "steady_stream"},
          {"name": "a", "scenario": "ood_probe"}], "duplicate tenant name"),
        ([{"name": "a"}], "'scenario' name"),
        ([{"name": "a", "scenario": "steady_stream", "extra": 1}],
         "unknown fields"),
        ([{"name": "a", "scenario": "steady_stream", "seed": True}],
         "seed must be an integer"),
        ([{"name": "a", "scenario": "steady_stream",
           "overrides": {"n_rounds": [1]}}], "JSON scalar"),
    ])
    def test_tenant_validation(self, tenants, fragment):
        with pytest.raises(ScenarioError, match=fragment):
            ScenarioSpec(name="mt", generator="multi_tenant",
                         params={"tenants": tenants})

    def test_tenants_are_required(self):
        with pytest.raises(ScenarioError, match="requires parameter 'tenants'"):
            ScenarioSpec(name="mt", generator="multi_tenant", params={})


class TestSpecSerialization:
    def test_json_round_trip_is_lossless(self):
        spec = make_spec(
            model={"k": 4}, engine={"refresh_policy": "eager"}, seed=17,
            version=2, description="round-trip fixture",
        )
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.canonical_json() == spec.canonical_json()

    def test_every_builtin_round_trips(self):
        for name in registry.list():
            spec = get(name)
            clone = ScenarioSpec.from_json(spec.to_json(indent=2))
            assert clone.canonical_json() == spec.canonical_json(), name

    def test_canonical_json_is_key_order_independent(self):
        a = make_spec(params={"dataset": "sn", "size": 80, "n_rounds": 2})
        b = make_spec(params={"n_rounds": 2, "size": 80, "dataset": "sn"})
        assert a.canonical_json() == b.canonical_json()

    def test_from_dict_rejects_unknown_fields_and_missing_generator(self):
        with pytest.raises(ScenarioError, match="unknown scenario spec"):
            ScenarioSpec.from_dict({"generator": "streaming", "extra": 1})
        with pytest.raises(ScenarioError, match="'generator' field"):
            ScenarioSpec.from_dict({"name": "x"})

    def test_from_json_rejects_malformed_text(self):
        with pytest.raises(ScenarioError, match="malformed scenario JSON"):
            ScenarioSpec.from_json("{not json")

    def test_with_overrides_revalidates(self):
        spec = make_spec()
        bumped = spec.with_overrides(seed=42)
        assert bumped.seed == 42
        assert spec.seed == 0  # the original is untouched
        with pytest.raises(ScenarioError):
            spec.with_overrides(generator="nope")


class TestRegistry:
    def test_at_least_eight_builtins_cover_the_generator_space(self):
        names = builtin_names()
        assert len(names) >= 8
        generators = {get(name).generator for name in names}
        assert generators == set(GENERATORS)
        arrivals = {
            get(name).params.get("arrival")
            for name in names if get(name).generator != "multi_tenant"
        }
        assert {"steady", "bursty", "diurnal", "adversarial"} <= arrivals
        regimes = {
            get(name).params.get("missingness")
            for name in names if get(name).generator != "multi_tenant"
        }
        assert {"mcar", "mar", "mnar"} <= regimes

    def test_list_is_sorted_and_get_names_the_alternatives(self):
        assert registry.list() == sorted(registry.list())
        with pytest.raises(ScenarioError, match="steady_stream"):
            get("no_such_scenario")

    def test_register_rejects_duplicates_unless_replaced(self):
        spec = make_spec(name="unit_register_probe")
        try:
            register(spec)
            assert "unit_register_probe" in registry.list()
            with pytest.raises(ScenarioError, match="already registered"):
                register(make_spec(name="unit_register_probe", seed=1))
            replaced = register(
                make_spec(name="unit_register_probe", seed=1), replace=True
            )
            assert get("unit_register_probe").seed == replaced.seed == 1
        finally:
            registry_module._REGISTRY.pop("unit_register_probe", None)

    def test_register_rejects_non_specs(self):
        with pytest.raises(ScenarioError, match="ScenarioSpec"):
            register({"name": "dict"})

    def test_golden_digests_cover_exactly_the_builtins(self):
        digests = golden_digests()
        assert sorted(digests) == sorted(builtin_names())
        assert all(
            isinstance(d, str) and len(d) == 64 for d in digests.values()
        )


class TestDescribeSchema:
    def test_rows_carry_types_defaults_and_constraints(self):
        rows = {row["param"]: row for row in describe_schema("churn")}
        assert rows["n_rounds"]["default"] == 4
        assert rows["arrival"]["choices"] == list(
            ("steady", "bursty", "diurnal", "adversarial")
        )
        assert rows["initial_fraction"]["min"] == 0.01
        assert rows["storm_factor"]["min"] == 1.0

    def test_multi_tenant_schema_marks_tenants_required(self):
        rows = {row["param"]: row for row in describe_schema("multi_tenant")}
        assert rows["tenants"]["required"] is True

    def test_unknown_generator_raises(self):
        with pytest.raises(ScenarioError, match="unknown generator"):
            describe_schema("nope")

    def test_rows_are_json_serializable(self):
        for generator in GENERATORS:
            json.dumps(describe_schema(generator))
