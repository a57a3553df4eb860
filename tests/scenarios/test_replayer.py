"""Replayer coverage: transports, oracle verification, digest enforcement.

The replayer's contract: any registered spec replays through the direct
engine, the in-process serve loop, or a real TCP socket, and every online
answer matches a cold :class:`~repro.core.iim.IIMImputer` refit over the
surviving store at ``rtol = 1e-9``.  These tests drive small specs through
every transport and pin the failure modes (divergence, digest drift).
"""

import numpy as np
import pytest

from repro import config
from repro.exceptions import ScenarioError
from repro.scenarios import ScenarioSpec, generate_trace, get, replay
from repro.scenarios import replayer as replayer_module

SMALL = ScenarioSpec(
    name="replayer_unit",
    generator="streaming",
    params={"dataset": "sn", "size": 120, "n_rounds": 2,
            "queries_per_round": 5},
    model={"k": 4, "learning": "fixed", "learning_neighbors": 4},
)

SMALL_CHURN = ScenarioSpec(
    name="replayer_unit_churn",
    generator="churn",
    params={"dataset": "sn", "size": 120, "n_rounds": 2,
            "queries_per_round": 5, "updates_per_round": 2,
            "deletes_per_round": 3},
    model={"k": 4, "learning": "fixed", "learning_neighbors": 4},
    engine={"model_cache_size": None},
)


class TestTransports:
    def test_engine_transport_verifies_against_the_cold_oracle(self):
        report = replay(SMALL, transport="engine", isolate_obs=True)
        assert report.verified is True
        assert report.transport == "engine"
        assert report.n_rounds == 2
        assert report.max_abs_diff == 0.0 or report.max_abs_diff < 1e-9
        assert report.trace_digest == generate_trace(SMALL).digest()
        # The replay phases were recorded with percentiles.
        for phase in ("scenario.fit", "scenario.mutate", "scenario.impute",
                      "scenario.cold_refit"):
            summary = report.phase_summaries[phase]
            assert summary["count"] >= 1
            assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_serve_transport_runs_the_full_protocol_path(self):
        report = replay(SMALL_CHURN, transport="serve", isolate_obs=True)
        assert report.verified is True
        assert report.transport == "serve"
        counters = report.session_stats["replayer_unit_churn"]["counters"]
        assert counters["deleted_rows"] == sum(
            step.n_deleted for step in report.steps
        )
        assert counters["updates"] == sum(
            step.n_updated for step in report.steps
        )

    def test_tcp_transport_round_trips_over_a_real_socket(self):
        report = replay(SMALL, transport="tcp", isolate_obs=True)
        assert report.verified is True
        assert report.transport == "tcp"

    def test_auto_transport_picks_serve_for_multi_tenant(self):
        assert (
            replay(SMALL, transport="auto", run_cold=False).transport
            == "engine"
        )
        report = replay("multi_tenant_mix", transport="auto")
        assert report.transport == "serve"
        assert report.verified is True
        sessions = {step.session for step in report.steps}
        assert sessions == {"tenant-steady", "tenant-ood", "tenant-churn"}
        assert set(report.session_stats) == sessions

    def test_transport_knob_sets_the_default(self):
        previous = config.set("scenario_transport", "tcp")
        try:
            assert replay(SMALL, run_cold=False).transport == "tcp"
        finally:
            config.set("scenario_transport", previous)

    def test_unknown_transport_is_rejected(self):
        with pytest.raises(Exception, match="transport"):
            replay(SMALL, transport="carrier-pigeon")


class TestVerification:
    def test_run_cold_false_skips_the_oracle(self):
        report = replay(SMALL, transport="engine", run_cold=False)
        assert report.verified is None
        assert all(np.isnan(step.cold_seconds) for step in report.steps)
        assert all(np.isnan(step.max_abs_diff) for step in report.steps)
        assert np.isfinite(report.steps[0].rms_online)

    def test_divergence_raises_a_typed_error(self, monkeypatch):
        original = replayer_module._EngineDriver.impute

        def skewed(self, session, queries):
            return original(self, session, queries) + 1e-3

        monkeypatch.setattr(replayer_module._EngineDriver, "impute", skewed)
        with pytest.raises(ScenarioError, match="diverged from the cold-refit"):
            replay(SMALL, transport="engine")

    def test_divergence_is_recorded_when_verify_is_off(self, monkeypatch):
        original = replayer_module._EngineDriver.impute

        def skewed(self, session, queries):
            return original(self, session, queries) + 1e-3

        monkeypatch.setattr(replayer_module._EngineDriver, "impute", skewed)
        report = replay(SMALL, transport="engine", verify=False)
        assert report.verified is False
        assert report.max_abs_diff == pytest.approx(1e-3)

    def test_rms_numbers_match_between_online_and_cold(self):
        report = replay(SMALL_CHURN, transport="engine")
        for step in report.steps:
            assert step.rms_online == pytest.approx(step.rms_cold, rel=1e-9)


class TestDigestEnforcement:
    def test_registered_spec_is_checked_against_its_golden_pin(self):
        report = replay(
            get("steady_stream"), transport="engine", run_cold=False,
            check_digest=True,
        )
        assert report.digest_checked is True

    def test_check_digest_false_skips(self):
        report = replay(
            "steady_stream", transport="engine", run_cold=False,
            check_digest=False,
        )
        assert report.digest_checked is False

    def test_drifted_golden_digest_fails_loudly(self, monkeypatch):
        import importlib

        registry_module = importlib.import_module("repro.scenarios.registry")
        monkeypatch.setattr(
            registry_module, "golden_digests",
            lambda: {"steady_stream": "0" * 64},
        )
        with pytest.raises(ScenarioError, match="drifted from its golden"):
            replay("steady_stream", transport="engine", run_cold=False,
                   check_digest=True)

    def test_custom_spec_reusing_a_builtin_name_is_not_held_to_the_pin(self):
        custom = get("steady_stream").with_overrides(seed=555)
        report = replay(custom, transport="engine", run_cold=False,
                        check_digest=True)
        assert report.digest_checked is False

    def test_unregistered_spec_is_never_digest_checked(self):
        report = replay(SMALL, transport="engine", run_cold=False,
                        check_digest=True)
        assert report.digest_checked is False


class TestReportShape:
    def test_as_dict_is_json_serializable_and_complete(self):
        import json

        report = replay(SMALL, transport="engine", isolate_obs=True)
        payload = report.as_dict()
        json.dumps(payload)
        assert payload["scenario"] == "replayer_unit"
        assert payload["verified"] is True
        assert payload["n_rounds"] == len(payload["steps"]) == 2
        assert payload["speedup"] == pytest.approx(
            payload["cold_seconds"] / payload["online_seconds"]
        )
        assert "scenario.impute" in payload["phases"]
        assert payload["steps"][0]["n_queries"] == 5
