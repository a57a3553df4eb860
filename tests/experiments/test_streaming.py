"""Streaming scenario smoke tests (full-scale timing lives in benchmarks/)."""

import numpy as np
import pytest

from repro.experiments import get_profile
from repro.scenarios import ScenarioSpec, replay


def _replay(params, seed=0, learning="adaptive", run_cold=True, **model):
    """Replay a ``streaming`` spec with the smoke profile's IIM parameters."""
    profile = get_profile("smoke")
    model = {"k": profile.default_k, "learning": learning,
             "stepping": profile.iim_stepping,
             "max_learning_neighbors": profile.iim_max_learning_neighbors,
             **model}
    spec = ScenarioSpec(
        name="smoke_stream", generator="streaming",
        params={"dataset": "sn", **params}, model=model,
        engine={"model_cache_size": None}, seed=seed,
    )
    return replay(spec, transport="engine", run_cold=run_cold,
                  check_digest=False)


@pytest.fixture(scope="module")
def smoke_result():
    return _replay({"size": 240, "n_rounds": 4, "queries_per_round": 10},
                   max_learning_neighbors=15)


def test_streaming_replays_every_round(smoke_result):
    steps = smoke_result.steps
    assert len(steps) == 4
    assert steps[-1].n_store == 240
    assert sum(step.n_appended for step in steps) == 240 - int(240 * 0.4)
    assert all(step.n_queries == 10 for step in steps)
    stats = smoke_result.session_stats["smoke_stream"]
    assert stats["counters"]["appended_rows"] == 240


def test_streaming_online_matches_cold(smoke_result):
    """The engine is an optimisation, not an approximation."""
    assert smoke_result.verified is True
    for step in smoke_result.steps:
        np.testing.assert_allclose(step.rms_online, step.rms_cold, rtol=1e-9)
    assert smoke_result.max_rms_gap <= 1e-9 * max(
        step.rms_cold for step in smoke_result.steps
    )


def test_streaming_fixed_learning_runs():
    profile = get_profile("smoke")
    result = _replay(
        {"size": 200, "n_rounds": 3, "queries_per_round": 8}, seed=1,
        learning="fixed", learning_neighbors=profile.default_k, run_cold=False,
    )
    assert len(result.steps) == 3
    assert all(np.isnan(step.rms_cold) for step in result.steps)
    assert all(np.isfinite(step.rms_online) for step in result.steps)
