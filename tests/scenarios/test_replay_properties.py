"""Property-based replay coverage: random specs must verify cold.

Each case samples a random point of the generator parameter space —
arrival process, missingness regime, drift, query mode, churn rates,
model settings — builds a :class:`~repro.scenarios.ScenarioSpec` from it
and replays it with the cold-refit oracle enabled.  The invariants:

* the spec validates and survives a JSON round-trip;
* two generations of the trace are byte-identical;
* every online answer matches the cold refit at ``rtol = 1e-9``;
* online and cold RMS errors agree.

Cases are seeded, so a failure reproduces from its case index alone.
``REPRO_SCENARIO_CASES`` scales the sweep for CI (see
``.github/workflows/ci.yml``).
"""

import os

import pytest

from repro.scenarios import ScenarioSpec, generate_trace, replay

#: Random-case count knob (each case replays online + cold every round).
N_CASES = int(os.environ.get("REPRO_SCENARIO_CASES", "6"))

DATASETS = ("sn", "asf", "ca")
ARRIVALS = ("steady", "bursty", "diurnal")
MISSINGNESS = ("mcar", "mar", "mnar")
QUERY_MODES = ("store", "ood")


def sample_spec(case: int) -> ScenarioSpec:
    """One deterministic random point of the spec parameter space."""
    import numpy as np

    rng = np.random.default_rng(1000 + case)
    generator = "churn" if case % 2 else "streaming"
    params = {
        "dataset": DATASETS[case % len(DATASETS)],
        "size": int(rng.integers(90, 150)),
        "n_rounds": int(rng.integers(2, 4)),
        "initial_fraction": float(rng.uniform(0.3, 0.6)),
        "queries_per_round": int(rng.integers(3, 7)),
        "query_mode": QUERY_MODES[int(rng.integers(len(QUERY_MODES)))],
        "ood_shift": float(rng.uniform(0.5, 3.0)),
        "arrival": ARRIVALS[int(rng.integers(len(ARRIVALS)))],
        "burst_every": int(rng.integers(2, 4)),
        "burst_factor": float(rng.uniform(1.5, 4.0)),
        "period": int(rng.integers(2, 5)),
        "amplitude": float(rng.uniform(0.1, 0.9)),
        "missingness": MISSINGNESS[int(rng.integers(len(MISSINGNESS)))],
        "drift": float(rng.uniform(0.0, 1.5)),
    }
    if generator == "churn":
        params.update(
            updates_per_round=int(rng.integers(0, 4)),
            deletes_per_round=int(rng.integers(0, 5)),
            update_noise=float(rng.uniform(0.0, 0.2)),
        )
        if rng.random() < 0.3:
            params["arrival"] = "adversarial"
            params["storm_every"] = int(rng.integers(2, 4))
            params["storm_factor"] = float(rng.uniform(1.5, 4.0))
    model = {"k": int(rng.integers(3, 6)), "stepping": 10,
             "max_learning_neighbors": 12}
    if rng.random() < 0.5:
        model["learning"] = "fixed"
        model["learning_neighbors"] = model["k"]
    engine = {}
    # The draws of two since-removed engine knobs (the refresh schedule,
    # then a churn-only one); consumed so every other generated spec stays
    # the same.
    if rng.random() < 0.5:
        rng.integers(2)
    if generator == "churn" and rng.random() < 0.5:
        rng.integers(2)
    return ScenarioSpec(
        name=f"property_case_{case}",
        generator=generator,
        params=params,
        model=model,
        engine=engine,
        seed=case,
    )


@pytest.mark.parametrize("case", range(N_CASES))
def test_random_spec_replays_and_matches_the_cold_oracle(case):
    spec = sample_spec(case)

    # The spec round-trips and its trace is deterministic.
    clone = ScenarioSpec.from_json(spec.to_json())
    assert clone.canonical_json() == spec.canonical_json()
    trace = generate_trace(spec)
    assert generate_trace(clone).to_bytes() == trace.to_bytes()

    # The replay verifies against the cold oracle (raises on divergence).
    report = replay(spec, transport="engine", verify=True)
    assert report.verified is True
    assert report.trace_digest == trace.digest()
    assert report.n_rounds == trace.n_rounds
    for step in report.steps:
        assert step.rms_online == pytest.approx(step.rms_cold, rel=1e-9)


@pytest.mark.parametrize("case", range(0, max(2, N_CASES), 2))
def test_random_spec_replays_identically_over_the_serve_loop(case):
    """The wire path answers exactly like the direct engine path."""
    import numpy as np

    spec = sample_spec(case)
    engine_report = replay(spec, transport="engine", run_cold=False)
    serve_report = replay(spec, transport="serve", run_cold=False)
    np.testing.assert_allclose(
        [s.rms_online for s in engine_report.steps],
        [s.rms_online for s in serve_report.steps],
        rtol=1e-9, atol=1e-12,
    )
