"""The streaming and churn generators reproduce the legacy harnesses.

The online benchmark's historical numbers came from two hand-written
harnesses (an initial store, then rounds of appends, or of appends,
updates and deletes, followed by queries).  Their traces are now the
``streaming`` and ``churn`` scenario generators, so replaying those specs
must not change a single number.  These tests re-derive the legacy
harnesses inline (their exact rng consumption order) and assert that
:func:`~repro.scenarios.replay` produces the same rounds and the same RMS
errors at fixed seeds.
"""

import numpy as np
import pytest

from repro.api import MutationOp, OnlineSession
from repro.core.iim import IIMImputer
from repro.data import load_dataset
from repro.data.relation import Relation
from repro.exceptions import ExperimentError
from repro.metrics import rms_error
from repro.scenarios import ScenarioSpec, replay

SIZE = 160
N_ROUNDS = 3
QUERIES = 6
IIM = {"k": 4, "learning": "fixed", "learning_neighbors": 4,
       "stepping": 5, "max_learning_neighbors": 12}
ENGINE = {"model_cache_size": None}


@pytest.fixture(scope="module")
def values():
    return load_dataset("sn", size=SIZE).raw


def _cold_rms(store, queries, blanked, truth):
    cold = IIMImputer(**IIM).fit(Relation(store.copy())).impute(
        Relation(queries.copy())
    ).raw
    arange = np.arange(queries.shape[0])
    return rms_error(truth, cold[arange, blanked])


def legacy_streaming(values, seed):
    """The pre-port streaming harness, rng call for rng call."""
    initial = int(values.shape[0] * 0.4)
    remaining = values.shape[0] - initial
    batch = remaining // N_ROUNDS
    session = OnlineSession(**ENGINE, **IIM)
    session.fit(values[:initial])
    rng = np.random.default_rng(seed)
    offset = initial
    rounds = []
    for t in range(N_ROUNDS):
        size = batch if t < N_ROUNDS - 1 else remaining - batch * (N_ROUNDS - 1)
        store = values[:offset]
        rows = rng.choice(store.shape[0], size=QUERIES, replace=False)
        queries = store[rows].copy()
        blanked = rng.integers(0, values.shape[1], size=QUERIES)
        arange = np.arange(QUERIES)
        truth = queries[arange, blanked].copy()
        queries[arange, blanked] = np.nan
        session.mutate([MutationOp.append(values[offset:offset + size])])
        online = np.asarray(session.impute(queries), dtype=float)
        rounds.append({
            "n_store": offset + size,
            "n_appended": size,
            "rms_online": rms_error(truth, online[arange, blanked]),
            "rms_cold": _cold_rms(values[:offset + size], queries, blanked,
                                  truth),
        })
        offset += size
    return rounds


def legacy_churn(values, seed, updates=2, deletes=3, noise=0.05):
    """The pre-port churn harness, rng call for rng call."""
    initial = int(values.shape[0] * 0.4)
    remaining = values.shape[0] - initial
    batch = remaining // N_ROUNDS
    column_stds = values.std(axis=0)
    column_stds[column_stds == 0] = 1.0
    session = OnlineSession(**ENGINE, **IIM)
    store = values[:initial].copy()
    session.fit(store)
    rng = np.random.default_rng(seed)
    offset = initial
    rounds = []
    for t in range(N_ROUNDS):
        size = batch if t < N_ROUNDS - 1 else remaining - batch * (N_ROUNDS - 1)
        block = values[offset:offset + size]

        n_updates = min(updates, store.shape[0])
        update_targets = rng.choice(
            store.shape[0], size=n_updates, replace=False
        )
        update_rows = store[update_targets] + noise * column_stds[
            None, :
        ] * rng.standard_normal((n_updates, store.shape[1]))
        store = np.vstack([store, block])
        store[update_targets] = update_rows

        n_deletes = min(deletes, store.shape[0] - 2)
        delete_targets = np.sort(
            rng.choice(store.shape[0], size=n_deletes, replace=False)
        )
        keep = np.ones(store.shape[0], dtype=bool)
        keep[delete_targets] = False
        store = store[keep]

        rows = rng.choice(store.shape[0], size=QUERIES, replace=False)
        queries = store[rows].copy()
        blanked = rng.integers(0, values.shape[1], size=QUERIES)
        arange = np.arange(QUERIES)
        truth = queries[arange, blanked].copy()
        queries[arange, blanked] = np.nan

        ops = [MutationOp.append(block)]
        ops.extend(
            MutationOp.update(int(target), row)
            for target, row in zip(update_targets, update_rows)
        )
        ops.append(MutationOp.delete(delete_targets))
        session.mutate(ops)
        online = np.asarray(session.impute(queries), dtype=float)
        rounds.append({
            "n_store": store.shape[0],
            "n_appended": size,
            "n_updated": n_updates,
            "n_deleted": n_deletes,
            "rms_online": rms_error(truth, online[arange, blanked]),
            "rms_cold": _cold_rms(store, queries, blanked, truth),
        })
        offset += size
    return rounds


def _replay(generator, seed=0, run_cold=True, **params):
    spec = ScenarioSpec(
        name=f"legacy_{generator}",
        generator=generator,
        params={"dataset": "sn", "size": SIZE, "n_rounds": N_ROUNDS,
                "queries_per_round": QUERIES, **params},
        model=IIM,
        engine=ENGINE,
        seed=seed,
    )
    return replay(spec, transport="engine", verify=False, run_cold=run_cold,
                  check_digest=False)


@pytest.mark.parametrize("seed", [0, 3])
def test_run_streaming_matches_the_legacy_harness(values, seed):
    expected = legacy_streaming(values, seed)
    steps = _replay("streaming", seed).steps
    assert len(steps) == N_ROUNDS
    for got, want in zip(steps, expected):
        assert got.n_store == want["n_store"]
        assert got.n_appended == want["n_appended"]
        # Bit-for-bit: the generator must not change a single historical number.
        assert got.rms_online == want["rms_online"]
        assert got.rms_cold == want["rms_cold"]


@pytest.mark.parametrize("seed", [0, 3])
def test_run_churn_matches_the_legacy_harness(values, seed):
    expected = legacy_churn(values, seed)
    steps = _replay("churn", seed, updates_per_round=2,
                    deletes_per_round=3).steps
    assert len(steps) == N_ROUNDS
    for got, want in zip(steps, expected):
        assert got.n_store == want["n_store"]
        assert got.n_appended == want["n_appended"]
        assert got.n_updated == want["n_updated"]
        assert got.n_deleted == want["n_deleted"]
        assert got.rms_online == want["rms_online"]
        assert got.rms_cold == want["rms_cold"]


def test_wrappers_reject_degenerate_configs_with_the_legacy_error():
    """Degenerate shapes keep the legacy error contract: they raise
    ExperimentError (ScenarioError subclasses it)."""
    with pytest.raises(ExperimentError):
        _replay("streaming", size=100, initial_fraction=0.999)
    with pytest.raises(ExperimentError):
        _replay("streaming", size=100, n_rounds=1000)


def test_wrapper_engine_stats_flow_through():
    report = _replay("streaming", run_cold=False)
    stats = report.session_stats["legacy_streaming"]
    assert stats["counters"]["appended_rows"] == SIZE
    assert stats["counters"]["impute_batches"] == N_ROUNDS
    assert stats["memory"]
