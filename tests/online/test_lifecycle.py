"""Tuple lifecycle: delete/update equivalence, heavy churn, CLI trace."""

import io

import numpy as np
import pytest

from repro import IIMImputer, load_dataset
from repro.data.relation import Relation
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.online import OnlineImputationEngine


@pytest.fixture(scope="module")
def stream_values():
    return load_dataset("asf", size=320).raw


def _cold_impute(store_rows, queries, **params):
    imputer = IIMImputer(**params).fit(Relation(store_rows))
    return imputer.impute(Relation(queries)).raw


def _make_queries(values, rows, rng, n_missing=1):
    queries = values[rows].copy()
    for r in range(queries.shape[0]):
        cols = rng.choice(queries.shape[1], size=n_missing, replace=False)
        queries[r, cols] = np.nan
    return queries


PARAM_GRID = [
    dict(k=5, learning="fixed", learning_neighbors=7),
    dict(k=5, learning="adaptive", stepping=5, max_learning_neighbors=30),
    dict(
        k=5, learning="adaptive", stepping=5, max_learning_neighbors=30,
        combination="uniform",
    ),
    dict(
        k=5, learning="adaptive", stepping=5, max_learning_neighbors=30,
        combination="distance",
    ),
    dict(
        k=5, learning="adaptive", stepping=7, max_learning_neighbors=30,
        include_global=False,
    ),
]
PARAM_IDS = ["fixed", "adaptive-voting", "adaptive-uniform", "adaptive-distance",
             "adaptive-no-global"]


@pytest.mark.parametrize("params", PARAM_GRID, ids=PARAM_IDS)
@pytest.mark.parametrize("policy", ["lazy", "eager"])
def test_delete_update_match_cold_refit(
    stream_values, params, policy, sync_each_mutation
):
    """Acceptance: interleaved append/update/delete == cold refit (rtol 1e-9),
    whether states catch up at the next impute or after every mutation."""
    values = stream_values
    rng = np.random.default_rng(3)
    engine = OnlineImputationEngine(**params)
    if policy == "eager":
        sync_each_mutation(engine)
    store = values[:150].copy()
    engine.append(store)
    offset = 150
    for step in range(5):
        # One burst of mixed mutations per step, then queries.
        block = values[offset : offset + 20]
        offset += 20
        engine.append(block)
        store = np.vstack([store, block])
        for _ in range(2):
            index = int(rng.integers(store.shape[0]))
            row = store[index] + 0.2 * rng.standard_normal(store.shape[1])
            engine.update(index, row)
            store = store.copy()
            store[index] = row
        removed = rng.choice(store.shape[0], size=7, replace=False)
        engine.delete(removed)
        store = np.delete(store, removed, axis=0)

        queries = _make_queries(values, np.arange(280, 292), rng, n_missing=2)
        online = engine.impute_batch(queries)
        cold = _cold_impute(store, queries, **params)
        np.testing.assert_allclose(online, cold, rtol=1e-9, atol=1e-12)
    np.testing.assert_array_equal(engine.store_relation().raw, store)
    assert engine.stats["deletes"] == 5 and engine.stats["updates"] == 10
    assert engine.stats["incremental_refreshes"] > 0


def test_randomized_churn_trace_matches_cold(stream_values):
    """Property-style: an arbitrary op sequence keeps the engine exact."""
    values = stream_values
    params = dict(k=4, learning="adaptive", stepping=5, max_learning_neighbors=25)
    rng = np.random.default_rng(17)
    engine = OnlineImputationEngine(**params)
    store = values[:120].copy()
    engine.append(store)
    offset = 120
    for step in range(12):
        op = rng.choice(["append", "update", "delete"])
        if op == "append" or store.shape[0] < 60:
            b = int(rng.integers(1, 15))
            block = values[offset : offset + b]
            offset += b
            engine.append(block)
            store = np.vstack([store, block])
        elif op == "update":
            index = int(rng.integers(store.shape[0]))
            row = values[int(rng.integers(values.shape[0]))]
            engine.update(index, row)
            store = store.copy()
            store[index] = row
        else:
            removed = rng.choice(
                store.shape[0], size=int(rng.integers(1, 10)), replace=False
            )
            engine.delete(removed)
            store = np.delete(store, removed, axis=0)
        if step % 3 == 2:
            queries = _make_queries(values, np.arange(300, 310), rng)
            online = engine.impute_batch(queries)
            cold = _cold_impute(store, queries, **params)
            np.testing.assert_allclose(online, cold, rtol=1e-9, atol=1e-12)


def test_heavy_churn_stays_exact(stream_values):
    """A batch that dirties most prefixes still refreshes incrementally to
    the cold answers."""
    values = stream_values
    params = dict(k=4, learning="adaptive", stepping=5, max_learning_neighbors=25)
    rng = np.random.default_rng(8)
    engine = OnlineImputationEngine(**params)
    engine.append(values[:80])
    queries = _make_queries(values, np.arange(300, 308), rng)
    engine.impute_batch(queries)
    full_refreshes = engine.stats["full_refreshes"]
    engine.append(values[80:220])  # large batch: dirties most prefixes
    engine.update(5, values[250])
    engine.delete([0, 1, 2])
    store = np.vstack([values[3:5], values[250:251], values[6:220]])
    online = engine.impute_batch(queries)
    cold = _cold_impute(store, queries, **params)
    np.testing.assert_allclose(online, cold, rtol=1e-9, atol=1e-12)
    assert engine.stats["full_refreshes"] == full_refreshes
    assert engine.stats["hybrid_full_rebuilds"] == 0


def test_heavy_append_refreshes_incrementally(stream_values):
    values = stream_values
    params = dict(k=4, learning="adaptive", stepping=5, max_learning_neighbors=25)
    engine = OnlineImputationEngine(**params)
    engine.append(values[:60])
    queries = values[300:304].copy()
    queries[:, 0] = np.nan
    engine.impute_batch(queries)
    engine.append(values[60:300])  # the store quintuples
    online = engine.impute_batch(queries)
    cold = _cold_impute(values[:300], queries, **params)
    np.testing.assert_allclose(online, cold, rtol=1e-9, atol=1e-12)
    assert engine.stats["hybrid_full_rebuilds"] == 0
    assert engine.stats["incremental_refreshes"] >= 1


def test_delete_to_empty_store_and_resume(stream_values):
    values = stream_values
    params = dict(k=4, learning="fixed", learning_neighbors=5)
    engine = OnlineImputationEngine(**params)
    engine.append(values[:50])
    queries = values[300:305].copy()
    queries[:, 1] = np.nan
    engine.impute_batch(queries)
    engine.delete(np.arange(50))
    assert engine.n_tuples == 0
    assert engine.cached_attributes() == []
    with pytest.raises(NotFittedError):
        engine.impute_batch(queries)
    # Streaming resumes cleanly on the kept schema.
    engine.append(values[50:150])
    online = engine.impute_batch(queries)
    cold = _cold_impute(values[50:150], queries, **params)
    np.testing.assert_allclose(online, cold, rtol=1e-9, atol=1e-12)


def test_lazy_mutations_batch_into_one_refresh(stream_values):
    values = stream_values
    engine = OnlineImputationEngine(k=4, learning="fixed", learning_neighbors=5)
    engine.append(values[:100])
    queries = values[300:305].copy()
    queries[:, 0] = np.nan
    engine.impute_batch(queries)
    refreshes = (
        engine.stats["full_refreshes"] + engine.stats["incremental_refreshes"]
    )
    # A burst of mixed mutations without queries must not refresh at all...
    engine.append(values[100:120])
    engine.update(3, values[200])
    engine.delete([0, 7])
    engine.append(values[120:140])
    assert (
        engine.stats["full_refreshes"] + engine.stats["incremental_refreshes"]
        == refreshes
    )
    # ...and the next imputation folds the whole burst into a single refresh.
    engine.impute_batch(queries)
    assert (
        engine.stats["full_refreshes"] + engine.stats["incremental_refreshes"]
        == refreshes + 1
    )


def test_empty_append_is_a_true_noop(stream_values):
    """Satellite regression: zero-row appends touch no counters or states."""
    values = stream_values
    engine = OnlineImputationEngine(k=4, learning="fixed", learning_neighbors=5)
    engine.append(values[:50])
    queries = values[300:303].copy()
    queries[:, 0] = np.nan
    answer = engine.impute_batch(queries)
    stats_before, version = dict(engine.stats), engine._version
    engine.append(np.empty((0, values.shape[1])))
    assert engine.stats == stats_before
    assert engine._version == version
    assert engine.n_tuples == 50
    # The cached state is still current: the next read refreshes nothing.
    np.testing.assert_array_equal(engine.impute_batch(queries), answer)
    for key in ("full_refreshes", "incremental_refreshes", "rows_refreshed"):
        assert engine.stats[key] == stats_before[key]


def test_empty_delete_is_a_noop(stream_values):
    values = stream_values
    engine = OnlineImputationEngine(k=4, learning="fixed", learning_neighbors=5)
    engine.append(values[:50])
    stats_before, version = dict(engine.stats), engine._version
    engine.delete(np.empty(0, dtype=int))
    assert engine.stats == stats_before and engine.n_tuples == 50
    assert engine._version == version


def test_lifecycle_errors(stream_values):
    values = stream_values
    engine = OnlineImputationEngine(k=3, learning="fixed", learning_neighbors=3)
    with pytest.raises(NotFittedError):
        engine.delete([0])
    with pytest.raises(NotFittedError):
        engine.update(0, values[0])
    engine.append(values[:40])
    with pytest.raises(ConfigurationError):
        engine.delete([40])
    with pytest.raises(ConfigurationError):
        engine.delete([-1])
    with pytest.raises(ConfigurationError):
        engine.update(40, values[0])
    with pytest.raises(DataError):
        engine.update(0, values[0, :-1])  # width mismatch
    bad = values[0].copy()
    bad[1] = np.nan
    with pytest.raises(DataError):
        engine.update(0, bad)


@pytest.mark.parametrize("cell", [np.inf, -np.inf], ids=["inf", "-inf"])
def test_update_rejects_infinite_cells(stream_values, cell):
    values = stream_values
    engine = OnlineImputationEngine(k=3, learning="fixed", learning_neighbors=3)
    engine.append(values[:40])
    query = values[40:41].copy()
    query[0, 1] = np.nan
    answer = engine.impute_batch(query)
    store, version = engine.store.matrix(), engine._version
    bad = values[0].copy()
    bad[1] = cell
    with pytest.raises(DataError, match="infinite"):
        engine.update(0, bad)
    np.testing.assert_array_equal(engine.store.matrix(), store)
    assert engine._version == version and engine.stats["updates"] == 0
    np.testing.assert_array_equal(engine.impute_batch(query), answer)


def test_duplicate_delete_indices_collapse(stream_values):
    values = stream_values
    engine = OnlineImputationEngine(k=3, learning="fixed", learning_neighbors=3)
    engine.append(values[:30])
    engine.delete([4, 4, 9])
    assert engine.n_tuples == 28
    assert engine.stats["deleted_rows"] == 2


def test_statement_trace_cli_roundtrip(tmp_path, stream_values, monkeypatch,
                                      capsys):
    """A statement script run through ``repl`` drives the full lifecycle end
    to end, and ``\\save`` checkpoints the result."""
    from repro.__main__ import main

    values = stream_values

    def cells(row):
        return ", ".join(repr(float(v)) for v in row)

    assignments = ", ".join(
        f"A{j + 1} = {float(v)!r}" for j, v in enumerate(values[50])
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(
        "\\create s k=3 learning=fixed learning_neighbors=4\n"
        + "".join(f"APPEND VALUES ({cells(row)});\n" for row in values[:40])
        + f"UPDATE 3 SET {assignments};\n"
        + "DELETE 0, 5;\n"
        + "\\save snap\n"
    ))
    assert main(["repl", "--artifact-root", str(tmp_path)]) == 0
    assert "error" not in capsys.readouterr().out
    engine = OnlineImputationEngine.load(tmp_path / "snap")
    store = np.delete(values[:40].copy(), [0, 5], axis=0)
    store[2] = values[50]  # index 3 updated, then rows 0 and 5 removed
    np.testing.assert_array_equal(engine.store_relation().raw, store)
    # The replayed engine imputes what a cold refit over the survivors does.
    query_row = values[60].copy()
    query_row[1] = np.nan
    cold = _cold_impute(
        store, query_row[None, :], k=3, learning="fixed", learning_neighbors=4
    )
    np.testing.assert_allclose(
        engine.impute_batch(query_row[None, :]), cold, rtol=1e-9, atol=1e-12
    )
