"""Online engine: equivalence with cold refits, cache behaviour, errors."""

import numpy as np
import pytest

from repro import IIMImputer, config, load_dataset
from repro.data.relation import Relation, Schema
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.online import OnlineImputationEngine


@pytest.fixture(scope="module")
def stream_values():
    return load_dataset("asf", size=320).raw


def _cold_impute(schema_width, store_rows, queries, **params):
    relation = Relation(store_rows)
    imputer = IIMImputer(**params).fit(relation)
    return imputer.impute(Relation(queries)).raw


def _make_queries(values, rows, rng, n_missing=1):
    queries = values[rows].copy()
    for r in range(queries.shape[0]):
        cols = rng.choice(queries.shape[1], size=n_missing, replace=False)
        queries[r, cols] = np.nan
    return queries


@pytest.mark.parametrize(
    "params",
    [
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
    ],
    ids=["fixed", "adaptive-voting", "adaptive-uniform", "adaptive-distance",
         "adaptive-no-global"],
)
@pytest.mark.parametrize("policy", ["lazy", "eager"])
def test_engine_matches_cold_refit(stream_values, params, policy, sync_each_mutation):
    """Acceptance: any append sequence == cold IIMImputer refit (rtol 1e-9),
    whether states catch up at the next impute or after every mutation."""
    values = stream_values
    rng = np.random.default_rng(0)
    engine = OnlineImputationEngine(**params)
    if policy == "eager":
        sync_each_mutation(engine)
    offset = 120
    engine.append(values[:offset])
    for batch in (40, 1, 25, 60):
        engine.append(values[offset : offset + batch])
        offset += batch
        queries = _make_queries(values, np.arange(280, 295), rng, n_missing=2)
        online = engine.impute_batch(queries)
        cold = _cold_impute(values.shape[1], values[:offset], queries, **params)
        np.testing.assert_allclose(online, cold, rtol=1e-9, atol=1e-12)
    assert engine.stats["incremental_refreshes"] > 0


COLD_VARIANTS = {
    "fixed": dict(k=4, learning="fixed", learning_neighbors=6),
    "adaptive": dict(k=4, learning="adaptive", stepping=3, max_learning_neighbors=12),
    "no-global": dict(
        k=4, learning="adaptive", stepping=3, max_learning_neighbors=12,
        include_global=False,
    ),
    "straightforward": dict(
        k=4, learning="adaptive", stepping=3, max_learning_neighbors=12,
        incremental=False,
    ),
    # Every ℓ up to n: the grid reaches n, so the global candidate is off.
    "uncapped": dict(k=4, learning="adaptive", stepping=1),
}


@pytest.mark.parametrize(
    "n", [1, 2, 3, 9, 60],
    ids=["1-row", "2-rows", "3-rows", "below-cap", "above-cap"],
)
@pytest.mark.parametrize("variant", list(COLD_VARIANTS))
def test_a_fresh_state_equals_the_cold_functions(
    stream_values, variant, n, assert_cold_state
):
    """A state's first build runs the refresh's kernels with every row
    dirty; its arrays equal the cold learning functions' bit for bit, over
    a matrix-backed ordering with the state's cap (duplicate rows tie).
    The warm-up sizes clamp the validation k to n - 1, and switch the
    global candidate on (a one-candidate grid below n) or off (n = 1)."""
    params = COLD_VARIANTS[variant]
    store = stream_values[:n].copy()
    half = n // 2
    duplicates = min(3, half)
    store[half : half + duplicates] = store[:duplicates]
    engine = OnlineImputationEngine(model_cache_size=None, **params)
    engine.append(store)
    query = store[:1].copy()
    query[0, 1:3] = np.nan
    engine.impute_batch(query)
    for target_index in (1, 2):
        assert_cold_state(engine._states[target_index], store)


def test_engine_warmup_from_tiny_store(stream_values):
    """Structure changes (growing candidate grid, clamped k) stay exact."""
    values = stream_values
    rng = np.random.default_rng(1)
    params = dict(k=4, learning="adaptive", stepping=3, max_learning_neighbors=25)
    engine = OnlineImputationEngine(**params)
    engine.append(values[:3])
    offset = 3
    for batch in (2, 5, 10, 30, 60):
        engine.append(values[offset : offset + batch])
        offset += batch
        queries = _make_queries(values, np.arange(280, 290), rng)
        online = engine.impute_batch(queries)
        cold = _cold_impute(values.shape[1], values[:offset], queries, **params)
        np.testing.assert_allclose(online, cold, rtol=1e-9, atol=1e-12)
    assert engine.stats["full_refreshes"] > 0


def test_lazy_appends_batch_into_one_refresh(stream_values):
    values = stream_values
    engine = OnlineImputationEngine(k=4, learning="fixed", learning_neighbors=5)
    engine.append(values[:100])
    queries = values[300:305].copy()
    queries[:, 0] = np.nan
    engine.impute_batch(queries)
    refreshes = (
        engine.stats["full_refreshes"] + engine.stats["incremental_refreshes"]
    )
    # Three consecutive appends without queries must not refresh at all...
    engine.append(values[100:120]).append(values[120:140]).append(values[140:160])
    assert (
        engine.stats["full_refreshes"] + engine.stats["incremental_refreshes"]
        == refreshes
    )
    # ...and the next imputation folds them into a single refresh.
    engine.impute_batch(queries)
    assert (
        engine.stats["full_refreshes"] + engine.stats["incremental_refreshes"]
        == refreshes + 1
    )


def test_lru_eviction(stream_values):
    values = stream_values
    engine = OnlineImputationEngine(
        model_cache_size=2, k=4, learning="fixed", learning_neighbors=5
    )
    engine.append(values[:150])
    width = values.shape[1]
    assert width >= 3
    for target in range(3):
        queries = values[300:304].copy()
        queries[:, target] = np.nan
        engine.impute_batch(queries)
    assert len(engine.cached_attributes()) == 2
    assert engine.stats["cache_evictions"] == 1
    # An evicted state is rebuilt on demand and still serves exact answers.
    queries = values[300:304].copy()
    queries[:, 0] = np.nan
    online = engine.impute_batch(queries)
    cold = _cold_impute(
        width, values[:150], queries, k=4, learning="fixed", learning_neighbors=5
    )
    np.testing.assert_allclose(online, cold, rtol=1e-9, atol=1e-12)


def test_from_relation_and_relation_roundtrip(stream_values):
    relation = Relation(stream_values[:100], name="stream")
    engine = OnlineImputationEngine.from_relation(
        relation, k=3, learning="fixed", learning_neighbors=4
    )
    assert engine.n_tuples == 100
    dirty = stream_values[200:206].copy()
    dirty[:, 1] = np.nan
    imputed = engine.impute_relation(Relation(dirty))
    assert imputed.n_missing_cells == 0
    np.testing.assert_array_equal(
        imputed.raw, engine.impute_batch(dirty)
    )
    store = engine.store_relation()
    np.testing.assert_array_equal(store.raw, stream_values[:100])


def test_impute_checks_the_relation_schema(stream_values):
    """A relation whose attributes differ from the engine schema in order
    is rejected on the read path, exactly like on append."""
    engine = OnlineImputationEngine.from_relation(
        Relation(stream_values[:100]), k=3, learning="fixed", learning_neighbors=4
    )
    dirty = stream_values[200:206].copy()
    dirty[:, 1] = np.nan
    swapped = Schema(engine.schema.attributes[::-1])
    with pytest.raises(DataError, match="schema does not match"):
        engine.impute_batch(Relation(dirty, swapped))
    with pytest.raises(DataError, match="schema does not match"):
        engine.impute_relation(Relation(dirty, swapped))
    with pytest.raises(DataError, match="schema does not match"):
        engine.append(Relation(stream_values[100:103], swapped))
    # A matching relation answers exactly like its raw values.
    expected = engine.impute_batch(dirty)
    matching = Relation(dirty, engine.schema)
    np.testing.assert_array_equal(engine.impute_batch(matching), expected)
    np.testing.assert_array_equal(engine.impute_relation(matching).raw, expected)


def test_engine_errors(stream_values):
    values = stream_values
    with pytest.raises(ConfigurationError):
        OnlineImputationEngine(IIMImputer(k=3), k=5)  # both instance and kwargs
    with pytest.raises(TypeError, match="refresh_policy"):
        OnlineImputationEngine(refresh_policy="lazy", k=3)  # a removed knob
    with pytest.raises(ConfigurationError):
        OnlineImputationEngine(model_cache_size=-1, k=3)

    engine = OnlineImputationEngine(k=3, learning="fixed", learning_neighbors=3)
    with pytest.raises(NotFittedError):
        engine.impute_batch(values[:2])
    incomplete = values[:5].copy()
    incomplete[0, 0] = np.nan
    with pytest.raises(DataError):
        engine.append(incomplete)
    engine.append(values[:50])
    with pytest.raises(DataError):
        engine.append(values[:5, :-1])  # width mismatch
    with pytest.raises(DataError):
        engine.impute_batch(values[:5, :-1])


@pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["inf", "-inf"])
@pytest.mark.parametrize("missing", [False, True], ids=["complete", "missing"])
def test_infinite_query_cells_are_rejected_before_any_work(
    stream_values, value, missing
):
    """An infinite cell is a DataError naming the value, raised before the
    complete-row early return and before a lagging state syncs."""
    engine = OnlineImputationEngine(k=3, learning="fixed", learning_neighbors=3)
    engine.append(stream_values[:50])
    warm = stream_values[50:52].copy()
    warm[:, 1] = np.nan
    engine.impute_batch(warm)
    engine.append(stream_values[52:60])  # every state now lags
    stats = dict(engine.stats)
    query = stream_values[60:62].copy()
    query[1, 0] = value
    if missing:
        query[1, 2] = np.nan
    with pytest.raises(DataError, match=f"{value} in attribute 0"):
        engine.impute_batch(query)
    assert engine.stats == stats
    assert not any(state.current for state in engine._states.values())
    # The engine still answers finite queries, bit-identical to a twin that
    # never saw the bad one.
    twin = OnlineImputationEngine(k=3, learning="fixed", learning_neighbors=3)
    twin.append(stream_values[:50])
    twin.impute_batch(warm)
    twin.append(stream_values[52:60])
    query[1, 0] = stream_values[61, 0]
    np.testing.assert_array_equal(
        engine.impute_batch(query), twin.impute_batch(query)
    )


def test_complete_queries_pass_through(stream_values):
    engine = OnlineImputationEngine(k=3, learning="fixed", learning_neighbors=3)
    engine.append(stream_values[:50])
    block = stream_values[60:65]
    np.testing.assert_array_equal(engine.impute_batch(block), block)


def test_online_config_knobs_roundtrip():
    previous = config.set("model_cache_size", 3)
    try:
        engine = OnlineImputationEngine(k=3, learning="fixed", learning_neighbors=3)
        assert engine.model_cache_size == 3
        assert config.set("model_cache_size", "none") == 3
        assert OnlineImputationEngine(
            k=3, learning="fixed", learning_neighbors=3
        ).model_cache_size is None
    finally:
        config.set("model_cache_size", previous)
    assert config.ENGINE_KNOBS == ("model_cache_size",)
    with pytest.raises(ConfigurationError, match="unknown knob"):
        config.set("refresh_policy", "lazy")


# --------------------------------------------------------------------------- #
# Why a state rebuilt: full_refreshes split by reason
# --------------------------------------------------------------------------- #
REASONS = ("full_refreshes_no_state", "full_refreshes_emptied",
           "full_refreshes_structure")
GROWING = dict(k=4, learning="adaptive", stepping=5, max_learning_neighbors=30)


def _blank(values, row, attr):
    query = values[row : row + 1].copy()
    query[0, attr] = np.nan
    return query


def _reasons(engine):
    counts = {reason: engine.stats[reason] for reason in REASONS}
    assert engine.stats["full_refreshes"] == sum(counts.values())
    return counts


def test_a_state_built_on_first_use_or_after_eviction_has_no_state(stream_values):
    engine = OnlineImputationEngine(model_cache_size=1, **GROWING)
    engine.append(stream_values[:60])
    for attr in (0, 1, 0):  # the third read follows attribute 0's eviction
        engine.impute_batch(_blank(stream_values, 300, attr))
    assert engine.stats["cache_evictions"] == 2
    assert _reasons(engine) == {
        "full_refreshes_no_state": 3, "full_refreshes_emptied": 0,
        "full_refreshes_structure": 0,
    }


def test_a_structure_change_at_the_end_or_at_the_removal_rebuilds(stream_values):
    engine = OnlineImputationEngine(**GROWING)
    engine.append(stream_values[:12])
    query = _blank(stream_values, 300, 0)
    engine.impute_batch(query)
    # The candidate grid still grows below max_learning_neighbors...
    engine.append(stream_values[12:40])
    engine.impute_batch(query)
    # ...so a replay whose removal passes below it rebuilds too, though
    # the final size is back where it was.
    engine.delete(np.arange(20))
    engine.append(stream_values[40:60])
    engine.impute_batch(query)
    # A replay that keeps the structure does not rebuild.
    engine.update(3, stream_values[60])
    engine.impute_batch(query)
    assert _reasons(engine) == {
        "full_refreshes_no_state": 1, "full_refreshes_emptied": 0,
        "full_refreshes_structure": 2,
    }
    assert engine.stats["incremental_refreshes"] == 1


def test_a_state_dropped_by_an_emptied_store_rebuilds_as_emptied(stream_values):
    engine = OnlineImputationEngine(**GROWING)
    engine.append(stream_values[:60])
    query = _blank(stream_values, 300, 2)
    engine.impute_batch(query)
    engine.delete(np.arange(60))
    engine.append(stream_values[60:120])
    online = engine.impute_batch(query)
    engine.update(0, stream_values[130])
    engine.impute_batch(query)  # replays: the emptying is counted once
    assert _reasons(engine) == {
        "full_refreshes_no_state": 1, "full_refreshes_emptied": 1,
        "full_refreshes_structure": 0,
    }
    cold = _cold_impute(6, stream_values[60:120], query, **GROWING)
    np.testing.assert_allclose(online, cold, rtol=1e-9, atol=1e-12)
    # Every row the state synced deleted, but the store never empty: the
    # slot diff pairs the new rows with the vanished ones and replays them.
    engine.append(stream_values[140:200])
    engine.delete(np.arange(60))
    online = engine.impute_batch(query)
    assert _reasons(engine)["full_refreshes_emptied"] == 1
    cold = _cold_impute(6, stream_values[140:200], query, **GROWING)
    np.testing.assert_allclose(online, cold, rtol=1e-9, atol=1e-12)


def test_rebuild_reasons_persist_in_snapshots(stream_values, tmp_path):
    engine = OnlineImputationEngine(**GROWING)
    engine.append(stream_values[:12])
    engine.impute_batch(_blank(stream_values, 300, 0))
    engine.append(stream_values[12:40])
    engine.impute_batch(_blank(stream_values, 300, 0))
    restored = OnlineImputationEngine.load(engine.snapshot(tmp_path / "engine"))
    assert _reasons(restored) == _reasons(engine) == {
        "full_refreshes_no_state": 1, "full_refreshes_emptied": 0,
        "full_refreshes_structure": 1,
    }
