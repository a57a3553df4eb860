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
def test_engine_matches_cold_refit(stream_values, params, policy):
    """Acceptance: any append sequence == cold IIMImputer refit (rtol 1e-9)."""
    values = stream_values
    rng = np.random.default_rng(0)
    engine = OnlineImputationEngine(refresh_policy=policy, **params)
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
    engine = OnlineImputationEngine(
        refresh_policy="lazy", k=4, learning="fixed", learning_neighbors=5
    )
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


def test_eager_refreshes_on_append(stream_values):
    values = stream_values
    engine = OnlineImputationEngine(
        refresh_policy="eager", k=4, learning="fixed", learning_neighbors=5
    )
    engine.append(values[:100])
    queries = values[300:305].copy()
    queries[:, 0] = np.nan
    engine.impute_batch(queries)
    before = engine.stats["incremental_refreshes"]
    engine.append(values[100:120])
    assert engine.stats["incremental_refreshes"] == before + 1


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
    with pytest.raises(ConfigurationError):
        OnlineImputationEngine(refresh_policy="sometimes", k=3)
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
    previous = config.set("refresh_policy", "eager")
    try:
        engine = OnlineImputationEngine(k=3, learning="fixed", learning_neighbors=3)
        assert engine.refresh_policy == "eager"
    finally:
        config.set("refresh_policy", previous)
    with pytest.raises(ConfigurationError):
        config.set("refresh_policy", "never")
