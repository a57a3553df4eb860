"""Ordering slack in the engine: re-fill counts and resident bytes.

Each attribute state's neighbour cache keeps ``⌈L/4⌉`` slack entries per
row past its cap ``L``.  A row that loses an entry to a delete or an update
compacts into its slack, and re-fills from a fresh distance row only once
its valid length drops below ``L``; appends refill the slack.
``stats["order_refill_rows"]`` counts the re-filled rows and
``memory_stats()["state_order_bytes"]`` the backing arrays, slack included.
"""

import numpy as np
import pytest

from repro import IIMImputer, load_dataset
from repro.data.relation import Relation
from repro.online import OnlineImputationEngine

#: Cap L = 24, so 6 slack entries per row.
PARAMS = dict(k=5, learning="adaptive", stepping=4, max_learning_neighbors=24)


@pytest.fixture(scope="module")
def pool():
    values = load_dataset("asf", size=800).raw
    return values[np.random.default_rng(0).permutation(values.shape[0])]


def _queries(rows):
    """One blanked cell per row, every attribute covered."""
    queries = rows.copy()
    queries[np.arange(rows.shape[0]), np.arange(rows.shape[0]) % rows.shape[1]] = np.nan
    return queries


def _cold(ref, queries):
    return IIMImputer(**PARAMS).fit(Relation(ref)).impute(Relation(queries)).raw


def test_churn_with_more_appends_than_deletes_never_refills(pool):
    rng = np.random.default_rng(1)
    engine = OnlineImputationEngine(model_cache_size=None, **PARAMS)
    ref = pool[:400].copy()
    engine.append(ref)
    fresh = iter(pool[400:700])
    queries = _queries(pool[700:712])
    engine.impute_batch(queries)
    for round_index in range(8):
        if round_index == 2:
            warm = engine.stats["order_refill_rows"]
        rows = np.array([next(fresh) for _ in range(16)])
        engine.append(rows)
        ref = np.vstack([ref, rows])
        for _ in range(2):
            index = int(rng.integers(ref.shape[0]))
            ref[index] = next(fresh)
            engine.update(index, ref[index])
        for _ in range(2):
            index = int(rng.integers(ref.shape[0]))
            engine.delete([index])
            ref = np.delete(ref, index, axis=0)
        online = engine.impute_batch(queries)
    assert engine.stats["order_refill_rows"] == warm
    assert engine.stats["incremental_refreshes"] >= 8 * pool.shape[1]
    np.testing.assert_allclose(online, _cold(ref, queries), rtol=1e-9, atol=0)


def test_delete_storm_drains_the_slack_and_matches_cold_refit(pool):
    engine = OnlineImputationEngine(model_cache_size=None, **PARAMS)
    ref = pool[:300].copy()
    engine.append(ref)
    queries = _queries(pool[700:712])
    engine.impute_batch(queries)
    full = engine.stats["full_refreshes"]
    rng = np.random.default_rng(2)
    for _ in range(4):
        indices = np.unique(rng.integers(0, ref.shape[0], size=30))
        engine.delete(indices)
        ref = np.delete(ref, indices, axis=0)
    online = engine.impute_batch(queries)
    assert engine.stats["full_refreshes"] == full  # replayed, not rebuilt
    assert engine.stats["order_refill_rows"] > 0
    np.testing.assert_allclose(online, _cold(ref, queries), rtol=1e-9, atol=0)


def test_state_order_bytes_counts_the_backing_arrays(pool):
    engine = OnlineImputationEngine(model_cache_size=None, **PARAMS)
    engine.append(pool[:200])
    engine.impute_batch(_queries(pool[700:712]))
    engine.delete([3, 50])  # leaves drained rows with blank slack entries
    engine.impute_batch(_queries(pool[700:712]))
    caches = [engine._states[a].cache for a in engine.cached_attributes()]
    assert len(caches) == pool.shape[1]
    expected = 0
    for cache in caches:
        # The exposed (n, L) view is narrower than what the cache holds.
        assert cache._matrix.shape[1] > cache.order_matrix().shape[1]
        expected += cache._matrix.nbytes + cache._dists.nbytes + cache._valid.nbytes
    assert engine.memory_stats()["state_order_bytes"] == expected
