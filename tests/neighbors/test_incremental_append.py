"""NeighborOrderCache.append: exact merge, change reporting, restore.

The caches read through a columnar store's feature view (every attribute
but a zero target column), as the online engine's do, over shards small
enough that the batches cross shard edges.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.neighbors import NeighborOrderCache
from repro.online import ColumnarTupleStore

RNG = np.random.default_rng(7)
SHARD = 16


def _tuples(rows):
    """Feature ``rows`` as store tuples: a zero target attribute appended."""
    return np.hstack([rows, np.zeros((rows.shape[0], 1))])


def _store(data):
    store = ColumnarTupleStore(data.shape[1] + 1, shard_capacity=SHARD)
    store.append(_tuples(data))
    return store


def _cache(store, cap=None, include_self=True, keep_distances=False):
    return NeighborOrderCache(
        store.feature_view(exclude=store.width - 1),
        include_self=include_self,
        max_length=cap,
        keep_distances=keep_distances,
    )


def _assert_cold(cache, store, cap=None):
    """``cache`` equals a cold cache over the store's live tuples."""
    cold = _cache(store, cap, cache.include_self, keep_distances=True)
    np.testing.assert_array_equal(cache.order_matrix(), cold.order_matrix())
    np.testing.assert_array_equal(cache.order_distances, cold.order_distances)


@pytest.mark.parametrize("include_self", [True, False])
@pytest.mark.parametrize("cap", [None, 5, 23, 100])
def test_append_equals_cold_rebuild(include_self, cap):
    data = RNG.normal(size=(30, 4))
    batches = [RNG.normal(size=(b, 4)) for b in (9, 1, 17)]
    store = _store(data)
    incremental = _cache(store, cap, include_self)
    for batch in batches:
        incremental.append(store.append(_tuples(batch)))
    _assert_cold(incremental, store, cap)
    # Per-row accessors read the merged matrix.
    cold = _cache(store, cap, include_self)
    for index in (0, 17, incremental.n_points - 1):
        np.testing.assert_array_equal(
            incremental.order_of(index), cold.order_of(index)
        )


def test_append_with_duplicate_rows_breaks_ties_by_index():
    data = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    duplicates = np.array([[0.0, 0.0], [1.0, 1.0]])
    store = _store(data)
    incremental = _cache(store)
    incremental.append(store.append(_tuples(duplicates)))
    _assert_cold(incremental, store)


def test_first_changed_reports_prefix_changes():
    data = RNG.normal(size=(40, 3))
    extra = RNG.normal(size=(12, 3))
    store = _store(data)
    cache = _cache(store, 15)
    before = cache.order_matrix().copy()
    result = cache.append(store.append(_tuples(extra)))
    after = cache.order_matrix()
    assert result.n_before == 40 and result.n_appended == 12
    for i in range(40):
        first = result.first_changed[i]
        # Everything before the reported position is unchanged...
        np.testing.assert_array_equal(after[i, :first], before[i, :first])
        # ...and the reported position itself (when within the old length)
        # really did change.
        if first < before.shape[1]:
            assert after[i, first] != before[i, first]
    # changed_rows is the < prefix filter.
    np.testing.assert_array_equal(
        result.changed_rows(5), np.flatnonzero(result.first_changed < 5)
    )


def test_effective_length_grows_back_to_requested_cap():
    data = RNG.normal(size=(6, 3))
    store = _store(data)
    cache = _cache(store, 10)
    assert cache.effective_length() == 6
    cache.append(store.append(_tuples(RNG.normal(size=(8, 3)))))
    assert cache.effective_length() == 10
    _assert_cold(cache, store, 10)


def test_empty_append_is_a_noop():
    data = RNG.normal(size=(10, 3))
    store = _store(data)
    cache = _cache(store)
    before = cache.order_matrix().copy()
    result = cache.append(store.append(np.empty((0, 4))))
    assert result.n_appended == 0
    assert not result.changed_rows(5).size
    np.testing.assert_array_equal(cache.order_matrix(), before)


def test_restore_matrix_roundtrip_and_validation():
    data = RNG.normal(size=(20, 3))
    store = _store(data)
    cache = _cache(store, 8, keep_distances=True)
    orders = cache.order_matrix()
    dists = cache.order_distances
    fresh = _cache(store, 8)
    fresh.restore_matrix(orders, dists)
    np.testing.assert_array_equal(fresh.order_matrix(), orders)
    bad = _cache(store, 7)
    with pytest.raises(ConfigurationError):
        bad.restore_matrix(orders, dists)
