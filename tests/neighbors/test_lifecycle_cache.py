"""NeighborOrderCache.remove/replace: exact repair, change reporting.

The caches read through a columnar store's feature view (every attribute
but a zero target column), as the online engine's do, over a store whose
first allocation is small enough that the mutations reallocate it.  A
matrix-backed cache is read-only.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.neighbors import NeighborOrderCache
from repro.online import ColumnarTupleStore
from repro.online import store as store_module

RNG = np.random.default_rng(13)


@pytest.fixture(autouse=True)
def small_floor(monkeypatch):
    """A 16-row first store allocation, so the appends reallocate it."""
    monkeypatch.setattr(store_module, "FLOOR", 16)


def _tuples(rows):
    """Feature ``rows`` as store tuples: a zero target attribute appended."""
    rows = np.atleast_2d(rows)
    return np.hstack([rows, np.zeros((rows.shape[0], 1))])


def _store(data):
    store = ColumnarTupleStore(data.shape[1] + 1)
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


def _remove(store, cache, indices):
    store.delete(np.unique(np.asarray(indices, dtype=int)))
    return cache.remove(indices)


def _replace(store, cache, index, row):
    _, slot = store.update(index, _tuples(row)[0])
    return cache.replace(index, slot)


@pytest.mark.parametrize("include_self", [True, False])
@pytest.mark.parametrize("cap", [None, 5, 23, 100])
def test_remove_equals_cold_rebuild(include_self, cap):
    data = RNG.normal(size=(40, 4))
    store = _store(data)
    cache = _cache(store, cap, include_self)
    _remove(store, cache, np.array([3, 17, 0, 39, 21]))
    _assert_cold(cache, store, cap)


@pytest.mark.parametrize("include_self", [True, False])
@pytest.mark.parametrize("cap", [None, 5, 23, 100])
def test_replace_equals_cold_rebuild(include_self, cap):
    data = RNG.normal(size=(40, 4))
    store = _store(data)
    cache = _cache(store, cap, include_self)
    for index in (0, 19, 39):
        _replace(store, cache, index, RNG.normal(size=4))
    _assert_cold(cache, store, cap)


def test_replace_with_duplicate_rows_breaks_ties_by_index():
    data = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0]])
    store = _store(data)
    cache = _cache(store)
    _replace(store, cache, 2, np.array([1.0, 1.0]))  # three identical tuples
    _assert_cold(cache, store)


def test_remove_with_duplicate_rows_keeps_tie_order():
    data = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    store = _store(data)
    cache = _cache(store)
    _remove(store, cache, [2])
    _assert_cold(cache, store)


@pytest.mark.parametrize("cap", [None, 4, 9])
def test_interleaved_lifecycle_equals_cold(cap):
    """Randomized append/remove/replace sequences stay exact throughout."""
    rng = np.random.default_rng(99)
    store = _store(rng.normal(size=(25, 3)))
    cache = _cache(store, cap)
    for _ in range(30):
        op = rng.choice(["append", "remove", "replace"])
        if op == "append" or cache.n_points < 5:
            rows = rng.normal(size=(int(rng.integers(1, 5)), 3))
            cache.append(store.append(_tuples(rows)))
        elif op == "remove":
            idx = rng.choice(
                cache.n_points, size=int(rng.integers(1, 4)), replace=False
            )
            _remove(store, cache, idx)
        else:
            index = int(rng.integers(cache.n_points))
            _replace(store, cache, index, rng.normal(size=3))
        _assert_cold(cache, store, cap)


def test_remove_reports_first_changed_and_index_map():
    data = RNG.normal(size=(30, 3))
    store = _store(data)
    cache = _cache(store, 8)
    before = cache.order_matrix().copy()
    result = _remove(store, cache, [2, 11, 29])
    after = cache.order_matrix()
    assert result.n_before == 30 and result.n_removed == 3
    kept = result.kept_rows()
    assert kept.shape[0] == 27 == result.first_changed.shape[0]
    index_map = result.index_map
    assert (index_map[[2, 11, 29]] == -1).all()
    for new_i, old_i in enumerate(kept):
        first = result.first_changed[new_i]
        # Neighbour identities before the reported position are unchanged...
        np.testing.assert_array_equal(
            index_map[before[old_i, :first]], after[new_i, :first]
        )
        # ...and the reported position itself really did change.
        if first < after.shape[1]:
            assert index_map[before[old_i, first]] != after[new_i, first]
    np.testing.assert_array_equal(
        result.changed_rows(4), np.flatnonzero(result.first_changed < 4)
    )


def test_replace_reports_first_changed():
    data = RNG.normal(size=(30, 3))
    store = _store(data)
    cache = _cache(store, 10)
    before = cache.order_matrix().copy()
    result = _replace(store, cache, 7, RNG.normal(size=3))
    after = cache.order_matrix()
    assert result.index == 7
    for i in range(30):
        first = result.first_changed[i]
        np.testing.assert_array_equal(after[i, :first], before[i, :first])
        if first < after.shape[1]:
            assert after[i, first] != before[i, first]


def test_remove_all_and_empty_remove():
    data = RNG.normal(size=(10, 3))
    store = _store(data)
    cache = _cache(store)
    noop = _remove(store, cache, [])
    assert noop.n_removed == 0 and cache.n_points == 10
    result = _remove(store, cache, np.arange(10))
    assert result.n_removed == 10 and cache.n_points == 0
    assert (result.index_map == -1).all()


def test_remove_duplicate_indices_collapse():
    data = RNG.normal(size=(12, 3))
    store = _store(data)
    cache = _cache(store)
    result = _remove(store, cache, [4, 4, 7])
    assert result.n_removed == 2 and cache.n_points == 10


def test_lifecycle_errors():
    cache = _cache(_store(RNG.normal(size=(10, 3))))
    with pytest.raises(ConfigurationError):
        cache.remove([10])
    with pytest.raises(ConfigurationError):
        cache.remove([-1])
    with pytest.raises(ConfigurationError):
        cache.replace(10, cache.slots[0])


def test_matrix_backed_cache_is_read_only():
    """The cold path's matrix-backed cache reads, but never mutates."""
    cache = NeighborOrderCache(RNG.normal(size=(10, 3)), max_length=4)
    orders = cache.order_matrix().copy()
    for mutate in (
        lambda: cache.append([0]),
        lambda: cache.remove([0]),
        lambda: cache.replace(0, 0),
    ):
        with pytest.raises(ConfigurationError, match="read-only"):
            mutate()
    assert cache.n_points == 10
    np.testing.assert_array_equal(cache.order_matrix(), orders)
    np.testing.assert_array_equal(cache.prefix(3, 2), orders[3, :2])
