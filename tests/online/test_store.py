"""Tuple store unit tests + growth regressions.

The store's one array must be invisible to every consumer: appends that
reallocate it, freed slots that refill, and exact distance ties must all
produce results bit-identical to the reference (a plain matrix and one
global ``(distance, index)`` lexsort).  Tests parametrised by ``floor``
shrink the store's first allocation to that many rows and append in
floor-sized batches, so the array reallocates several times on small data.
"""

import numpy as np
import pytest

from repro import IIMImputer
from repro.data.relation import Relation
from repro.exceptions import ConfigurationError, DataError
from repro.neighbors import BruteForceNeighbors, NeighborOrderCache
from repro.neighbors.distance import METRICS, get_metric
from repro.online import (
    ColumnarTupleStore,
    OnlineImputationEngine,
    ShardedNeighbors,
)
from repro.online import store as store_module

RNG = np.random.default_rng(42)
METRIC = get_metric("paper_euclidean")


def _reference_topk(queries, data, k):
    distances = METRIC(queries, data)
    order = np.lexsort(
        (np.broadcast_to(np.arange(data.shape[0]), distances.shape), distances),
        axis=1,
    )[:, :k]
    return np.take_along_axis(distances, order, axis=1), order


def _grown_store(monkeypatch, floor, values):
    """A store of ``values`` whose array starts at ``floor`` rows and grows
    as the rows arrive in floor-sized appends."""
    monkeypatch.setattr(store_module, "FLOOR", floor)
    store = ColumnarTupleStore(values.shape[1])
    for start in range(0, values.shape[0], floor):
        store.append(values[start : start + floor])
    return store


# --------------------------------------------------------------------------- #
# ColumnarTupleStore basics
# --------------------------------------------------------------------------- #
def test_append_straddling_shard_edges_round_trips(monkeypatch):
    monkeypatch.setattr(store_module, "FLOOR", 8)
    store = ColumnarTupleStore(3)
    first = RNG.normal(size=(5, 3))
    second = RNG.normal(size=(11, 3))  # overflows the first allocation
    store.append(first)
    store.append(second)
    np.testing.assert_array_equal(store.matrix(), np.vstack([first, second]))
    # Column views gather across the reallocation transparently.
    np.testing.assert_array_equal(
        store.column(1), np.vstack([first, second])[:, 1]
    )


def test_delete_compacts_and_retains_until_release():
    store = ColumnarTupleStore(2)
    values = RNG.normal(size=(10, 2))
    store.append(values)
    retired = store.delete([2, 5, 9])
    np.testing.assert_array_equal(
        store.matrix(), np.delete(values, [2, 5, 9], axis=0)
    )
    # MVCC retention: the retired payloads stay readable by slot...
    np.testing.assert_array_equal(store.rows(retired), values[[2, 5, 9]])
    assert store.n_pending == 3 and store.n_free == 0
    # ...until released, at which point the slots recycle lowest-first.
    store.release(retired)
    assert store.n_pending == 0 and store.n_free == 3
    slots = store.append(RNG.normal(size=(2, 2)))
    assert sorted(slots) == [2, 5]
    assert store.recycled_slots == 2


def test_update_writes_fresh_slot_and_keeps_old_version():
    store = ColumnarTupleStore(2)
    values = RNG.normal(size=(3, 2))
    store.append(values)
    revised = RNG.normal(size=2)
    old_slot, new_slot = store.update(1, revised)
    assert old_slot != new_slot
    np.testing.assert_array_equal(store.matrix()[1], revised)
    np.testing.assert_array_equal(store.rows([old_slot])[0], values[1])


def test_shard_shrinks_to_zero_live_rows_and_refills():
    store = ColumnarTupleStore(2)
    values = RNG.normal(size=(12, 2))
    store.append(values)
    # Empty a run of slots (logical rows 4..7 hold slots 4..7 initially).
    retired = store.delete([4, 5, 6, 7])
    np.testing.assert_array_equal(
        store.matrix(), np.delete(values, [4, 5, 6, 7], axis=0)
    )
    store.release(retired)
    # The emptied slots refill through the free list before a new slot is
    # taken.
    fresh = RNG.normal(size=(4, 2))
    assert store.append(fresh).tolist() == [4, 5, 6, 7]
    assert store.recycled_slots == 4
    np.testing.assert_array_equal(store.matrix()[-4:], fresh)


def test_store_validates_shapes():
    store = ColumnarTupleStore(3)
    with pytest.raises(DataError):
        store.append(RNG.normal(size=(2, 4)))
    store.append(RNG.normal(size=(2, 3)))
    with pytest.raises(DataError):
        store.update(0, RNG.normal(size=4))


def test_all_rows_deleted_store_stays_usable():
    store = ColumnarTupleStore(2)
    store.append(RNG.normal(size=(6, 2)))
    retired = store.delete(np.arange(store.n_live))
    assert store.n_live == 0 and retired.shape[0] == 6
    store.release(retired)
    fresh = RNG.normal(size=(3, 2))
    store.append(fresh)
    np.testing.assert_array_equal(store.matrix(), fresh)


@pytest.mark.parametrize("floor", [4, 64])
def test_gathers_match_the_dense_matrix(monkeypatch, floor):
    """rows()/column() after one allocation or several, holes included."""
    values = RNG.normal(size=(20, 3))
    store = _grown_store(monkeypatch, floor, values)
    store.delete([3, 11])
    live = np.delete(values, [3, 11], axis=0)
    slots = store.live_slots
    np.testing.assert_array_equal(store.rows(slots), live)
    np.testing.assert_array_equal(
        store.rows(slots[::-1], attrs=(2, 0)), live[::-1][:, [2, 0]]
    )
    np.testing.assert_array_equal(store.column(1), live[:, 1])
    assert store.rows(slots[:0]).shape == (0, 3)


# --------------------------------------------------------------------------- #
# StoreFeatureView row indexing follows ndarray semantics
# --------------------------------------------------------------------------- #
@pytest.fixture
def view_and_matrix():
    store = ColumnarTupleStore(4)
    store.append(RNG.normal(size=(13, 4)))
    store.delete([2, 7])  # slot holes: positions != slots
    view = store.feature_view(exclude=1)
    return view, store.matrix()[:, [0, 2, 3]]


@pytest.mark.parametrize("key", [0, 4, -1, -11, np.int64(-3)])
def test_view_int_keys_match_ndarray(view_and_matrix, key):
    view, matrix = view_and_matrix
    np.testing.assert_array_equal(view[key], matrix[key])


@pytest.mark.parametrize("key", [10_000, -12])
def test_view_int_keys_out_of_range_raise(view_and_matrix, key):
    view, _ = view_and_matrix
    with pytest.raises(IndexError):
        view[key]


@pytest.mark.parametrize(
    "key",
    [slice(None), slice(2, 9), slice(None, None, -2), slice(-4, None), slice(5, 2)],
)
def test_view_slices_match_ndarray(view_and_matrix, key):
    view, matrix = view_and_matrix
    np.testing.assert_array_equal(view[key], matrix[key])


@pytest.mark.parametrize(
    "key", [[0, 10, 3], np.array([-1, 0, -1]), np.array([], dtype=int), []]
)
def test_view_int_arrays_match_ndarray(view_and_matrix, key):
    view, matrix = view_and_matrix
    got = view[key]
    assert got.shape == matrix[key].shape
    np.testing.assert_array_equal(got, matrix[key])


def test_view_boolean_masks_select_rows(view_and_matrix):
    view, matrix = view_and_matrix
    mask = np.zeros(view.shape[0], dtype=bool)
    mask[[1, 6, 10]] = True
    np.testing.assert_array_equal(view[mask], matrix[mask])
    np.testing.assert_array_equal(view[list(mask)], matrix[mask])
    assert view[~np.ones_like(mask)].shape == (0, 3)
    with pytest.raises(IndexError):
        view[mask[:-1]]  # a mask must cover every row, as for an ndarray


# --------------------------------------------------------------------------- #
# Distances and the top-K over a view's one block
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("floor", [3, 7, 64])
def test_view_pairwise_matches_monolithic_metric(monkeypatch, floor):
    values = RNG.normal(size=(23, 4))
    store = _grown_store(monkeypatch, floor, values)
    store.delete([1, 8, 15])  # leave slot holes so positions != slots
    view = store.feature_view(exclude=2)
    reference = store.matrix()[:, [0, 1, 3]]
    queries = RNG.normal(size=(5, 3))
    np.testing.assert_array_equal(
        view.pairwise(queries), METRIC(queries, reference)
    )
    np.testing.assert_array_equal(
        view.pairwise(queries[0]), METRIC(queries[0], reference)
    )


@pytest.mark.parametrize("name", sorted(METRICS))
def test_view_pairwise_over_the_kept_block_matches_the_public_metric(name):
    store = ColumnarTupleStore(5)
    store.append(RNG.normal(size=(30, 5)))
    store.delete([2, 11])
    store.update(4, RNG.normal(size=5))
    view = store.feature_view(exclude=1)
    block = view.block()
    queries = RNG.normal(size=(6, 4))
    public = get_metric(name)
    np.testing.assert_array_equal(
        view.pairwise(queries, name), public(queries, block)
    )
    np.testing.assert_array_equal(
        view.pairwise(queries[0], name), public(queries[0], block)
    )


def test_sharded_neighbors_rejects_a_query_of_the_wrong_width():
    store = ColumnarTupleStore(5)
    store.append(RNG.normal(size=(12, 5)))
    searcher = ShardedNeighbors(store.feature_view(exclude=4))
    for query in (np.zeros(5), np.zeros((2, 3))):
        with pytest.raises(DataError, match="but data has 4"):
            searcher.kneighbors(query, 3)
    with pytest.raises(DataError, match="2-dimensional"):
        searcher.kneighbors(np.zeros((1, 2, 4)), 3)
    # The block is trusted, the query is not: no NaN distances come back.
    for cell in (np.nan, np.inf, -np.inf):
        query = np.zeros((2, 4))
        query[1, 2] = cell
        with pytest.raises(DataError, match="NaN or infinite"):
            searcher.kneighbors(query, 3)
        with pytest.raises(DataError, match="NaN or infinite"):
            searcher.kneighbors(query[1], 3)


@pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
def test_the_store_admits_finite_rows_only(cell):
    store = ColumnarTupleStore(3)
    store.append(RNG.normal(size=(4, 3)))
    bad = RNG.normal(size=(2, 3))
    bad[1, 0] = cell
    before = store.matrix()
    with pytest.raises(DataError, match="finite"):
        store.append(bad)
    with pytest.raises(DataError, match="finite"):
        store.update(2, bad[1])
    np.testing.assert_array_equal(store.matrix(), before)


@pytest.mark.parametrize("floor", [2, 5, 16])
def test_sharded_topk_matches_global_lexsort(monkeypatch, floor):
    values = RNG.normal(size=(30, 3))
    store = _grown_store(monkeypatch, floor, values)
    view = store.feature_view(exclude=None)
    queries = RNG.normal(size=(6, 3))
    for k in (1, 4, 11, 30):
        dist, idx = ShardedNeighbors(view).kneighbors(queries, k)
        ref_dist, ref_idx = _reference_topk(queries, values, k)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(dist, ref_dist)


def test_sharded_topk_exact_ties_across_shards():
    """Duplicate rows give exact distance ties: the top-K over the view's
    one block must break them by logical index, like the global sort."""
    base = RNG.normal(size=(4, 3))
    # 16 rows = 4 copies of each duplicate, interleaved.
    values = np.vstack([base[i % 4] for i in range(16)])
    store = ColumnarTupleStore(3)
    store.append(values)
    view = store.feature_view(exclude=None)
    queries = np.vstack([base[0], base[2], RNG.normal(size=3)])
    for k in (1, 3, 7, 16):
        dist, idx = ShardedNeighbors(view).kneighbors(queries, k)
        ref_dist, ref_idx = _reference_topk(queries, values, k)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(dist, ref_dist)


def test_sharded_neighbors_matches_brute_force():
    store = ColumnarTupleStore(5)
    values = RNG.normal(size=(40, 5))
    store.append(values)
    store.delete([0, 13, 26])
    view = store.feature_view(exclude=4)
    reference = store.matrix()[:, :4]
    queries = RNG.normal(size=(7, 4))
    sharded = ShardedNeighbors(view)
    brute = BruteForceNeighbors().fit(reference)
    for k in (1, 5, 20):
        dist_s, idx_s = sharded.kneighbors(queries, k)
        dist_b, idx_b = brute.kneighbors(queries, k)
        np.testing.assert_array_equal(idx_s, idx_b)
        np.testing.assert_array_equal(dist_s, dist_b)
    with pytest.raises(ConfigurationError):
        sharded.kneighbors(queries, 1000)


def test_store_backed_cache_matches_matrix_cache_through_lifecycle(monkeypatch):
    """The reference ordering: after every mutation of a store-backed cache
    (the store array reallocating throughout, retired versions pending), a
    matrix-backed cache built cold over the surviving feature rows has
    identical orderings and distances."""
    width = 4
    monkeypatch.setattr(store_module, "FLOOR", 5)
    store = ColumnarTupleStore(width)
    values = RNG.normal(size=(18, width))
    store.append(values)
    feature_cols = [0, 1, 3]
    view_cache = NeighborOrderCache(
        store.feature_view(exclude=2), max_length=6, keep_distances=True
    )
    rng = np.random.default_rng(9)
    reference = values.copy()
    for _ in range(12):
        kind = rng.choice(["append", "remove", "replace"])
        if kind == "append":
            rows = rng.normal(size=(int(rng.integers(1, 6)), width))
            view_cache.append(store.append(rows))
            reference = np.vstack([reference, rows])
        elif kind == "remove":
            if reference.shape[0] < 10:
                continue
            idx = np.unique(rng.integers(0, reference.shape[0], size=3))
            store.delete(idx)
            view_cache.remove(idx)
            reference = np.delete(reference, idx, axis=0)
        else:
            index = int(rng.integers(reference.shape[0]))
            row = rng.normal(size=width)
            _, new_slot = store.update(index, row)
            view_cache.replace(index, new_slot)
            reference[index] = row
        matrix_cache = NeighborOrderCache(
            reference[:, feature_cols], max_length=6, keep_distances=True
        )
        np.testing.assert_array_equal(
            view_cache.order_matrix(), matrix_cache.order_matrix()
        )
        np.testing.assert_array_equal(
            view_cache.order_distances, matrix_cache.order_distances
        )


def test_growth_keeps_the_versions_a_lagging_state_replays():
    """Growing past the floor copies every allocated slot, pending ones
    included: a lazy state whose view holds retired versions replays them
    after the reallocation and still equals a cold refit."""
    floor = store_module.FLOOR
    width = 4
    values = np.random.default_rng(11).normal(size=(floor + 200, width))
    params = dict(k=4, learning="adaptive", stepping=4, max_learning_neighbors=12)
    engine = OnlineImputationEngine(**params)
    engine.append(values[:120])
    queries = values[-12:].copy()
    queries[np.arange(12), 2 * (np.arange(12) % 2)] = np.nan
    engine.impute_batch(queries)  # two resident states, synced here

    # The states lag from here: an append their replay extends the old
    # view with, then an update and a delete that leave three retired
    # versions pending.
    engine.append(values[120:128])
    retired = engine.store.live_slots[[6, 3, 40]].copy()
    versions = engine.store.rows(retired)
    engine.update(6, values[-20])
    engine.delete([3, 40])
    assert engine.store.n_pending == 3
    reference = values[:128].copy()
    reference[6] = values[-20]
    reference = np.delete(reference, [3, 40], axis=0)

    resident = engine.store.nbytes
    engine.append(values[128 : 128 + floor])  # past the floor: reallocates
    reference = np.vstack([reference, values[128 : 128 + floor]])
    assert engine.store.nbytes > resident + floor * width * 8
    np.testing.assert_array_equal(engine.store.rows(retired), versions)
    np.testing.assert_array_equal(engine.store.matrix(), reference)

    online = engine.impute_batch(queries)
    assert engine.stats["incremental_refreshes"] == 2
    cold = IIMImputer(**params).fit(Relation(reference)).impute(Relation(queries))
    np.testing.assert_allclose(online, cold.raw, rtol=1e-9, atol=1e-12)


def test_release_unheld_keeps_the_pending_slots_a_view_names():
    store = ColumnarTupleStore(3)
    store.append(RNG.normal(size=(8, 3)))
    held = store.live_slots.copy()  # a lagging view's slots
    store.delete([1, 4])
    _, fresh = store.update(0, RNG.normal(size=3))
    _, newer = store.update(0, RNG.normal(size=3))  # retires `fresh`
    assert store.n_pending == 4
    store.release_unheld([held[:5]])
    # Only `fresh` lies outside the named slots.
    assert store.n_pending == 3 and store.n_free == 1
    store.release_unheld([])
    assert store.n_pending == 0 and store.n_free == 4
    store.release_unheld([held])  # nothing pending: a no-op
    assert store.n_free == 4 and newer in store.live_slots
