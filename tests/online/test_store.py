"""Columnar store unit tests + shard-boundary regressions.

The sharded store must be invisible to every consumer: mutation batches
that straddle shard edges, shards that shrink to zero live rows, and
distance ties that span shard boundaries must all produce results
bit-identical to the unsharded reference (a plain matrix and one global
``(distance, index)`` lexsort).
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DataError
from repro.neighbors import BruteForceNeighbors, NeighborOrderCache
from repro.neighbors.distance import get_metric
from repro.online import (
    ColumnarTupleStore,
    MutationJournal,
    ShardedNeighbors,
    sharded_topk,
)

RNG = np.random.default_rng(42)
METRIC = get_metric("paper_euclidean")


def _reference_topk(queries, data, k):
    distances = METRIC(queries, data)
    order = np.lexsort(
        (np.broadcast_to(np.arange(data.shape[0]), distances.shape), distances),
        axis=1,
    )[:, :k]
    return np.take_along_axis(distances, order, axis=1), order


# --------------------------------------------------------------------------- #
# ColumnarTupleStore basics
# --------------------------------------------------------------------------- #
def test_append_straddling_shard_edges_round_trips():
    store = ColumnarTupleStore(3, shard_capacity=8)
    first = RNG.normal(size=(5, 3))
    second = RNG.normal(size=(11, 3))  # crosses the first shard edge
    store.append(first)
    store.append(second)
    assert store.n_shards == 2
    np.testing.assert_array_equal(store.matrix(), np.vstack([first, second]))
    # Column views gather across the shard boundary transparently.
    np.testing.assert_array_equal(
        store.column(1), np.vstack([first, second])[:, 1]
    )


def test_delete_compacts_and_retains_until_release():
    store = ColumnarTupleStore(2, shard_capacity=4)
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
    store = ColumnarTupleStore(2, shard_capacity=4)
    values = RNG.normal(size=(3, 2))
    store.append(values)
    revised = RNG.normal(size=2)
    old_slot, new_slot = store.update(1, revised)
    assert old_slot != new_slot
    np.testing.assert_array_equal(store.matrix()[1], revised)
    np.testing.assert_array_equal(store.rows([old_slot])[0], values[1])


def test_shard_shrinks_to_zero_live_rows_and_refills():
    store = ColumnarTupleStore(2, shard_capacity=4)
    values = RNG.normal(size=(12, 2))
    store.append(values)
    # Empty the middle shard (logical rows 4..7 hold slots 4..7 initially).
    retired = store.delete([4, 5, 6, 7])
    assert store.live_rows_per_shard().tolist() == [4, 0, 4]
    np.testing.assert_array_equal(
        store.matrix(), np.delete(values, [4, 5, 6, 7], axis=0)
    )
    store.release(retired)
    # The emptied shard refills through the free list before a new shard
    # is allocated.
    fresh = RNG.normal(size=(4, 2))
    store.append(fresh)
    assert store.n_shards == 3
    assert store.live_rows_per_shard().tolist() == [4, 4, 4]
    np.testing.assert_array_equal(store.matrix()[-4:], fresh)


def test_store_validates_shapes():
    store = ColumnarTupleStore(3, shard_capacity=4)
    with pytest.raises(DataError):
        store.append(RNG.normal(size=(2, 4)))
    store.append(RNG.normal(size=(2, 3)))
    with pytest.raises(DataError):
        store.update(0, RNG.normal(size=4))


def test_all_rows_deleted_store_stays_usable():
    store = ColumnarTupleStore(2, shard_capacity=4)
    store.append(RNG.normal(size=(6, 2)))
    retired = store.clear_live()
    assert store.n_live == 0 and retired.shape[0] == 6
    store.release(retired)
    fresh = RNG.normal(size=(3, 2))
    store.append(fresh)
    np.testing.assert_array_equal(store.matrix(), fresh)


@pytest.mark.parametrize("shard_capacity", [4, 64])
def test_gathers_match_the_dense_matrix(shard_capacity):
    """rows()/column() with one shard or several, holes included."""
    store = ColumnarTupleStore(3, shard_capacity=shard_capacity)
    values = RNG.normal(size=(20, 3))
    store.append(values)
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
    store = ColumnarTupleStore(4, shard_capacity=5)
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
# Per-shard distance kernels and the cross-shard top-K merge
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("shard_capacity", [3, 7, 64])
def test_view_pairwise_matches_monolithic_metric(shard_capacity):
    store = ColumnarTupleStore(4, shard_capacity=shard_capacity)
    values = RNG.normal(size=(23, 4))
    store.append(values)
    store.delete([1, 8, 15])  # leave slot holes so positions != slots
    view = store.feature_view(exclude=2)
    reference = store.matrix()[:, [0, 1, 3]]
    queries = RNG.normal(size=(5, 3))
    np.testing.assert_array_equal(
        view.pairwise(queries, METRIC), METRIC(queries, reference)
    )
    np.testing.assert_array_equal(
        view.pairwise(queries[0], METRIC), METRIC(queries[0], reference)
    )


@pytest.mark.parametrize("shard_capacity", [2, 5, 16])
def test_sharded_topk_matches_global_lexsort(shard_capacity):
    store = ColumnarTupleStore(3, shard_capacity=shard_capacity)
    values = RNG.normal(size=(30, 3))
    store.append(values)
    view = store.feature_view(exclude=None)
    queries = RNG.normal(size=(6, 3))
    for k in (1, 4, 11, 30):
        dist, idx = sharded_topk(view, queries, METRIC, k)
        ref_dist, ref_idx = _reference_topk(queries, values, k)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(dist, ref_dist)


def test_sharded_topk_exact_ties_across_shards():
    """Duplicate rows land in different shards: the merge must break the
    resulting exact distance ties by logical index, like the global sort."""
    base = RNG.normal(size=(4, 3))
    # 16 rows = 4 copies of each duplicate, interleaved so every shard of
    # capacity 3 holds copies of different rows.
    values = np.vstack([base[i % 4] for i in range(16)])
    store = ColumnarTupleStore(3, shard_capacity=3)
    store.append(values)
    view = store.feature_view(exclude=None)
    queries = np.vstack([base[0], base[2], RNG.normal(size=3)])
    for k in (1, 3, 7, 16):
        dist, idx = sharded_topk(view, queries, METRIC, k)
        ref_dist, ref_idx = _reference_topk(queries, values, k)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(dist, ref_dist)


def test_sharded_neighbors_matches_brute_force():
    store = ColumnarTupleStore(5, shard_capacity=6)
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


def test_store_backed_cache_matches_matrix_cache_through_lifecycle():
    """The unsharded reference ordering: one matrix-backed cache, one
    store-backed cache, identical mutations — identical orderings, reports
    and distances at every step (shard edges crossed throughout)."""
    width = 4
    store = ColumnarTupleStore(width, shard_capacity=5)
    values = RNG.normal(size=(18, width))
    store.append(values)
    feature_cols = [0, 1, 3]
    view_cache = NeighborOrderCache(
        store.feature_view(exclude=2), max_length=6, keep_distances=True
    )
    matrix_cache = NeighborOrderCache(
        values[:, feature_cols], max_length=6, keep_distances=True
    )
    rng = np.random.default_rng(9)
    reference = values.copy()
    for _ in range(12):
        kind = rng.choice(["append", "remove", "replace"])
        if kind == "append":
            rows = rng.normal(size=(int(rng.integers(1, 6)), width))
            slots = store.append(rows)
            r_view = view_cache.append(slots=slots)
            r_matrix = matrix_cache.append(rows[:, feature_cols])
            reference = np.vstack([reference, rows])
            np.testing.assert_array_equal(
                r_view.first_changed, r_matrix.first_changed
            )
        elif kind == "remove":
            if reference.shape[0] < 10:
                continue
            idx = np.unique(rng.integers(0, reference.shape[0], size=3))
            store.delete(idx)
            r_view = view_cache.remove(idx)
            r_matrix = matrix_cache.remove(idx)
            reference = np.delete(reference, idx, axis=0)
            np.testing.assert_array_equal(
                r_view.first_changed, r_matrix.first_changed
            )
        else:
            index = int(rng.integers(reference.shape[0]))
            row = rng.normal(size=width)
            _, new_slot = store.update(index, row)
            r_view = view_cache.replace(index, slot=new_slot)
            r_matrix = matrix_cache.replace(index, row[feature_cols])
            reference[index] = row
            np.testing.assert_array_equal(
                r_view.first_changed, r_matrix.first_changed
            )
        np.testing.assert_array_equal(
            view_cache.order_matrix(), matrix_cache.order_matrix()
        )
        np.testing.assert_array_equal(
            view_cache.order_distances, matrix_cache.order_distances
        )


# --------------------------------------------------------------------------- #
# MutationJournal ring semantics
# --------------------------------------------------------------------------- #
def test_journal_ring_spills_and_floor_advances():
    journal = MutationJournal(capacity=3)
    for version in range(1, 6):
        spilled = journal.record(version, "append", np.array([version]))
        assert len(journal) <= 3
    assert journal.spills == 2
    assert journal.floor == 2
    assert journal.since(1) is None  # older than the floor: spilled
    assert [op for op, _ in journal.since(2)] == ["append"] * 3
    dropped = journal.prune(4)
    assert [entry[0] for entry in dropped] == [3, 4]
    assert journal.since(4) is not None and len(journal.since(4)) == 1


def test_journal_memory_is_bounded_by_capacity():
    journal = MutationJournal(capacity=8)
    for version in range(1, 200):
        journal.record(version, "append", np.arange(64, dtype=np.int64))
    assert len(journal) == 8
    assert journal.nbytes <= 8 * 64 * 8
