"""Targeted lifecycle repairs: only the orderings a mutation can change move.

``append``, ``remove`` and ``replace`` rewrite just the rows whose capped
ordering a mutation can reach and leave every other row as it was.  These
tests drive store-backed caches, with recycled slots, through seeded
mutation sequences where most rows stay untouched, and check every step
against a cold rebuild over the same store:

* orderings and distances are bit-identical (``assert_array_equal``);
* ``first_changed`` keeps its contract: the prefix before the reported
  position is unchanged and the reported position really changed;
* exact boundary ties (a tuple at exactly a row's last distance) enter a
  row only when their index sorts before the last entry's.
"""

import numpy as np
import pytest

from repro.neighbors import NeighborOrderCache
from repro.neighbors.distance import get_metric
from repro.online import ColumnarTupleStore

WIDTH = 4
EXCLUDE = 2
FEATURES = [0, 1, 3]
METRIC = get_metric("paper_euclidean")


def _rows(rng, count, grid):
    """Random tuples; on a small integer grid, exact distance ties abound."""
    if grid:
        return rng.integers(0, 6, size=(count, WIDTH)).astype(float)
    return rng.normal(size=(count, WIDTH))


def _cache(store, cap, include_self=True, slots=None):
    return NeighborOrderCache(
        store.feature_view(exclude=EXCLUDE, slots=slots),
        include_self=include_self,
        max_length=cap,
        keep_distances=True,
    )


def _assert_cold(cache, store, cap):
    cold = _cache(store, cap, cache.include_self, slots=cache.slots)
    np.testing.assert_array_equal(cache.order_matrix(), cold.order_matrix())
    np.testing.assert_array_equal(cache.order_distances, cold.order_distances)


def _assert_first_changed(before, after, first_changed):
    """``before``: the old orderings in the new index space, padded with
    ``-1`` (or truncated) to the new width."""
    same = after == before
    columns = np.arange(after.shape[1])
    assert same[columns < first_changed[:, None]].all()
    moved = np.flatnonzero(first_changed < after.shape[1])
    assert not same[moved, first_changed[moved]].any()


def _to_width(before, width):
    """``before`` padded with ``-1``, or truncated, to ``width`` columns."""
    padded = np.full((before.shape[0], width), -1, dtype=int)
    keep = min(width, before.shape[1])
    padded[:, :keep] = before[:, :keep]
    return padded


@pytest.mark.parametrize("include_self", [True, False])
@pytest.mark.parametrize("grid", [False, True])
@pytest.mark.parametrize("cap", [8, 25])
def test_seeded_lifecycle_matches_cold_rebuild(cap, grid, include_self):
    rng = np.random.default_rng(cap * 10 + grid)
    store = ColumnarTupleStore(WIDTH)
    store.append(_rows(rng, 400, grid))
    cache = _cache(store, cap, include_self)
    cache.order_matrix()
    untouched = 0
    for _ in range(40):
        before = cache.order_matrix().copy()
        kind = rng.choice(["append", "remove", "replace"])
        if kind == "append":
            slots = store.append(_rows(rng, int(rng.integers(1, 13)), grid))
            result = cache.append(slots=slots)
            after = cache.order_matrix()[: result.n_before]
            _assert_first_changed(
                _to_width(before, after.shape[1]), after, result.first_changed
            )
        elif kind == "remove":
            indices = np.unique(rng.integers(0, cache.n_points, size=8))
            store.release(store.delete(indices))  # slots recycle at once
            result = cache.remove(indices)
            after = cache.order_matrix()
            renumbered = result.index_map[before[result.kept_rows()]]
            _assert_first_changed(
                _to_width(renumbered, after.shape[1]), after, result.first_changed
            )
        else:
            index = int(rng.integers(cache.n_points))
            old_slot, new_slot = store.update(index, _rows(rng, 1, grid)[0])
            result = cache.replace(index, slot=new_slot)
            store.release([old_slot])
            _assert_first_changed(before, cache.order_matrix(), result.first_changed)
        untouched += int((result.first_changed == cache.effective_length()).sum())
        _assert_cold(cache, store, cap)
    assert store.recycled_slots > 0
    assert untouched > 0


@pytest.fixture
def grid_cache():
    """An integer-grid store (exact arithmetic) and its cap-8 cache."""
    rng = np.random.default_rng(5)
    store = ColumnarTupleStore(WIDTH)
    store.append(_rows(rng, 400, grid=True))
    cache = _cache(store, 8)
    cache.order_matrix()
    return store, cache


def _reflection(store, cache, row, neighbour):
    """A full tuple whose features mirror ``neighbour`` through ``row``:
    on integer data, exactly at the same distance from ``row``."""
    features = store.matrix()[:, FEATURES]
    mirrored = np.zeros(WIDTH)
    mirrored[FEATURES] = 2 * features[row] - features[neighbour]
    last = cache.order_distances[row, -1]
    assert METRIC(mirrored[FEATURES], features[row][None])[0] == last
    return mirrored


def test_revised_tuple_at_the_last_distance_enters_with_a_smaller_index(grid_cache):
    store, cache = grid_cache
    orders = cache.order_matrix()
    row = int(np.argmax(orders[:, -1]))
    last = int(orders[row, -1])
    index = next(j for j in range(last) if j != row and j not in orders[row])
    mirrored_row = _reflection(store, cache, row, last)
    _, slot = store.update(index, mirrored_row)
    before = orders.copy()
    result = cache.replace(index, slot=slot)
    after = cache.order_matrix()
    assert index in after[row] and last not in after[row]
    assert result.first_changed[row] < after.shape[1]
    _assert_first_changed(before, after, result.first_changed)
    _assert_cold(cache, store, 8)


def test_revised_tuple_at_the_last_distance_stays_out_with_a_larger_index(grid_cache):
    store, cache = grid_cache
    orders = cache.order_matrix()
    row = int(np.argmin(orders[:, -1]))
    last = int(orders[row, -1])
    index = next(
        j for j in range(cache.n_points - 1, last, -1)
        if j != row and j not in orders[row]
    )
    mirrored_row = _reflection(store, cache, row, last)
    _, slot = store.update(index, mirrored_row)
    before = orders.copy()
    result = cache.replace(index, slot=slot)
    after = cache.order_matrix()
    np.testing.assert_array_equal(after[row], before[row])
    assert result.first_changed[row] == after.shape[1]
    _assert_first_changed(before, after, result.first_changed)
    _assert_cold(cache, store, 8)


def test_appended_tuple_at_the_last_distance_stays_out(grid_cache):
    store, cache = grid_cache
    orders = cache.order_matrix()
    row = int(np.argmax(orders[:, -1]))
    mirrored_row = _reflection(store, cache, row, int(orders[row, -1]))
    before = orders.copy()
    result = cache.append(slots=store.append(mirrored_row[None]))
    after = cache.order_matrix()
    np.testing.assert_array_equal(after[row], before[row])
    assert result.first_changed[row] == after.shape[1]
    _assert_first_changed(before, after[: result.n_before], result.first_changed)
    _assert_cold(cache, store, 8)


# --------------------------------------------------------------------------- #
# Update runs and drained slack
# --------------------------------------------------------------------------- #
def _assert_slack_exact(cache, store, cap):
    """Beyond the exposed columns: every row's valid entries equal a cold
    rebuild's, the rest of the row is blank, and no row is shorter than
    ``cap``."""
    cold = _cache(store, cap, cache.include_self, slots=cache.slots)
    cold.order_matrix()
    valid = cache._valid
    assert (valid >= cache.effective_length()).all()
    inside = np.arange(cache._matrix.shape[1]) < valid[:, None]
    np.testing.assert_array_equal(cache._matrix[inside], cold._matrix[inside])
    np.testing.assert_array_equal(cache._dists[inside], cold._dists[inside])
    assert (cache._matrix[~inside] == -1).all()
    assert np.isinf(cache._dists[~inside]).all()


def _update_run(rng, store, indices, grid):
    """Revise ``indices`` in the store one at a time; returns the new slots."""
    slots = []
    for index in indices:
        old_slot, new_slot = store.update(int(index), _rows(rng, 1, grid)[0])
        store.release([old_slot])
        slots.append(new_slot)
    return np.array(slots)


@pytest.mark.parametrize("include_self", [True, False])
@pytest.mark.parametrize("grid", [False, True])
def test_replace_of_an_update_run_matches_cold_rebuild(grid, include_self):
    rng = np.random.default_rng(40 + grid)
    store = ColumnarTupleStore(WIDTH)
    store.append(_rows(rng, 300, grid))
    cache = _cache(store, 8, include_self)
    cache.order_matrix()
    for size in range(2, 9):
        before = cache.order_matrix().copy()
        indices = rng.choice(cache.n_points, size - 1, replace=False)
        # The first index is revised twice: its last slot must win.
        indices = np.append(indices, indices[0])
        slots = _update_run(rng, store, indices, grid)
        result = cache.replace(indices, slot=slots)
        np.testing.assert_array_equal(result.index, np.unique(indices))
        np.testing.assert_array_equal(cache.slots, store.live_slots)
        _assert_first_changed(before, cache.order_matrix(), result.first_changed)
        _assert_cold(cache, store, 8)
        _assert_slack_exact(cache, store, 8)


def test_update_run_at_the_last_distance_breaks_ties_by_index(grid_cache):
    """Two revised tuples land exactly at a row's last exposed distance in
    one run: the one whose index sorts before the last entry enters, the
    other stays out of the exposed prefix."""
    store, cache = grid_cache
    orders = cache.order_matrix()
    row = int(np.argmin(np.abs(orders[:, -1] - cache.n_points // 2)))
    last = int(orders[row, -1])
    smaller = next(j for j in range(last) if j != row and j not in orders[row])
    larger = next(
        j for j in range(cache.n_points - 1, last, -1)
        if j != row and j not in orders[row]
    )
    mirrored_row = _reflection(store, cache, row, last)
    slots = [store.update(j, mirrored_row)[1] for j in (larger, smaller)]
    before = orders.copy()
    result = cache.replace([larger, smaller], slot=slots)
    after = cache.order_matrix()
    assert smaller in after[row]
    assert larger not in after[row] and last not in after[row]
    assert result.first_changed[row] < after.shape[1]
    _assert_first_changed(before, after, result.first_changed)
    _assert_cold(cache, store, 8)
    _assert_slack_exact(cache, store, 8)


@pytest.mark.parametrize("include_self", [True, False])
def test_delete_storm_drains_the_slack_and_refills(include_self):
    """Cap 8 keeps 2 slack entries per row; storms of deletes with no
    appends drain rows below the cap, which re-fill from fresh distances."""
    rng = np.random.default_rng(8)
    store = ColumnarTupleStore(WIDTH)
    store.append(_rows(rng, 300, grid=False))
    cache = _cache(store, 8, include_self)
    cache.order_matrix()
    assert cache._matrix.shape[1] == 10
    for _ in range(12):
        before = cache.order_matrix().copy()
        indices = np.unique(rng.integers(0, cache.n_points, size=16))
        store.release(store.delete(indices))
        result = cache.remove(indices)
        renumbered = result.index_map[before[result.kept_rows()]]
        _assert_first_changed(
            _to_width(renumbered, 8), cache.order_matrix(), result.first_changed
        )
        _assert_cold(cache, store, 8)
        _assert_slack_exact(cache, store, 8)
    assert cache.refilled_rows > 0


@pytest.mark.parametrize("grid", [False, True])
@pytest.mark.parametrize("cap", [8, 25])
def test_lifecycle_with_update_runs_keeps_the_slack_exact(cap, grid):
    """Appends refill the slack that deletes and update runs drain; after
    every step the whole backing row, slack included, is exact."""
    rng = np.random.default_rng(cap + 3 * grid)
    store = ColumnarTupleStore(WIDTH)
    store.append(_rows(rng, 200, grid))
    cache = _cache(store, cap, include_self=bool(rng.integers(2)))
    cache.order_matrix()
    for _ in range(30):
        kind = rng.choice(["append", "remove", "replace"])
        if kind == "append":
            cache.append(store.append(_rows(rng, int(rng.integers(1, 20)), grid)))
        elif kind == "remove":
            indices = np.unique(rng.integers(0, cache.n_points, size=6))
            store.release(store.delete(indices))
            cache.remove(indices)
        else:
            indices = rng.integers(0, cache.n_points, size=int(rng.integers(2, 9)))
            cache.replace(indices, slot=_update_run(rng, store, indices, grid))
        _assert_cold(cache, store, cap)
        _assert_slack_exact(cache, store, cap)


@pytest.mark.parametrize("cap", [None, 64])
def test_rows_holding_every_tuple_take_every_candidate(cap):
    """Uncapped, or capped above the store size, every row holds every
    tuple: appends and update runs merge all their candidates and never
    re-fill a row."""
    rng = np.random.default_rng(21)
    store = ColumnarTupleStore(WIDTH)
    store.append(_rows(rng, 30, grid=False))
    cache = _cache(store, cap)
    cache.order_matrix()
    for _ in range(3):
        cache.append(store.append(_rows(rng, 5, grid=False)))
        indices = rng.integers(0, cache.n_points, size=4)
        slots = _update_run(rng, store, indices, grid=False)
        # The last revision moves far off: the farthest tuple of every row.
        old_slot, slots[-1] = store.update(
            int(indices[-1]), 100 + _rows(rng, 1, grid=False)[0]
        )
        store.release([old_slot])
        cache.replace(indices, slot=slots)
        _assert_cold(cache, store, cap)
        _assert_slack_exact(cache, store, cap)
    assert cache.refilled_rows == 0
