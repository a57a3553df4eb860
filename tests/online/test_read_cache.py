"""The version-keyed read path: column means and gathered view blocks.

A served impute reuses the store's column means until the engine's
mutation version moves, and each store view gathers its rows once and
keeps them.  Every test checks that reuse against a fresh recomputation:
a cold ``IIMImputer`` refit (rtol 1e-9), per-column means and brute-force
neighbours (both bit for bit).
"""

import gc
import json
import weakref

import numpy as np
import pytest

from repro import IIMImputer, load_dataset
from repro.api import SessionServer, encode_rows
from repro.data.relation import Relation
from repro.neighbors import BruteForceNeighbors
from repro.neighbors.distance import get_metric
from repro.online import (
    ColumnarTupleStore,
    OnlineImputationEngine,
    ShardedNeighbors,
)

PARAMS = dict(k=5, learning="adaptive", stepping=5, max_learning_neighbors=30)
METRIC = get_metric("paper_euclidean")


@pytest.fixture(scope="module")
def values():
    return load_dataset("asf", size=320).raw


def _queries(values, rows, seed):
    """Rows with two blanked cells each, so the mean pre-fill matters."""
    rng = np.random.default_rng(seed)
    queries = values[rows].copy()
    for row in queries:
        row[rng.choice(queries.shape[1], size=2, replace=False)] = np.nan
    return queries


def _single(values, row, attr):
    query = values[row : row + 1].copy()
    query[0, attr] = np.nan
    return query


def _check_against_cold(engine, queries):
    """Online answers equal a cold refit; the means used equal a recompute."""
    online = engine.impute_batch(queries)
    store = engine.store.matrix()
    cold = IIMImputer(**PARAMS).fit(Relation(store)).impute(Relation(queries))
    np.testing.assert_allclose(online, cold.raw, rtol=1e-9, atol=1e-12)
    version, means = engine._means
    assert version == engine._version
    fresh = [np.ascontiguousarray(store[:, a]).mean() for a in range(store.shape[1])]
    np.testing.assert_array_equal(means, fresh)
    return online


# --------------------------------------------------------------------------- #
# Engine: every mutation kind moves the cached means and views
# --------------------------------------------------------------------------- #
def _append(engine, values, tmp_path):
    engine.append(values[200:230])
    return engine


def _delete(engine, values, tmp_path):
    engine.delete([0, 7, 19, 120])
    return engine


def _update(engine, values, tmp_path):
    engine.update(11, values[240])
    engine.update(90, values[241] + 0.5)
    return engine


def _promote_pending(engine, values, tmp_path):
    pending = values[250:256].copy()
    pending[:, 2] = np.nan
    engine.append(pending, allow_incomplete=True)
    assert engine.promote_pending() == 6
    return engine


def _delete_all_then_append(engine, values, tmp_path):
    engine.delete(np.arange(engine.n_tuples))
    engine.append(values[100:220])
    return engine


def _snapshot_load(engine, values, tmp_path):
    engine.append(values[200:210])
    path = engine.snapshot(tmp_path / "engine")
    return OnlineImputationEngine.load(path)


MUTATIONS = [
    _append, _delete, _update, _promote_pending, _delete_all_then_append,
    _snapshot_load,
]


@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda f: f.__name__[1:])
@pytest.mark.parametrize("policy", ["lazy", "eager"])
def test_reads_after_each_mutation_match_cold_refit(values, tmp_path, mutate, policy):
    engine = OnlineImputationEngine(refresh_policy=policy, **PARAMS)
    engine.append(values[:150])
    queries = _queries(values, np.arange(290, 302), seed=1)
    _check_against_cold(engine, queries)
    for round_index in range(2):
        engine = mutate(engine, values, tmp_path / str(round_index))
        first = _check_against_cold(engine, queries)
        # A second read at the same version reuses everything and must
        # answer bit-identically.
        np.testing.assert_array_equal(engine.impute_batch(queries), first)


# --------------------------------------------------------------------------- #
# Engine: hit and miss counters
# --------------------------------------------------------------------------- #
def _read_counts(engine):
    return engine.stats["read_cache_hits"], engine.stats["read_cache_misses"]


@pytest.mark.parametrize("mutation", ["append", "delete", "update"])
def test_first_read_after_a_mutation_misses_then_reads_hit(values, mutation):
    engine = OnlineImputationEngine(**PARAMS)
    engine.append(values[:150])
    query = _single(values, 290, attr=1)
    engine.impute_batch(query)
    assert _read_counts(engine) == (0, 2)  # means + the new state's view
    for _ in range(3):
        engine.impute_batch(query)
    assert _read_counts(engine) == (6, 2)

    if mutation == "append":
        engine.append(values[200:210])
    elif mutation == "delete":
        engine.delete([3, 40])
    else:
        engine.update(5, values[211])
    engine.impute_batch(query)
    assert _read_counts(engine) == (6, 4)
    for _ in range(3):
        engine.impute_batch(query)
    assert _read_counts(engine) == (12, 4)

    # Another attribute's first read at this version reuses the means but
    # builds (and gathers) its own state.
    engine.impute_batch(_single(values, 291, attr=3))
    assert _read_counts(engine) == (13, 5)


def test_restored_states_gather_on_their_first_read(values, tmp_path):
    engine = OnlineImputationEngine(**PARAMS)
    engine.append(values[:150])
    query = _single(values, 290, attr=1)
    engine.impute_batch(query)
    loaded = OnlineImputationEngine.load(engine.snapshot(tmp_path / "engine"))
    before = _read_counts(loaded)
    loaded.impute_batch(query)
    loaded.impute_batch(query)
    hits, misses = _read_counts(loaded)
    assert (hits - before[0], misses - before[1]) == (2, 2)


def test_complete_queries_touch_no_read_cache(values):
    engine = OnlineImputationEngine(**PARAMS)
    engine.append(values[:150])
    engine.impute_batch(values[200:203])
    assert _read_counts(engine) == (0, 0)


def test_serve_stats_reports_the_counters(values):
    """Through ``OnlineSession.stats()`` to the serve ``stats`` command; a
    session that is never mutated again never misses again."""
    server = SessionServer()

    def ok(**request):
        response = server.handle_line(json.dumps({"v": 1, **request}))
        assert response["ok"], response
        return response["result"]

    ok(cmd="create", session="s", config={"method": "IIM", "mode": "online",
                                           "params": PARAMS})
    ok(cmd="append", session="s", rows=encode_rows(values[:150]))
    rows = [[None if i == attr else float(v) for i, v in enumerate(values[290])]
            for attr in range(values.shape[1])]
    ok(cmd="impute", session="s", rows=rows)
    counters = ok(cmd="stats", session="s")["counters"]
    misses = counters["read_cache_misses"]
    assert misses == 1 + values.shape[1]  # means + one view per attribute
    for row in rows * 3:
        ok(cmd="impute", session="s", rows=[row])
    counters = ok(cmd="stats", session="s")["counters"]
    assert counters["read_cache_misses"] == misses
    assert counters["read_cache_hits"] == 2 * 3 * len(rows)


def test_memory_stats_report_the_gathered_blocks(values):
    engine = OnlineImputationEngine(**PARAMS)
    engine.append(values[:150])
    memory = engine.memory_stats()
    assert memory["state_block_bytes"] == 0
    assert "legacy_state_copy_bytes" not in memory
    engine.impute_batch(_single(values, 290, attr=0))
    engine.impute_batch(_single(values, 290, attr=4))
    n, m = engine.n_tuples, engine.n_attributes
    # Two states, each one (n, m-1) float block.
    assert engine.memory_stats()["state_block_bytes"] == 2 * n * (m - 1) * 8


def test_a_dropped_engine_is_freed_without_the_cycle_collector(values):
    """Resident states do not keep their engine alive: dropping the last
    reference frees the store, orderings and models at once."""
    gc.disable()
    try:
        engine = OnlineImputationEngine(**PARAMS)
        engine.append(values[:150])
        engine.impute_batch(_queries(values, [290, 291], seed=1))
        engine.update(2, values[300])
        engine.impute_batch(_queries(values, [292], seed=2))
        assert len(engine.cached_attributes()) > 1
        dropped = weakref.ref(engine)
        del engine
        assert dropped() is None
    finally:
        gc.enable()


# --------------------------------------------------------------------------- #
# StoreFeatureView: one gather per view
# --------------------------------------------------------------------------- #
@pytest.fixture
def count_rows(monkeypatch):
    """Count ``ColumnarTupleStore.rows`` calls (the store's one gather)."""
    calls = []
    original = ColumnarTupleStore.rows

    def counting(self, slots, attrs=None):
        calls.append(len(slots))
        return original(self, slots, attrs)

    monkeypatch.setattr(ColumnarTupleStore, "rows", counting)
    return calls


def _holed_store(n=90, width=4, seed=0):
    store = ColumnarTupleStore(width)
    store.append(np.random.default_rng(seed).normal(size=(n, width)))
    store.delete([2, 17, 40])  # slot holes, so positions differ from slots
    return store


def test_a_view_gathers_once_across_calls(count_rows):
    store = _holed_store()
    view = store.feature_view(exclude=1)
    queries = np.random.default_rng(1).normal(size=(4, 3))
    assert not view.gathered
    first = view.pairwise(queries)
    gathers = len(count_rows)
    assert gathers == 1
    for _ in range(3):
        np.testing.assert_array_equal(view.pairwise(queries), first)
        ShardedNeighbors(view).kneighbors(queries, 7)
        ShardedNeighbors(view).kneighbors(queries[0], 5)
    assert len(count_rows) == gathers
    reference = store.matrix()[:, [0, 2, 3]]
    np.testing.assert_array_equal(first, METRIC(queries, reference))


def test_kept_blocks_and_slots_are_read_only():
    store = _holed_store()
    view = store.feature_view(exclude=0)
    block = view.block()
    assert not block.flags.writeable
    with pytest.raises(ValueError):
        block[0, 0] = 1.0
    assert not view.slots.flags.writeable
    # The ndarray protocol still hands out fresh, writable arrays.
    for fresh in (view.materialize(), view[:5], np.asarray(view)):
        assert fresh.flags.writeable
    before = view.materialize()
    np.asarray(view)[:] = 0.0
    np.testing.assert_array_equal(view.materialize(), before)


def test_feature_view_owns_a_copy_of_the_slots():
    store = _holed_store()
    slots = store.live_slots.copy()
    view = store.feature_view(exclude=3, slots=slots)
    expected = view.materialize()
    slots[:] = slots[::-1]
    np.testing.assert_array_equal(view.materialize(), expected)


def test_derived_views_gather_their_own(count_rows):
    """A repaired view holds its own block from the start: the parent's
    kept rows, plus the revised and appended rows in one store read."""
    store = _holed_store()
    view = store.feature_view(exclude=2)
    query = np.random.default_rng(2).normal(size=3)
    view.pairwise(query)
    new_slots = store.append(np.random.default_rng(3).normal(size=(5, 4)))
    everything = np.arange(len(view))
    runs = {
        "appended": ((everything, [], [], new_slots), 5),
        "kept": ((everything[::2], [], [], []), 0),
        "revised": ((everything, [4], [new_slots[0]], []), 1),
        "all three": ((everything[1:], [0, 9], new_slots[:2], new_slots[2:]), 5),
    }
    for name, (run, read) in runs.items():
        before = len(count_rows)
        child = view.repaired(*run)
        assert count_rows[before:] == [read], name
        assert child.gathered, name
        np.testing.assert_array_equal(child.block(), child.materialize(), name)
        np.testing.assert_array_equal(
            child.pairwise(query), METRIC(query, child.materialize()), err_msg=name
        )
    assert view.gathered  # the parent keeps its own block


def test_a_repaired_block_equals_a_fresh_gather():
    """Random runs of revised, deleted and appended rows, each derived from
    the last view's block: every block equals a gather from the store."""
    rng = np.random.default_rng(7)
    store = ColumnarTupleStore(5)
    store.append(rng.normal(size=(60, 5)))
    view = store.feature_view(exclude=int(rng.integers(5)))
    for _ in range(40):
        n = len(view)
        named = rng.choice(n, size=int(rng.integers(0, min(8, n - 1))), replace=False)
        split = int(rng.integers(0, named.size + 1))
        revised, deleted = named[:split], np.sort(named[split:])
        fresh = [store.update(int(i), rng.normal(size=5))[1] for i in revised]
        store.delete(deleted)
        appended = store.append(rng.normal(size=(int(rng.integers(0, 6)), 5)))
        kept = np.delete(np.arange(n), deleted)
        moved = np.searchsorted(kept, revised)
        view = view.repaired(kept, moved, fresh, appended)
        np.testing.assert_array_equal(view.slots, store.live_slots)
        np.testing.assert_array_equal(view.block(), view.materialize())
        assert not view.block().flags.writeable


def test_an_old_view_answers_from_its_own_slots_after_update():
    store = _holed_store()
    query = np.random.default_rng(4).normal(size=(3, 3))
    for gathered_first in (False, True):
        view = store.feature_view(exclude=0)
        before = view.materialize()
        if gathered_first:
            view.block()
        old_slot, new_slot = store.update(6, np.full(4, 99.0))
        assert old_slot != new_slot and view.slots[6] == old_slot
        np.testing.assert_array_equal(
            view.pairwise(query), METRIC(query, before)
        )
        assert ShardedNeighbors(view).kneighbors(query, 5)[1].tolist() == (
            BruteForceNeighbors().fit(before).kneighbors(query, 5)[1].tolist()
        )
        fresh = store.feature_view(exclude=0)
        assert fresh.materialize()[6].tolist() == [99.0] * 3


def test_kneighbors_across_mutations_match_brute_force_with_recycled_slots():
    rng = np.random.default_rng(5)
    store = ColumnarTupleStore(5)
    store.append(rng.normal(size=(300, 5)))
    queries = rng.normal(size=(9, 4))
    for step in range(6):
        retired = store.delete(rng.choice(store.n_live, size=20, replace=False))
        index = int(rng.integers(store.n_live))
        old_slot, _ = store.update(index, rng.normal(size=5))
        store.release(np.append(retired, old_slot))
        # Recycled slots refill the holes.
        store.append(rng.normal(size=(25, 5)))
        assert store.recycled_slots > 0
        view = store.feature_view(exclude=step % 5)
        searcher = ShardedNeighbors(view)
        brute = BruteForceNeighbors().fit(np.delete(store.matrix(), step % 5, axis=1))
        for k in (1, 10, 64, 150):
            expected = brute.kneighbors(queries, k)
            for _ in range(2):  # first call gathers, second reuses
                dist, idx = searcher.kneighbors(queries, k)
                np.testing.assert_array_equal(idx, expected[1])
                np.testing.assert_array_equal(dist, expected[0])


def test_maintained_views_match_brute_force_with_recycled_slots(values):
    """The views an engine state gets from its repairs answer like brute
    force over the live store, read after read."""
    engine = OnlineImputationEngine(**PARAMS)
    engine.append(values[:200])
    rng = np.random.default_rng(6)
    target = 2
    query = _single(values, 290, attr=target)
    queries = np.delete(values[290:299], target, axis=1)
    for step in range(6):
        engine.delete(rng.choice(engine.n_tuples, size=9, replace=False))
        engine.update(int(rng.integers(engine.n_tuples)), values[300 + step])
        engine.append(values[200 + 10 * step : 210 + 10 * step])
        engine.impute_batch(query)  # syncs the state onto a new view
        searcher = ShardedNeighbors(engine._states[target].cache.data)
        live = np.delete(engine.store.matrix(), target, axis=1)
        brute = BruteForceNeighbors().fit(live)
        for k in (1, 10, 64, 150):
            expected = brute.kneighbors(queries, k)
            for _ in range(2):
                dist, idx = searcher.kneighbors(queries, k)
                np.testing.assert_array_equal(idx, expected[1])
                np.testing.assert_array_equal(dist, expected[0])
    assert engine.store.recycled_slots > 0
