"""Coalesced update runs: one repair per attribute state, cold answers.

A lazy state syncs from the difference between the slots its view last
saw and the store's live slots, and every revision since then shows up
in it as one run of parallel index and slot arrays.  So every resident
attribute state repairs its neighbour orderings with one
``NeighborOrderCache.repair`` carrying many revised indices instead of
one call per update, and an index revised twice keeps its last slot.  The
imputations must still equal a cold refit over the final store.
"""

import numpy as np
import pytest

from repro import IIMImputer, load_dataset
from repro.data.relation import Relation
from repro.neighbors import NeighborOrderCache
from repro.online import OnlineImputationEngine
from repro.online.engine import _AttributeState

PARAMS = dict(k=5, learning="adaptive", stepping=2, max_learning_neighbors=6)
N = 300


@pytest.fixture(scope="module")
def pool():
    return load_dataset("asf", size=N + 40).raw


def _queries(pool):
    """One blanked cell per row, every attribute covered."""
    queries = pool[N : N + 12].copy()
    queries[np.arange(12), np.arange(12) % pool.shape[1]] = np.nan
    return queries


def _update_diff(updates, n=10):
    """The slot diff after ``(index, fresh slot)`` updates of a view whose
    index ``i`` held slot ``10 * i``."""
    old = np.arange(n) * 10
    live = old.copy()
    for index, slot in updates:
        live[index] = slot
    return _AttributeState._slot_diff(old, live)


def test_adjacent_updates_merge_into_one_op():
    indices, slots, deleted, appended = _update_diff([(3, 31), (7, 71), (1, 11)])
    assert deleted.size == appended.size == 0
    np.testing.assert_array_equal(indices, [1, 3, 7])
    np.testing.assert_array_equal(slots, [11, 31, 71])


def test_a_repeated_index_keeps_its_last_slot():
    indices, slots, deleted, appended = _update_diff([(3, 31), (5, 51), (3, 32)])
    assert deleted.size == appended.size == 0
    assert sorted(zip(indices.tolist(), slots.tolist())) == [(3, 32), (5, 51)]


@pytest.mark.parametrize("policy", ["lazy", "eager"])
def test_update_run_replays_as_one_replace_per_state(pool, monkeypatch, policy):
    engine = OnlineImputationEngine(
        refresh_policy=policy, model_cache_size=None, **PARAMS
    )
    engine.append(pool[:N])
    queries = _queries(pool)
    engine.impute_batch(queries)  # every attribute state resident

    calls = []
    original = NeighborOrderCache.repair

    def spy(cache, revised=(), fresh=(), deleted=(), appended=()):
        assert len(deleted) == len(appended) == 0
        calls.append(np.array(revised).tolist())
        return original(cache, revised, fresh, deleted, appended)

    monkeypatch.setattr(NeighborOrderCache, "repair", spy)
    # Index 5 is revised twice; N - 1 is the last tuple.
    updates = [(5, N + 20), (17, N + 21), (5, N + 22), (N - 1, N + 23)]
    ref = pool[:N].copy()
    for index, source in updates:
        engine.update(index, pool[source])
        ref[index] = pool[source]
    online = engine.impute_batch(queries)

    width = pool.shape[1]
    if policy == "lazy":
        # One run, one repair per state, over the distinct indices.
        assert calls == [[5, 17, N - 1]] * width
    else:
        # Eager refreshes after every update: each is a run of its own.
        assert calls == [[index] for index, _ in updates for _ in range(width)]
    np.testing.assert_array_equal(engine.store_relation().raw, ref)
    cold = IIMImputer(**PARAMS).fit(Relation(ref)).impute(Relation(queries))
    np.testing.assert_allclose(online, cold.raw, rtol=1e-9, atol=0)
