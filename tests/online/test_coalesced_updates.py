"""Coalesced update runs: one ``replace`` per attribute state, cold answers.

A lazy engine replays each run of adjacent updates as a single update that
carries parallel index and slot arrays, so every resident attribute state
repairs its neighbour orderings with one ``NeighborOrderCache.replace`` of
many indices instead of one call per update.  An index revised twice in a
run keeps its last slot; appends and deletes end a run, because they move
the indices that later updates name.  The imputations must still equal a
cold refit over the final store.
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


def _update(index, old_slot, new_slot):
    """An update op as the engine journals it."""
    return ("update", (index, old_slot, new_slot))


def test_adjacent_updates_merge_into_one_op():
    ops = _AttributeState._coalesced(
        [_update(3, 30, 31), _update(7, 70, 71), _update(1, 10, 11)]
    )
    (op, (indices, slots)), = ops
    assert op == "update"
    np.testing.assert_array_equal(indices, [3, 7, 1])
    np.testing.assert_array_equal(slots, [31, 71, 11])


def test_a_repeated_index_keeps_its_last_slot():
    ops = _AttributeState._coalesced(
        [_update(3, 30, 31), _update(5, 50, 51), _update(3, 31, 32)]
    )
    (op, (indices, slots)), = ops
    assert op == "update"
    assert sorted(zip(indices.tolist(), slots.tolist())) == [(3, 32), (5, 51)]


def test_appends_and_deletes_break_update_runs():
    delete = ("delete", (np.array([2]), np.array([20])))
    ops = _AttributeState._coalesced(
        [
            _update(1, 10, 11),
            _update(2, 20, 21),
            ("append", np.array([5])),
            _update(3, 30, 31),
            delete,
            _update(4, 40, 41),
            _update(0, 1, 2),
        ]
    )
    assert [op for op, _ in ops] == ["update", "append", "update", "delete", "update"]
    np.testing.assert_array_equal(ops[0][1][0], [1, 2])
    np.testing.assert_array_equal(ops[2][1][0], [3])
    np.testing.assert_array_equal(ops[4][1], ([4, 0], [41, 2]))


@pytest.mark.parametrize("policy", ["lazy", "eager"])
def test_update_run_replays_as_one_replace_per_state(pool, monkeypatch, policy):
    engine = OnlineImputationEngine(
        refresh_policy=policy, model_cache_size=None, **PARAMS
    )
    engine.append(pool[:N])
    queries = _queries(pool)
    engine.impute_batch(queries)  # every attribute state resident

    calls = []
    original = NeighborOrderCache.replace

    def spy(cache, index, slot):
        calls.append(np.atleast_1d(index).copy())
        return original(cache, index, slot)

    monkeypatch.setattr(NeighborOrderCache, "replace", spy)
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
        assert len(calls) == width
        for indices in calls:
            np.testing.assert_array_equal(indices, [5, 17, N - 1])
    else:
        # Eager refreshes after every update: each is a run of its own.
        assert len(calls) == len(updates) * width
    np.testing.assert_array_equal(engine.store_relation().raw, ref)
    cold = IIMImputer(**PARAMS).fit(Relation(ref)).impute(Relation(queries))
    np.testing.assert_allclose(online, cold.raw, rtol=1e-9, atol=0)
