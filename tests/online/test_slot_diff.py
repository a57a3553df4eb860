"""The slot diff: how a lagging model state finds the mutations it missed.

A lagging state compares the store slots its view last saw with the
store's live slots.  Surviving rows keep their order ahead of every
appended row, so the difference is always one run of revised rows, one
run of deleted rows and one run of appended rows, which the state replays
through one ``NeighborOrderCache.repair`` carrying all three.  Seeded
random interleavings — repeated updates, updates of appended rows and of
the last row, deletes of revised rows — must show that:

* the three runs, applied to the view's slots, reproduce the live slots;
* every slot the view holds that is no longer live is still pending, so
  the replay can read the version it held;
* a sync costs each state exactly one repair, and the answers still equal
  a cold refit.
"""

import os
from collections import Counter

import numpy as np
import pytest

from repro import IIMImputer, load_dataset
from repro.data.relation import Relation
from repro.neighbors import NeighborOrderCache
from repro.online import OnlineImputationEngine
from repro.online.engine import _AttributeState

#: Ops per random trace; CI's long-trace job raises it.
N_OPS = int(os.environ.get("REPRO_PROPERTY_OPS", "48"))

PARAMS = dict(k=4, learning="adaptive", stepping=4, max_learning_neighbors=12)
N = 60


@pytest.fixture(scope="module")
def pool():
    return load_dataset("asf", size=400).raw


def _queries(pool):
    """One blanked cell per row, every attribute covered."""
    queries = pool[300:312].copy()
    queries[np.arange(12), np.arange(12) % pool.shape[1]] = np.nan
    return queries


def _engine(pool):
    engine = OnlineImputationEngine(
        refresh_policy="lazy", model_cache_size=None, **PARAMS
    )
    engine.append(pool[:N])
    engine.impute_batch(_queries(pool))  # every attribute state resident
    return engine, pool[:N].copy()


def _mutate(engine, ref, pool, rng, revised):
    """Apply one random mutation to the engine and the reference store.

    ``revised`` lists the indices updated so far (shifted by deletes), so
    a trace revises a row again and deletes a revised row now and then.
    """
    n = ref.shape[0]
    kind = rng.choice(
        ["append", "update", "update_again", "update_last", "delete",
         "delete_revised"],
        p=[0.25, 0.25, 0.1, 0.1, 0.15, 0.15],
    )
    if kind.startswith("delete") and n <= 20:
        kind = "append"  # keep the candidate grid's structure
    if kind == "update_again" and not revised:
        kind = "update"
    if kind == "delete_revised" and not revised:
        kind = "delete"
    if kind == "append":
        rows = pool[rng.choice(pool.shape[0], rng.integers(1, 4), replace=False)]
        engine.append(rows)
        return np.vstack([ref, rows])
    if kind.startswith("delete"):
        if kind == "delete_revised":
            doomed = np.array([revised[int(rng.integers(len(revised)))]])
        else:
            doomed = np.unique(rng.integers(0, n, size=rng.integers(1, 4)))
        engine.delete(doomed)
        survivors = np.delete(np.arange(n), doomed)
        revised[:] = [int(np.searchsorted(survivors, i)) for i in revised
                      if i not in doomed]
        return np.delete(ref, doomed, axis=0)
    if kind == "update_again":
        index = revised[int(rng.integers(len(revised)))]
    elif kind == "update_last":
        index = n - 1
    else:
        index = int(rng.integers(n))  # appended rows included
    row = pool[rng.integers(pool.shape[0])]
    engine.update(index, row)
    revised.append(index)
    ref = ref.copy()
    ref[index] = row
    return ref


@pytest.mark.parametrize("seed", range(6))
def test_runs_rebuild_the_live_slots_from_the_view(pool, seed):
    rng = np.random.default_rng(seed)
    engine, ref = _engine(pool)
    width = pool.shape[1]
    revised = []
    for _ in range(N_OPS):
        ref = _mutate(engine, ref, pool, rng, revised)
        live = engine.store.live_slots
        for state in engine._states.values():
            if state.current:
                continue
            old = state.cache.slots
            rows, fresh, deleted, appended = _AttributeState._slot_diff(old, live)
            view = old.copy()
            view[rows] = fresh
            view = np.concatenate([np.delete(view, deleted), appended])
            np.testing.assert_array_equal(view, live)
            gone = set(old.tolist()) - set(live.tolist())
            assert gone <= engine.store._pending
        if rng.random() < 0.2:
            # Sync one state, so the states lag by different spans.
            query = ref[:1].copy()
            query[0, int(rng.integers(width))] = np.nan
            engine.impute_batch(query)
    np.testing.assert_array_equal(engine.store.matrix(), ref)


def _spy(monkeypatch):
    """Record ``(cache, revised, deleted, appended count)`` for every
    neighbour-cache repair."""
    calls = []
    original = NeighborOrderCache.repair

    def spy(cache, revised=(), fresh=(), deleted=(), appended=()):
        assert len(fresh) == len(revised)
        calls.append(
            (id(cache), np.array(revised).tolist(), np.array(deleted).tolist(),
             len(appended))
        )
        return original(cache, revised, fresh, deleted, appended)

    monkeypatch.setattr(NeighborOrderCache, "repair", spy)
    return calls


def _check_cold(engine, ref, pool):
    queries = _queries(pool)
    online = engine.impute_batch(queries)
    np.testing.assert_array_equal(engine.store.matrix(), ref)
    cold = IIMImputer(**PARAMS).fit(Relation(ref)).impute(Relation(queries))
    np.testing.assert_allclose(online, cold.raw, rtol=1e-9, atol=0)


@pytest.mark.parametrize("seed", range(4))
def test_a_sync_costs_each_state_at_most_one_repair_of_each_kind(
    pool, monkeypatch, seed
):
    rng = np.random.default_rng(100 + seed)
    engine, ref = _engine(pool)
    calls = _spy(monkeypatch)
    revised = []
    for _ in range(16):
        ref = _mutate(engine, ref, pool, rng, revised)
    _check_cold(engine, ref, pool)
    # Every state lagged, and each repaired exactly once.
    repairs = Counter(cache for cache, *_ in calls)
    assert len(repairs) == pool.shape[1]
    assert set(repairs.values()) == {1}


@pytest.mark.parametrize("ops, runs", [
    # One deleted run, though an update separates the two deletes.
    ([("delete", [7]), ("update", 3), ("delete", [N - 2])],
     {"revised": [3], "deleted": [7, N - 1], "appended": 0}),
    # A row revised, then deleted before the sync, is never revised.
    ([("update", 3), ("delete", [3])],
     {"revised": [], "deleted": [3], "appended": 0}),
    # An appended row revised twice arrives as one append.
    ([("append", 2), ("update", N + 1), ("update", N + 1)],
     {"revised": [], "deleted": [], "appended": 2}),
    # The last row revised, then rows appended behind it.
    ([("update", N - 1), ("append", 3), ("delete", [0])],
     {"revised": [N - 1], "deleted": [0], "appended": 3}),
], ids=["delete_update_delete", "update_then_delete", "append_then_revise",
        "revise_last_then_append"])
def test_interleavings_replay_as_one_run_per_kind(pool, monkeypatch, ops, runs):
    engine, ref = _engine(pool)
    calls = _spy(monkeypatch)
    source = iter(range(340, 400))
    for kind, arg in ops:
        if kind == "append":
            rows = pool[[next(source) for _ in range(arg)]]
            engine.append(rows)
            ref = np.vstack([ref, rows])
        elif kind == "delete":
            engine.delete(arg)
            ref = np.delete(ref, arg, axis=0)
        else:
            row = pool[next(source)]
            engine.update(arg, row)
            ref = ref.copy()
            ref[arg] = row
    _check_cold(engine, ref, pool)
    # One repair per state, each carrying exactly the listed runs.
    assert len({cache for cache, *_ in calls}) == len(calls) == pool.shape[1]
    for _, revised, deleted, appended in calls:
        assert (revised, deleted, appended) == (
            runs["revised"], runs["deleted"], runs["appended"]
        )
