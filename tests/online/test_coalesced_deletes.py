"""Coalesced delete runs: one repair per attribute state, cold answers.

A lazy state syncs from the difference between the slots its view last
saw and the store's live slots, and every delete since then shows up in
it as one run of indices in the view's index space.  So every resident
attribute state repairs its neighbour orderings once, however many
deletes landed — an update between two deletes included.  Later deletes
name indices in the store as it stood *after* the earlier ones; the run
must still name the same survivors in sorted order, and the imputations
must still equal a cold refit over the surviving tuples.
"""

import numpy as np
import pytest

from repro import IIMImputer, load_dataset
from repro.api import OnlineSession
from repro.api.messages import ImputeRequest, MutationOp
from repro.data.relation import Relation
from repro.neighbors import NeighborOrderCache
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


def _apply(rows, ops):
    """The reference store: each op applied on its own, in order."""
    rows = rows.copy()
    for op in ops:
        if op.kind == "delete":
            rows = np.delete(rows, op.indices, axis=0)
        else:
            rows[op.index] = op.row
    return rows


def _delete_run(pool):
    # Indices shift as the run goes: the second [5] is the old row 6, and
    # the last op removes the row that is last once three are gone.
    return [
        MutationOp.delete([5]),
        MutationOp.delete([5]),
        MutationOp.delete([0]),
        MutationOp.delete([N - 4]),
    ]


def _delete_update_delete(pool):
    return [
        MutationOp.delete([7]),
        MutationOp.update(3, pool[N + 20]),
        MutationOp.delete([N - 2]),
    ]


@pytest.mark.parametrize(
    "build_ops, deleted, revised",
    [(_delete_run, [0, 5, 6, N - 1], []),
     (_delete_update_delete, [7, N - 1], [3])],
    ids=["delete_run", "delete_update_delete"],
)
def test_delete_runs_match_cold_refit(pool, monkeypatch, build_ops, deleted, revised):
    session = OnlineSession(model_cache_size=None, **PARAMS)
    session.mutate([MutationOp.append(pool[:N])])
    queries = _queries(pool)
    session.impute(ImputeRequest(queries))  # every attribute state resident

    repairs = []
    original = NeighborOrderCache.repair

    def counting_repair(cache, revised=(), fresh=(), deleted=(), appended=()):
        repairs.append((id(cache), np.array(revised).tolist(),
                        np.array(deleted).tolist(), len(appended)))
        return original(cache, revised, fresh, deleted, appended)

    monkeypatch.setattr(NeighborOrderCache, "repair", counting_repair)
    ops = build_ops(pool)
    session.mutate(ops)
    online = session.impute(ImputeRequest(queries))

    # One repair per state, carrying the whole run in the view's indices.
    width = pool.shape[1]
    assert len({cache for cache, *_ in repairs}) == len(repairs) == width
    for _, got_revised, got_deleted, appended in repairs:
        assert (got_revised, got_deleted, appended) == (revised, deleted, 0)
    survivors = _apply(pool[:N], ops)
    np.testing.assert_array_equal(session.engine.store_relation().raw, survivors)
    cold = IIMImputer(**PARAMS).fit(Relation(survivors)).impute(Relation(queries))
    np.testing.assert_allclose(online, cold.raw, rtol=1e-9, atol=0)


def _delete_diff(n, deletes):
    """The slot diff after a run of deletes, each naming sorted indices in
    the store of the moment; slot ``i`` holds original row ``i``."""
    live = np.arange(n)
    for indices in deletes:
        live = np.delete(live, np.unique(indices))
    return _AttributeState._slot_diff(np.arange(n), live), live


def test_coalesced_run_removes_the_same_survivors():
    (revised, fresh, indices, appended), survivors = _delete_diff(
        N, [[5], [5], [0], [N - 4]]
    )
    assert revised.size == fresh.size == appended.size == 0
    np.testing.assert_array_equal(indices, [0, 5, 6, N - 1])
    np.testing.assert_array_equal(np.delete(np.arange(N), indices), survivors)


def test_coalesced_random_runs_match_one_at_a_time():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(8, 60))
        deletes, remaining = [], n
        for _ in range(int(rng.integers(1, 6))):
            indices = np.unique(rng.integers(0, remaining, size=rng.integers(1, 4)))
            if indices.size >= remaining:
                break
            deletes.append(indices)
            remaining -= indices.size
        (revised, _, indices, appended), survivors = _delete_diff(n, deletes)
        assert revised.size == appended.size == 0
        assert (np.diff(indices) > 0).all()
        np.testing.assert_array_equal(np.delete(np.arange(n), indices), survivors)
