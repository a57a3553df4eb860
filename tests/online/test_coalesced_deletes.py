"""Coalesced delete runs: one repair per attribute state, cold answers.

A lazy engine replays each run of adjacent deletes as a single delete in
the index space before the run, so every resident attribute state repairs
its neighbour orderings once per run instead of once per delete.  Later
deletes in a run name indices in the store as it stood *after* the earlier
ones; the merge must map them back to the same survivors and keep the
merged indices sorted — and the imputations must still equal a cold refit
over the surviving tuples.
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
    "build_ops, repairs_per_state",
    [(_delete_run, 1), (_delete_update_delete, 2)],
    ids=["delete_run", "delete_update_delete"],
)
def test_delete_runs_match_cold_refit(
    pool, monkeypatch, build_ops, repairs_per_state
):
    session = OnlineSession(
        refresh_policy="lazy", model_cache_size=None, **PARAMS,
    )
    session.mutate([MutationOp.append(pool[:N])])
    queries = _queries(pool)
    session.impute(ImputeRequest(queries))  # every attribute state resident

    removals = []
    original = NeighborOrderCache.remove

    def counting_remove(cache, indices):
        removals.append(np.array(indices))
        return original(cache, indices)

    monkeypatch.setattr(NeighborOrderCache, "remove", counting_remove)
    ops = build_ops(pool)
    session.mutate(ops)
    online = session.impute(ImputeRequest(queries))

    width = pool.shape[1]
    assert len(removals) == repairs_per_state * width
    survivors = _apply(pool[:N], ops)
    np.testing.assert_array_equal(session.engine.store_relation().raw, survivors)
    cold = IIMImputer(**PARAMS).fit(Relation(survivors)).impute(Relation(queries))
    np.testing.assert_allclose(online, cold.raw, rtol=1e-9, atol=0)


def _journal_entries(n, deletes):
    """Delete ops as the engine journals them: sorted indices in the store
    of the moment, with the slots they retired (here: the original row
    labels, so a slot names the tuple it held)."""
    labels = np.arange(n)
    entries = []
    for indices in deletes:
        indices = np.unique(indices)
        entries.append(("delete", (indices, labels[indices])))
        labels = np.delete(labels, indices)
    return entries, labels


def test_coalesced_run_removes_the_same_survivors():
    entries, survivors = _journal_entries(N, [[5], [5], [0], [N - 4]])
    (op, indices), = _AttributeState._coalesced(entries)
    assert op == "delete"
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
        entries, survivors = _journal_entries(n, deletes)
        (op, indices), = _AttributeState._coalesced(entries)
        assert op == "delete" and (np.diff(indices) > 0).all()
        np.testing.assert_array_equal(np.delete(np.arange(n), indices), survivors)


def test_updates_break_delete_runs_and_appends_still_merge():
    delete = ("delete", (np.array([2]), np.array([20])))
    update = ("update", (1, 11, 12))
    ops = _AttributeState._coalesced(
        [
            ("append", np.array([1, 2])),
            ("append", np.array([3])),
            delete,
            update,
            delete,
        ]
    )
    assert [op for op, _ in ops] == ["append", "delete", "update", "delete"]
    np.testing.assert_array_equal(ops[0][1], [1, 2, 3])
