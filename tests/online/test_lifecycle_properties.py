"""Property-based lifecycle coverage: seeded random op traces as invariants.

Each test drives the online engine through a *generated* trace of
append / delete / update / impute / snapshot / restore operations — empty
batches, duplicate delete indices, exact-duplicate rows (distance ties),
runs of 2–6 adjacent updates (which a lazy engine replays as one repair;
the first run of each trace revises one index twice) and all-rows-deleted
states included — while holding a plain-array reference
store.  After every imputation the engine must match a cold
:class:`~repro.core.iim.IIMImputer` refit over the surviving tuples at
``rtol = 1e-9``; after every operation the mutation journal must respect
its ring bound and, once every state has synced, the store must have
recycled every retired slot.  Traces are seeded, so a failure reproduces
from its parametrisation alone.

Engines run with a deliberately tiny first store allocation and journal
capacity, so the store array reallocates under retained versions and the
ring spills constantly — the regimes the store has to get right.
"""

import os

import numpy as np
import pytest

from repro import IIMImputer, load_dataset
from repro.data.relation import Relation
from repro.exceptions import NotFittedError
from repro.online import OnlineImputationEngine
from repro.online import store as store_module

#: Long-trace smoke knob for CI (see .github/workflows/ci.yml).
N_OPS = int(os.environ.get("REPRO_PROPERTY_OPS", "48"))

STRESS_KNOBS = dict(journal_capacity=6, model_cache_size=None)


@pytest.fixture(autouse=True)
def small_floor(monkeypatch):
    """A 7-row first store allocation, so the traces reallocate it."""
    monkeypatch.setattr(store_module, "FLOOR", 7)

PARAM_GRID = [
    dict(k=4, learning="fixed", learning_neighbors=5),
    dict(k=4, learning="adaptive", stepping=4, max_learning_neighbors=12),
    dict(k=4, learning="adaptive", stepping=4, max_learning_neighbors=12,
         combination="uniform"),
    dict(k=4, learning="adaptive", stepping=4, max_learning_neighbors=12,
         combination="distance"),
]
PARAM_IDS = ["fixed", "adaptive-voting", "adaptive-uniform", "adaptive-distance"]


@pytest.fixture(scope="module")
def pool():
    return load_dataset("asf", size=400).raw


def _cold_impute(store_rows, queries, **params):
    imputer = IIMImputer(**params).fit(Relation(store_rows))
    return imputer.impute(Relation(queries)).raw


def _draw_row(pool, ref, rng):
    """A fresh pool row — or, sometimes, an exact duplicate of a stored one
    (duplicates manufacture zero-distance ties, the tie-break stressor)."""
    if ref.shape[0] and rng.random() < 0.15:
        return ref[rng.integers(ref.shape[0])].copy()
    return pool[rng.integers(pool.shape[0])].copy()


def _check_invariants(engine, ref):
    assert engine.n_tuples == ref.shape[0]
    memory = engine.memory_stats()
    assert memory["journal_entries"] <= memory["journal_capacity"], (
        "mutation journal exceeded its ring bound"
    )


def _check_impute(engine, ref, rng, params, n_queries=4):
    queries = ref[rng.choice(ref.shape[0], min(n_queries, ref.shape[0]),
                             replace=False)].copy()
    for row in range(queries.shape[0]):
        blank = rng.choice(queries.shape[1], size=rng.integers(1, 3),
                           replace=False)
        queries[row, blank] = np.nan
    got = engine.impute_batch(queries)
    want = _cold_impute(ref, queries.copy(), **params)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def _run_trace(engine, pool, rng, params, n_ops, tmp_path=None):
    """Drive one random lifecycle trace; returns the final reference store."""
    ref = pool[:30].copy()
    engine.append(ref)
    floor_seen = 0
    n_snapshots = 0
    n_runs = 0
    for step in range(n_ops):
        op = rng.choice(
            ["append", "delete", "update", "update_run", "impute", "snapshot"],
            p=[0.3, 0.2, 0.1, 0.1, 0.25, 0.05],
        )
        if op == "append":
            batch = rng.integers(0, 4)  # 0 = the empty-batch no-op
            rows = np.array([_draw_row(pool, ref, rng) for _ in range(batch)])
            rows = rows.reshape(batch, pool.shape[1])
            engine.append(rows)
            ref = np.vstack([ref, rows]) if batch else ref
        elif op == "delete":
            if ref.shape[0] == 0:
                continue
            if rng.random() < 0.04:
                # The all-rows-deleted state: the engine must empty cleanly
                # and accept a fresh stream afterwards.
                engine.delete(np.arange(ref.shape[0]))
                ref = ref[:0]
                with pytest.raises(NotFittedError):
                    engine.impute_batch(np.full((1, pool.shape[1]), np.nan))
                rows = pool[rng.choice(pool.shape[0], 25, replace=False)].copy()
                engine.append(rows)
                ref = rows
            else:
                # Duplicate indices are tolerated by contract.
                raw = rng.integers(0, ref.shape[0], size=rng.integers(1, 4))
                targets = np.concatenate([raw, raw[:1]])
                engine.delete(targets)
                ref = np.delete(ref, np.unique(raw), axis=0)
        elif op == "update":
            if ref.shape[0] == 0:
                continue
            index = int(rng.integers(ref.shape[0]))
            row = _draw_row(pool, ref, rng)
            engine.update(index, row)
            ref[index] = row
        elif op == "update_run":
            if ref.shape[0] == 0:
                continue
            indices = rng.integers(0, ref.shape[0], size=rng.integers(2, 7))
            if n_runs == 0 or rng.random() < 0.5:
                indices[-1] = indices[0]  # a repeated index: its last row wins
            n_runs += 1
            for index in indices:
                row = _draw_row(pool, ref, rng)
                engine.update(int(index), row)
                ref[index] = row
        elif op == "impute":
            if ref.shape[0] < 8:
                continue
            _check_impute(engine, ref, rng, params)
        else:
            if tmp_path is None or ref.shape[0] < 8:
                continue
            path = tmp_path / f"snap{n_snapshots}"
            n_snapshots += 1
            engine.snapshot(path)
            # Snapshots fold every pending mutation: the journal must be
            # empty and every retired slot recycled.
            memory = engine.memory_stats()
            assert memory["journal_entries"] == 0
            assert memory["pending_slots"] == 0
            restored = OnlineImputationEngine.load(path)
            np.testing.assert_array_equal(
                restored.store_relation().raw, engine.store_relation().raw
            )
            engine = restored  # continue the trace on the restored engine
        _check_invariants(engine, ref)
        assert engine._journal.floor >= floor_seen, "journal floor regressed"
        floor_seen = engine._journal.floor
    if ref.shape[0] >= 8:
        _check_impute(engine, ref, rng, params)
    return engine, ref


@pytest.mark.parametrize("params", PARAM_GRID, ids=PARAM_IDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_random_lifecycle_trace_matches_cold_refit(pool, params, seed, tmp_path):
    rng = np.random.default_rng(seed)
    engine = OnlineImputationEngine(**STRESS_KNOBS, **params)
    _run_trace(engine, pool, rng, params, N_OPS, tmp_path=tmp_path)


def test_random_trace_with_a_short_candidate_grid(pool, tmp_path):
    params = dict(k=4, learning="adaptive", stepping=3, max_learning_neighbors=8)
    rng = np.random.default_rng(11)
    engine = OnlineImputationEngine(**STRESS_KNOBS, **params)
    _run_trace(engine, pool, rng, params, N_OPS, tmp_path=tmp_path)


def test_long_lazy_burst_respects_ring_bound(pool):
    """A burst far longer than the ring keeps journal memory bounded and the
    laggard state falls back to one full rebuild (still exact)."""
    params = dict(k=4, learning="adaptive", stepping=4, max_learning_neighbors=12)
    engine = OnlineImputationEngine(
        journal_capacity=8, model_cache_size=None, **params
    )
    ref = pool[:40].copy()
    engine.append(ref)
    _check_impute(engine, ref, np.random.default_rng(2), params)  # make a state resident

    rng = np.random.default_rng(3)
    for _ in range(60):  # 60 mutations against a ring of 8
        row = _draw_row(pool, ref, rng)
        engine.append(row.reshape(1, -1))
        ref = np.vstack([ref, row])
        index = int(rng.integers(ref.shape[0]))
        revised = _draw_row(pool, ref, rng)
        engine.update(index, revised)
        ref[index] = revised
        memory = engine.memory_stats()
        assert memory["journal_entries"] <= 8
    assert engine.stats["journal_spills"] > 0
    full_before = engine.stats["full_refreshes"]
    _check_impute(engine, ref, rng, params)
    assert engine.stats["full_refreshes"] > full_before, (
        "a state older than the spill floor must full-rebuild"
    )
    # Once the laggard caught up, only slots owned by still-ringed entries
    # may remain pending (each entry owns at most one retired slot here).
    memory = engine.memory_stats()
    assert memory["pending_slots"] <= 8
    assert memory["recycled_slots"] > 0 or engine.store.n_free > 0


def test_interleaved_restore_keeps_streaming_identically(pool, tmp_path):
    """Restore mid-trace, then drive both engines through the same tail."""
    params = dict(k=4, learning="adaptive", stepping=4, max_learning_neighbors=10)
    engine = OnlineImputationEngine(**params)
    ref = pool[:40].copy()
    engine.append(ref)
    queries = pool[300:306].copy()
    queries[:, 2] = np.nan
    engine.impute_batch(queries)
    engine.update(3, pool[310])
    engine.delete([1, 17, 17, 30])  # duplicates tolerated
    engine.snapshot(tmp_path / "mid")
    restored = OnlineImputationEngine.load(tmp_path / "mid")

    rng = np.random.default_rng(5)
    for _ in range(6):
        rows = pool[rng.choice(pool.shape[0], 3, replace=False)].copy()
        engine.append(rows)
        restored.append(rows)
        target = int(rng.integers(engine.n_tuples))
        revised = pool[rng.integers(pool.shape[0])]
        engine.update(target, revised)
        restored.update(target, revised)
        np.testing.assert_array_equal(
            engine.impute_batch(queries), restored.impute_batch(queries)
        )
