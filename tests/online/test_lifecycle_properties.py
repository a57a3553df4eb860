"""Property-based lifecycle coverage: seeded random op traces as invariants.

Each test drives the online engine through a *generated* trace of
append / delete / update / impute / snapshot / restore operations — empty
batches, duplicate delete indices, exact-duplicate rows (distance ties),
runs of 2–6 adjacent updates (which a lazy engine replays as one repair;
the first run of each trace revises one index twice) and all-rows-deleted
states included — while holding a plain-array reference
store.  After every imputation the engine must match a cold
:class:`~repro.core.iim.IIMImputer` refit over the surviving tuples at
``rtol = 1e-9``, and every state the imputation synced must equal, array
for array and bit for bit, the state a fresh engine builds over the same
store, exposed neighbour orderings and distances included; after every
operation the store must retain exactly the retired slots some lagging
state's view still holds — none once every state has synced.  Traces are seeded, so a failure reproduces from its
parametrisation alone.

Engines run with a deliberately tiny first store allocation, so the store
array reallocates under retained versions — the regime the store has to
get right.
"""

import os

import numpy as np
import pytest

from repro import IIMImputer, load_dataset
from repro.core import adaptive
from repro.data.relation import Relation
from repro.exceptions import NotFittedError
from repro.online import OnlineImputationEngine
from repro.online import store as store_module

#: Long-trace smoke knob for CI (see .github/workflows/ci.yml).
N_OPS = int(os.environ.get("REPRO_PROPERTY_OPS", "48"))

STRESS_KNOBS = dict(model_cache_size=None)


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
    dict(k=4, learning="adaptive", stepping=4, max_learning_neighbors=12,
         incremental=False),
]
PARAM_IDS = ["fixed", "adaptive-voting", "adaptive-uniform", "adaptive-distance",
             "adaptive-straightforward"]

#: The arrays a synced state must share with a fresh build of the same store.
STATE_ARRAYS = ("orders", "order_dists", "all_parameters", "costs",
                "global_costs", "owners", "counts", "parameters",
                "models_parameters", "models_ell")


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


def _retained_slots(engine):
    """The retired slots some lagging state's view still holds."""
    held = set()
    for state in engine._states.values():
        if state.cache is not None and not state.current:
            held.update(state.cache.slots.tolist())
    return held - set(engine.store.live_slots.tolist())


def _check_invariants(engine, ref):
    assert engine.n_tuples == ref.shape[0]
    # A subset: nothing outlives the views that read it; a superset: a
    # lagging view never loses a version its replay reads.
    assert engine.store._pending == _retained_slots(engine), (
        "the store's pending slots are not the lagging views' retired slots"
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
    _check_states(engine, params)


def _check_states(engine, params):
    """Every synced state equals a fresh engine's state over the same store."""
    fresh = OnlineImputationEngine(**STRESS_KNOBS, **params)
    fresh.append(engine.store_relation().raw)
    for target_index, state in engine._states.items():
        if not state.current:
            continue
        got = state.state_arrays()
        want = fresh._get_state(target_index).state_arrays()
        assert got.keys() == want.keys()
        for key in STATE_ARRAYS:
            if key in want:
                np.testing.assert_array_equal(
                    got[key], want[key],
                    err_msg=f"state {target_index} {key} drifted from a fresh build",
                )


def _run_trace(engine, pool, rng, params, n_ops, tmp_path=None, n_start=30):
    """Drive one random lifecycle trace; returns the final reference store."""
    ref = pool[:n_start].copy()
    engine.append(ref)
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
            # Snapshots fold every pending mutation: every retired slot
            # must be recycled.
            assert engine.memory_stats()["pending_slots"] == 0
            restored = OnlineImputationEngine.load(path)
            np.testing.assert_array_equal(
                restored.store_relation().raw, engine.store_relation().raw
            )
            engine = restored  # continue the trace on the restored engine
        _check_invariants(engine, ref)
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


def test_random_trace_across_validation_blocks(pool, tmp_path, monkeypatch):
    """A shrunk pair block cuts a 200-row store's validators into two
    blocks: subset cost rebuilds must group each owner's sum across the
    boundary as a full pass does, also after deletes renumber validators
    across it."""
    monkeypatch.setattr(adaptive, "VALIDATION_PAIR_CHUNK", 4 * 120)
    params = dict(k=4, learning="adaptive", stepping=4, max_learning_neighbors=12)
    rng = np.random.default_rng(7)
    engine = OnlineImputationEngine(**STRESS_KNOBS, **params)
    _run_trace(engine, pool, rng, params, N_OPS, tmp_path=tmp_path, n_start=200)


def test_long_lazy_burst_retains_at_most_the_lagging_view(pool):
    """A long write-only burst behind one lagging state retains no more
    retired slots than that state's view holds, and the state catches up
    with one incremental refresh (still exact)."""
    params = dict(k=4, learning="adaptive", stepping=4, max_learning_neighbors=12)
    engine = OnlineImputationEngine(model_cache_size=None, **params)
    ref = pool[:40].copy()
    engine.append(ref)
    queries = pool[300:306].copy()
    queries[:, 2] = np.nan
    engine.impute_batch(queries)
    (state,) = engine._states.values()

    rng = np.random.default_rng(3)
    for step in range(120):  # appends, updates and deletes, no reads
        row = _draw_row(pool, ref, rng)
        engine.append(row.reshape(1, -1))
        ref = np.vstack([ref, row])
        index = int(rng.integers(ref.shape[0]))
        revised = _draw_row(pool, ref, rng)
        engine.update(index, revised)
        ref[index] = revised
        if step % 4 == 0:
            doomed = int(rng.integers(ref.shape[0]))
            engine.delete([doomed])
            ref = np.delete(ref, doomed, axis=0)
        _check_invariants(engine, ref)
        assert engine.store.n_pending <= state.cache.n_points == 40
    # The lagging view pins some retired versions; the rest recycled.
    assert engine.store.n_pending > 0 and engine.store.recycled_slots > 0

    full, incremental = (
        engine.stats["full_refreshes"], engine.stats["incremental_refreshes"]
    )
    np.testing.assert_allclose(
        engine.impute_batch(queries), _cold_impute(ref, queries.copy(), **params),
        rtol=1e-9, atol=1e-12,
    )
    assert engine.stats["full_refreshes"] == full
    assert engine.stats["incremental_refreshes"] == incremental + 1
    assert engine.store.n_pending == 0


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
