"""Chaos property tests: kill the session at random points, recover, compare.

Each trace drives a durable :class:`~repro.api.OnlineSession` (WAL
attached, deliberately tiny segments) through a seeded random lifecycle of
append / delete / update ops while a plain-array *mirror history* records
the store contents after every accepted op, keyed by WAL sequence number.
A seeded :class:`~repro.reliability.FaultPlan` kills the session at a
random WAL frame (clean crash, torn write, or I/O error — or silently
corrupts a frame and lets the trace finish).  Recovery must then rebuild
*exactly* the state at the last durable sequence number:

* the recovered store equals the mirror history at ``read_wal().last_seq``
  bit-for-bit;
* the recovered session's imputations match a cold
  :class:`~repro.core.iim.IIMImputer` refit over those rows at
  ``rtol = 1e-9`` — the never-crashed oracle;
* a pristine session replaying the surviving ops matches the recovered
  one at ``rtol = 1e-9``, and both keep accepting mutations afterwards.

Traces are seeded, so a failure reproduces from its parametrisation alone.
"""

import os

import numpy as np
import pytest

from repro import IIMImputer, load_dataset
from repro.api import MutationOp, OnlineSession, recover_session
from repro.data.relation import Relation
from repro.reliability import Fault, FaultPlan, SimulatedCrash, WriteAheadLog, read_wal

#: Ops per chaos trace (CI's long-trace job raises it, like the lifecycle
#: property suite's REPRO_PROPERTY_OPS).
N_OPS = int(os.environ.get("REPRO_CHAOS_OPS", "24"))

ENGINE_KNOBS = dict(journal_capacity=6, model_cache_size=None)

PARAM_GRID = [
    dict(k=4, learning="fixed", learning_neighbors=5),
    dict(k=4, learning="adaptive", stepping=4, max_learning_neighbors=12),
]
PARAM_IDS = ["fixed", "adaptive"]


@pytest.fixture(scope="module")
def pool():
    return load_dataset("asf", size=400).raw


def _draw_op(pool, ref, rng):
    """One random mutation op plus the mirrored next store contents."""
    kind = rng.choice(["append", "delete", "update"], p=[0.5, 0.25, 0.25])
    if kind == "delete" and ref.shape[0] <= 10:
        kind = "append"
    if kind == "append":
        batch = int(rng.integers(1, 4))
        rows = pool[rng.choice(pool.shape[0], batch, replace=False)].copy()
        return MutationOp.append(rows), np.vstack([ref, rows])
    if kind == "delete":
        raw = rng.integers(0, ref.shape[0], size=int(rng.integers(1, 3)))
        return (
            MutationOp.delete(np.concatenate([raw, raw[:1]])),  # dups tolerated
            np.delete(ref, np.unique(raw), axis=0),
        )
    index = int(rng.integers(ref.shape[0]))
    row = pool[rng.integers(pool.shape[0])].copy()
    mirrored = ref.copy()
    mirrored[index] = row
    return MutationOp.update(index, row), mirrored


def _random_fault(rng):
    kind = ["crash", "torn_write", "io_error"][int(rng.integers(3))]
    # hit 1 is the fit append; fault anywhere in the mutation stream.
    return Fault(
        "wal.frame",
        kind,
        hit=int(rng.integers(2, N_OPS)),
        byte_offset=int(rng.integers(0, 64)),
    )


def _durable_session(wal_dir, params, injector=None):
    session = OnlineSession(**ENGINE_KNOBS, **params)
    wal = WriteAheadLog(
        wal_dir,
        config=session.config_wire(),
        segment_max_records=5,  # force rotation inside every trace
        injector=injector,
    )
    return session.attach_wal(wal, fault_injector=injector)


def _run_trace_until_killed(session, pool, rng, history, checkpoint=None):
    """Drive random ops; returns the op list by seq (1-based, op 1 = fit)."""
    initial = pool[rng.choice(pool.shape[0], 30, replace=False)].copy()
    ops = [MutationOp.append(initial)]
    session.fit(initial)
    history[1] = initial.copy()
    ref = initial
    for step in range(2, N_OPS + 1):
        op, mirrored = _draw_op(pool, ref, rng)
        ops.append(op)
        history[step] = mirrored.copy()
        session.mutate([op])
        ref = mirrored
        if checkpoint is not None and step == checkpoint:
            session.save(checkpoint_path(session))
    return ops


def checkpoint_path(session):
    return session.wal.directory.parent / "ckpt"


def _check_recovery(wal_dir, history, ops, params, pool, checkpoint=None):
    state = read_wal(wal_dir)
    durable_seq = state.last_seq
    assert durable_seq >= 1, "the fit append must always be durable"
    expected = history[durable_seq]

    recovered, report = recover_session(
        wal_dir, checkpoint=checkpoint, reattach=False
    )
    assert report["last_seq"] == durable_seq
    np.testing.assert_array_equal(
        recovered.engine.store_relation().raw, expected
    )

    # Oracle 1: the never-crashed equivalent — a cold refit over exactly
    # the rows the recovered store holds.
    rng = np.random.default_rng(durable_seq)
    queries = expected[
        rng.choice(expected.shape[0], min(4, expected.shape[0]), replace=False)
    ].copy()
    for row in range(queries.shape[0]):
        blank = rng.choice(queries.shape[1], size=rng.integers(1, 3),
                           replace=False)
        queries[row, blank] = np.nan
    got = recovered.impute(queries.copy())
    cold = IIMImputer(**params).fit(Relation(expected))
    want = cold.impute(Relation(queries.copy())).raw
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    # Oracle 2: a pristine session replaying the surviving ops, then both
    # continue accepting the same mutations.
    pristine = OnlineSession(**ENGINE_KNOBS, **params)
    pristine.mutate(ops[:durable_seq])
    np.testing.assert_allclose(
        pristine.impute(queries.copy()), got, rtol=1e-9, atol=1e-12
    )
    tail = pool[:6].copy()
    recovered.mutate([MutationOp.append(tail)])
    pristine.mutate([MutationOp.append(tail)])
    np.testing.assert_allclose(
        recovered.impute(queries.copy()),
        pristine.impute(queries.copy()),
        rtol=1e-9,
        atol=1e-12,
    )


@pytest.mark.parametrize("params", PARAM_GRID, ids=PARAM_IDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_killed_trace_recovers_to_last_durable_op(pool, params, seed, tmp_path):
    rng = np.random.default_rng(seed)
    fault = _random_fault(rng)
    plan = FaultPlan([fault])
    wal_dir = tmp_path / "wal"
    session = _durable_session(wal_dir, params, injector=plan)
    history = {}
    try:
        ops = _run_trace_until_killed(session, pool, rng, history)
    except (SimulatedCrash, OSError):
        # The process is "dead": rebuild the accepted-op list the only way
        # a real recovery could — from the WAL's surviving valid prefix.
        ops = [MutationOp.from_wire(op) for _, op in read_wal(wal_dir).ops]
    assert plan.fired, f"fault {fault} never triggered in {N_OPS} ops"
    _check_recovery(wal_dir, history, ops, params, pool)


@pytest.mark.parametrize("seed", [3, 4])
def test_killed_trace_with_mid_checkpoint(pool, seed, tmp_path):
    """Crash after a mid-trace checkpoint: recovery = checkpoint + tail."""
    params = PARAM_GRID[1]
    rng = np.random.default_rng(seed)
    checkpoint_at = int(rng.integers(5, N_OPS - 5))
    fault = Fault("wal.frame", "crash",
                  hit=int(rng.integers(checkpoint_at + 1, N_OPS + 1)))
    plan = FaultPlan([fault])
    wal_dir = tmp_path / "wal"
    session = _durable_session(wal_dir, params, injector=plan)
    history = {}
    try:
        _run_trace_until_killed(session, pool, rng, history,
                                checkpoint=checkpoint_at)
    except SimulatedCrash:
        pass
    assert plan.fired

    state = read_wal(wal_dir)
    durable_seq = state.last_seq
    assert state.base_seq >= checkpoint_at  # the save truncated the log
    recovered, report = recover_session(
        wal_dir, checkpoint=tmp_path / "ckpt", reattach=False
    )
    assert report["checkpoint"] is not None
    np.testing.assert_array_equal(
        recovered.engine.store_relation().raw, history[durable_seq]
    )
    cold = IIMImputer(**params).fit(Relation(history[durable_seq]))
    queries = history[durable_seq][:3].copy()
    queries[:, 1] = np.nan
    np.testing.assert_allclose(
        recovered.impute(queries.copy()),
        cold.impute(Relation(queries.copy())).raw,
        rtol=1e-9,
        atol=1e-12,
    )


@pytest.mark.parametrize("seed", [5, 6])
def test_silent_corruption_truncates_to_valid_prefix(pool, seed, tmp_path):
    """A silently flipped byte ends the durable prefix at the bad frame."""
    params = PARAM_GRID[0]
    rng = np.random.default_rng(seed)
    hit = int(rng.integers(3, N_OPS - 2))
    plan = FaultPlan([
        Fault("wal.frame", "corrupt_frame", hit=hit,
              byte_offset=int(rng.integers(0, 40))),
    ])
    wal_dir = tmp_path / "wal"
    session = _durable_session(wal_dir, params, injector=plan)
    history = {}
    ops = _run_trace_until_killed(session, pool, rng, history)  # never raises
    session.close()
    assert plan.fired

    state = read_wal(wal_dir)
    assert state.torn is not None
    assert state.last_seq == hit - 1  # frames from the corrupt one are dropped
    _check_recovery(wal_dir, history, ops, params, pool)
