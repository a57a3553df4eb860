"""Online engine benchmarks: lifecycle traces vs. cold refits.

Replays the SN and CA datasets as ``streaming`` and ``churn`` scenarios
(:func:`repro.scenarios.replay` over the direct engine transport) and
records the per-round latencies and aggregate speedups in
``benchmarks/results/online.json``:

* **append-only** scenarios (adaptive and fixed learning): incremental
  append+serve must beat a cold refit over the whole trace;
* **churn** scenarios (interleaved append/update/delete/impute, in- and
  out-of-distribution query traces, and a heavy sweep whose every
  mutation batch dirties most of the store): recorded against cold
  refits;
* **refresh work** on ``ingest_churn``-shaped rounds: an incremental
  refresh must re-solve only the ``(row, ℓ)`` models whose neighbour
  prefix changed, strictly fewer than whole-row relearns would.

Every round's answers are verified against the cold refit at rtol 1e-9
(``replay`` raises on divergence), and every scenario also asserts the
online and cold sides report the same RMS error: the engine is an
optimisation, not an approximation.  Tests merge their sections into the
record, so each can run (and be re-run) independently.
"""

import os
import time

import numpy as np

from repro.scenarios import ScenarioSpec, replay


def _replay(profile, name, generator, learning="adaptive", **params):
    """Replay one scenario with the profile's IIM parameters, verified.

    Each round queries ``min(asf_incomplete, initial store // 2)`` tuples;
    the learning-neighbour grid is capped at a paper-typical 25.
    """
    model = dict(
        k=profile.default_k,
        learning=learning,
        stepping=profile.iim_stepping,
        max_learning_neighbors=min(25, profile.iim_max_learning_neighbors),
    )
    if learning == "fixed":
        model["learning_neighbors"] = profile.default_k
    initial = int(params["size"] * params["initial_fraction"])
    spec = ScenarioSpec(
        name=name,
        generator=generator,
        params={"dataset": "sn", "queries_per_round": max(
            1, min(profile.asf_incomplete, initial // 2)), **params},
        model=model,
        # An LRU smaller than the schema would evict-and-rebuild each round
        # and measure cache churn instead of incremental maintenance.
        engine={"model_cache_size": None},
        seed=0,
    )
    start = time.perf_counter()
    report = replay(spec, transport="engine", check_digest=False)
    entry = report.as_dict()
    entry["spec"] = spec.to_dict()
    entry["trace_wall_seconds"] = time.perf_counter() - start
    # Equivalence: the engine must score exactly like the cold refits.
    cold_rms = max(step.rms_cold for step in report.steps)
    assert report.max_rms_gap <= 1e-9 * max(1e-30, cold_rms), (
        f"{name}: online RMS diverged from cold refit"
    )
    return entry


def _line(name, entry):
    counters = entry["session_stats"][name]["counters"]
    return (
        f"{name}: online {entry['online_seconds']:.4f}s, "
        f"cold {entry['cold_seconds']:.4f}s, "
        f"speedup {entry['speedup']:.2f}x "
        f"({counters['incremental_refreshes']} incremental / "
        f"{counters['full_refreshes']} full refreshes)"
    )


def test_online_engine_speedup(profile, record_result, write_report):
    # Streaming traces replay more tuples than the static experiments: the
    # incremental win scales with the store-to-neighbourhood ratio, so the
    # profile's dataset sizes are stretched 2–2.5×.
    sizes = profile.dataset_sizes
    common = dict(generator="streaming", n_rounds=12, initial_fraction=0.5)
    scenarios = {
        "sn_adaptive": _replay(profile, "sn_adaptive",
                               size=int(2.5 * sizes["sn"]), **common),
        "ca_adaptive": _replay(profile, "ca_adaptive", dataset="ca",
                               size=2 * sizes["ca"], **common),
        "sn_fixed": _replay(profile, "sn_fixed", learning="fixed",
                            size=2 * sizes["sn"], **common),
    }
    write_report("online", **scenarios)
    record_result(
        "online", "\n".join(_line(n, e) for n, e in scenarios.items())
    )

    # The acceptance bar: incremental maintenance beats cold refits on every
    # scenario of the trace (per-round jitter is tolerated; the aggregate
    # must win).
    for name, entry in scenarios.items():
        assert entry["speedup"] > 1.0, (
            f"{name}: online trace ({entry['online_seconds']:.4f}s) not faster "
            f"than cold refits ({entry['cold_seconds']:.4f}s)"
        )


def test_online_churn(profile, record_result, write_report):
    """Full-lifecycle churn: the online engine vs. cold refits."""
    size = int(2.5 * profile.dataset_sizes["sn"])
    # Moderate churn over a large warm store (the production shape:
    # corrections and retractions are rarer than inserts), with store and
    # out-of-distribution query traces.
    moderate = dict(generator="churn", size=size, n_rounds=10,
                    initial_fraction=0.7, updates_per_round=3,
                    deletes_per_round=4)
    scenarios = {
        "sn_churn": _replay(profile, "sn_churn", **moderate),
        "sn_churn_ood": _replay(profile, "sn_churn_ood", query_mode="ood",
                                **moderate),
        # Heavy churn: a tiny initial store swamped by append/delete sweeps;
        # every mutation batch dirties most prefixes.
        "sn_churn_heavy": _replay(
            profile, "sn_churn_heavy", generator="churn",
            size=int(1.2 * profile.dataset_sizes["sn"]), n_rounds=4,
            initial_fraction=0.1, updates_per_round=10, deletes_per_round=15,
        ),
    }
    write_report("online", **scenarios)
    record_result(
        "online_churn", "\n".join(_line(n, e) for n, e in scenarios.items())
    )


#: The bench profile's IIM parameters, as the repository benchmark's
#: ``ingest_churn`` workload spells them out.
CHURN_PARAMS = dict(k=10, learning="adaptive", stepping=5,
                    max_learning_neighbors=25, validation_neighbors=10)


def test_refresh_solves_only_changed_prefixes(record_result, write_report):
    """``ingest_churn``-shaped rounds: a refresh re-solves only the models
    whose prefix changed.

    Each round appends 64 rows, updates 8 and deletes 8 on a 2,000-row
    store, then imputes one row per attribute, so every state refreshes
    incrementally.  Candidate ``ℓ`` learns from the first ``ℓ`` neighbours
    only, so ``models_solved`` must stay strictly below ``rows_refreshed``
    × the candidate count: a fallback to whole-row relearns fails here.
    The last round's answers must equal a cold refit's.
    """
    from repro import IIMImputer, load_dataset
    from repro.core import candidate_ell_values
    from repro.data.relation import Relation
    from repro.online import OnlineImputationEngine

    store_rows, rounds, appends, updates, deletes = 2000, 6, 64, 8, 8
    # Each round draws its appends, its updates and one query per attribute.
    pool = load_dataset("asf", size=store_rows + (rounds + 1) * 100,
                        random_state=0).raw
    rng = np.random.default_rng(1)
    width = pool.shape[1]
    engine = OnlineImputationEngine(model_cache_size=None, **CHURN_PARAMS)
    engine.append(pool[:store_rows])
    taken = store_rows

    def take(n):
        nonlocal taken
        taken += n
        return pool[taken - n:taken].copy()

    def blanked():
        queries = take(width)
        queries[np.arange(width), np.arange(width)] = np.nan
        return queries

    engine.impute_batch(blanked())  # every attribute state, built cold
    before = dict(engine.stats)
    start = time.perf_counter()
    for _ in range(rounds):
        engine.append(take(appends))
        for index in rng.choice(engine.n_tuples, updates, replace=False):
            engine.update(int(index), take(1)[0])
        engine.delete(rng.choice(engine.n_tuples, deletes, replace=False))
        queries = blanked()
        answers = engine.impute_batch(queries)
    seconds = time.perf_counter() - start
    delta = {key: engine.stats[key] - before[key] for key in before}

    cold = IIMImputer(**CHURN_PARAMS).fit(engine.store_relation())
    np.testing.assert_allclose(
        answers, cold.impute(Relation(queries)).raw, rtol=1e-9, atol=1e-12
    )
    n_candidates = candidate_ell_values(
        engine.n_tuples, stepping=CHURN_PARAMS["stepping"],
        max_ell=CHURN_PARAMS["max_learning_neighbors"],
    ).shape[0]
    assert delta["full_refreshes"] == 0
    assert delta["incremental_refreshes"] == rounds * width
    whole_rows = delta["rows_refreshed"] * n_candidates
    ratio = delta["models_solved"] / whole_rows
    section = {
        "params": {**CHURN_PARAMS, "store_rows": store_rows, "rounds": rounds,
                   "round": {"appends": appends, "updates": updates,
                             "deletes": deletes}},
        "rows_refreshed": delta["rows_refreshed"],
        "models_solved": delta["models_solved"],
        "models_solved_ratio": ratio,
        "cost_rows_rebuilt": delta["cost_rows_rebuilt"],
        "seconds": seconds,
    }
    write_report("online", refresh_work=section)
    record_result(
        "online_refresh_work",
        f"{rounds} rounds over {store_rows} rows: {delta['rows_refreshed']} "
        f"model-dirty rows, {delta['models_solved']} of {whole_rows} (row, ℓ) "
        f"models re-solved ({ratio:.2f}), {delta['cost_rows_rebuilt']} cost "
        f"rows rebuilt, {seconds:.2f}s",
    )
    assert delta["models_solved"] < whole_rows, (
        "an incremental refresh re-solved every candidate of every dirty row"
    )


def test_online_large_store(record_result, write_report):
    """The tuple store at ≥200k tuples: mutation + query throughput.

    Per-tuple model maintenance is inherently O(n²) in the paper's
    algorithms, so this scenario benchmarks the store layer alone at this
    scale: the mutation path (append bursts that grow the array, delete
    sweeps, update bursts with slot recycling) and neighbour-query serving
    through one top-K over the view's gathered block — verified
    bit-identical to the brute-force reference at full scale.  Memory
    records what one attribute state's view keeps resident: its slot
    references and the feature block it gathers once for reads.
    """
    from repro.neighbors import BruteForceNeighbors
    from repro.online import ColumnarTupleStore, ShardedNeighbors

    n_rows = int(os.environ.get("REPRO_LARGE_STORE_ROWS", "220000"))
    width = 6
    rng = np.random.default_rng(0)
    store = ColumnarTupleStore(width)

    start = time.perf_counter()
    batch = 20_000
    for offset in range(0, n_rows, batch):
        store.append(rng.normal(size=(min(batch, n_rows - offset), width)))
    append_seconds = time.perf_counter() - start

    start = time.perf_counter()
    retired = store.delete(
        np.unique(rng.integers(0, store.n_live, size=n_rows // 20))
    )
    store.release(retired)
    delete_seconds = time.perf_counter() - start

    start = time.perf_counter()
    n_updates = n_rows // 40
    for index in rng.integers(0, store.n_live, size=n_updates):
        old_slot, _ = store.update(int(index), rng.normal(size=width))
        store.release([old_slot])
    update_seconds = time.perf_counter() - start
    assert store.recycled_slots > 0, "update bursts must recycle released slots"

    # Query serving through one top-K over the view's block, checked
    # bit-identical to the brute-force reference at full scale.
    view = store.feature_view(exclude=width - 1)
    searcher = ShardedNeighbors(view)
    queries = rng.normal(size=(64, width - 1))
    start = time.perf_counter()
    dist_s, idx_s = searcher.kneighbors(queries, 10)
    query_seconds = time.perf_counter() - start
    reference = BruteForceNeighbors().fit(store.matrix()[:, : width - 1])
    dist_b, idx_b = reference.kneighbors(queries, 10)
    assert np.array_equal(idx_s, idx_b) and np.array_equal(dist_s, dist_b)

    n = store.n_live
    block_bytes = view.gathered_bytes  # kept by the view for later reads
    section = {
        "n_rows": n,
        "width": width,
        "append_seconds": append_seconds,
        "append_rows_per_second": n_rows / append_seconds,
        "delete_seconds": delete_seconds,
        "update_seconds": update_seconds,
        "updates_per_second": n_updates / update_seconds,
        "query_seconds": query_seconds,
        "store_bytes": store.nbytes,
        "state_slot_bytes": int(n * 8),
        "state_block_bytes": block_bytes,
    }
    write_report("online", large_store=section)
    record_result(
        "online_large_store",
        f"{n} live rows × {width} attrs "
        f"({store.nbytes / 1e6:.1f} MB store array)\n"
        f"append {append_seconds:.3f}s ({n_rows / append_seconds:,.0f} rows/s), "
        f"delete sweep {delete_seconds:.3f}s, "
        f"{n_updates} updates {update_seconds:.3f}s\n"
        f"64-query k=10 top-K {query_seconds * 1000:.1f} ms "
        f"(== brute force bit-for-bit)\n"
        f"per-state resident: {n * 8 / 1e6:.1f} MB slots + "
        f"{block_bytes / 1e6:.1f} MB gathered block",
    )

    # The view gathered every row once: one (n, width-1) float block.
    assert block_bytes == n * (width - 1) * 8


def test_online_snapshot_roundtrip_cost(profile, record_result, tmp_path):
    """Snapshot/restore latency at profile scale (informational)."""
    from repro.online import OnlineImputationEngine

    result_dir = tmp_path / "engine"
    from repro.data import load_dataset

    relation = load_dataset("sn", size=profile.dataset_sizes["sn"])
    engine = OnlineImputationEngine(
        k=profile.default_k,
        learning="adaptive",
        stepping=profile.iim_stepping,
        max_learning_neighbors=profile.iim_max_learning_neighbors,
    )
    engine.append(relation.raw)
    queries = relation.raw[: profile.default_k].copy()
    queries[:, -1] = np.nan
    warm = engine.impute_batch(queries)

    start = time.perf_counter()
    engine.snapshot(result_dir)
    save_seconds = time.perf_counter() - start
    start = time.perf_counter()
    restored = OnlineImputationEngine.load(result_dir)
    load_seconds = time.perf_counter() - start

    assert np.array_equal(warm, restored.impute_batch(queries))
    record_result(
        "online_snapshot",
        f"snapshot {save_seconds * 1000:.1f} ms, restore {load_seconds * 1000:.1f} ms "
        f"(store of {engine.n_tuples} tuples)",
    )
