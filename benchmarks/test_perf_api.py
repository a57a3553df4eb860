"""Service-layer benchmarks: one test per bar, records in ``results/api.json``.

* **facade** — a streaming trace driven through an
  :class:`~repro.api.OnlineSession` versus identical raw
  :class:`~repro.online.OnlineImputationEngine` calls.  The outputs must be
  bit-identical and the session side may cost at most 5% more wall-clock;
* **serve throughput** — requests/s through the full JSONL wire path
  (decode → dispatch → impute → encode) for single-row and batched impute
  requests, held to sanity floors;
* **concurrency** — aggregate req/s of 1/2/4/8 pipelining clients (one
  session each) under three dispatch modes: the sequential single-worker
  baseline, the concurrent worker pool, and the pool with micro-batch
  coalescing.  At 4 clients the best mode must deliver at least 2× the
  baseline, with responses within rtol 1e-9 of sequential dispatch;
* **observability** — the disabled layer must stay within 2% of a build
  with the call sites no-opped out, and enabling it may cost at most
  1.10× on the serve single-request path;
* **query on-demand** — a selective SELECT answered by impute-on-demand
  evaluation versus pre-imputing only the touched rows by hand (at most
  1.1×) and versus materializing the whole table (strictly slower).  All
  strategies return bit-identical rows.

The facade and observability trace is the ``streaming`` scenario generator
at ``(dataset="sn", size=2 × the profile's sn size, n_rounds=8,
initial_fraction=0.5, seed=0)``; its spec is part of both records.
"""

import contextlib
import gc
import json
import threading
import time

import numpy as np
import pytest

from repro import config
from repro.api import ImputeRequest, MutationOp, OnlineSession, encode_rows
from repro.data import load_dataset
from repro.obs import reset_observability
from repro.online import OnlineImputationEngine
from repro.online import engine as engine_module
from repro.online import store as store_module
from repro.query import execute_query, parse_statement, plan_query
from repro.scenarios import ScenarioSpec, generate_trace

#: The acceptance bar: the session facade may cost at most 5% wall-clock
#: over direct engine calls on the streaming trace.
FACADE_OVERHEAD_TOLERANCE = 1.05

#: Observability bars: with the layer disabled, the instrumented engine may
#: cost at most 2% over the same trace with the call sites no-opped out; on
#: the serve single-request path, enabling the layer may cost at most 1.10x.
OBS_DISABLED_TOLERANCE = 1.02
OBS_SERVE_ENABLED_TOLERANCE = 1.10

#: Concurrency bar: at 4 concurrent sessions the best dispatch mode must
#: beat the single-lock sequential baseline by at least 2x aggregate req/s.
CONCURRENCY_SPEEDUP_FLOOR = 2.0

#: Query bars: answering a selective SELECT on demand may cost at most
#: 1.1x pre-imputing exactly the touched rows by hand, and must beat
#: materializing the full table (imputing every incomplete row) outright.
QUERY_ONDEMAND_TOLERANCE = 1.10
QUERY_FULL_SPEEDUP_FLOOR = 1.0

N_SINGLE = 200
N_BATCHED = 40
BATCH_SIZE = 64


@pytest.fixture(scope="module")
def streaming_trace(profile, bench_params):
    """The facade/obs trace: ``(spec, initial store, [(block, queries)])``."""
    size = 2 * profile.dataset_sizes["sn"]
    spec = ScenarioSpec(
        name="api_facade",
        generator="streaming",
        params={"dataset": "sn", "size": size, "n_rounds": 8,
                "initial_fraction": 0.5,
                "queries_per_round": min(profile.asf_incomplete, size // 8)},
        model=bench_params,
        seed=0,
    )
    fit, *rounds = generate_trace(spec).steps
    return spec, fit.append_rows, [(s.append_rows, s.queries) for s in rounds]


def _drive_direct(params, initial, rounds):
    """The trace through raw engine calls; returns (seconds, imputations)."""
    engine = OnlineImputationEngine(**params)
    outputs = []
    start = time.perf_counter()
    engine.append(initial)
    for block, queries in rounds:
        engine.append(block)
        outputs.append(engine.impute_batch(queries))
    return time.perf_counter() - start, outputs


def _drive_session(params, initial, rounds):
    """The identical trace through the session facade."""
    session = OnlineSession(**params)
    outputs = []
    start = time.perf_counter()
    session.mutate([MutationOp.append(initial)])
    for block, queries in rounds:
        session.mutate([MutationOp.append(block)])
        outputs.append(session.impute(ImputeRequest(queries)))
    return time.perf_counter() - start, outputs


def _single_row_lines(values, store_rows, n, rng, session="bench"):
    """Pre-encoded single-row imputes of ``values[store_rows:]``, one random
    cell blanked each."""
    lines = []
    for i in range(n):
        row = [float(cell) for cell in values[store_rows + i]]
        row[int(rng.integers(values.shape[1]))] = None
        lines.append(json.dumps(
            {"v": 1, "id": i, "cmd": "impute", "session": session, "rows": [row]}
        ))
    return lines


def test_facade_overhead(streaming_trace, bench_params, write_report):
    spec, initial, rounds = streaming_trace
    direct_seconds, session_seconds = [], []
    for _ in range(6):
        seconds, direct_out = _drive_direct(bench_params, initial, rounds)
        direct_seconds.append(seconds)
        seconds, session_out = _drive_session(bench_params, initial, rounds)
        session_seconds.append(seconds)
        for direct_block, session_block in zip(direct_out, session_out):
            assert np.array_equal(direct_block, session_block), (
                "session facade diverged from direct engine calls"
            )
    ratio = min(session_seconds) / min(direct_seconds)
    write_report("api", facade_overhead={
        "spec": spec.to_dict(), "direct_seconds": min(direct_seconds),
        "session_seconds": min(session_seconds), "overhead_ratio": ratio,
        "bit_identical": True,
    })
    assert ratio <= FACADE_OVERHEAD_TOLERANCE, (
        f"session facade costs x{ratio:.3f} over direct engine calls "
        f"(bar: x{FACADE_OVERHEAD_TOLERANCE})"
    )


def test_serve_throughput(profile, ask, serve_sessions, write_report):
    store_rows = profile.dataset_sizes["sn"]
    values = load_dataset("sn", size=store_rows + N_SINGLE + BATCH_SIZE).raw
    width = values.shape[1]
    server = serve_sessions(values, store_rows, {"bench": range(width)})
    rng = np.random.default_rng(1)

    single_lines = _single_row_lines(values, store_rows, N_SINGLE, rng)
    start = time.perf_counter()
    for line in single_lines:
        ask(server, line)
    single_seconds = time.perf_counter() - start

    batched_lines = []
    for i in range(N_BATCHED):
        rows = []
        for j in range(BATCH_SIZE):
            row = [float(cell) for cell in
                   values[store_rows + (i * BATCH_SIZE + j) % N_SINGLE]]
            row[int(rng.integers(width))] = None
            rows.append(row)
        batched_lines.append(json.dumps(
            {"v": 1, "id": i, "cmd": "impute", "session": "bench", "rows": rows}
        ))
    start = time.perf_counter()
    for line in batched_lines:
        ask(server, line)
    batched_seconds = time.perf_counter() - start

    stats = ask(server, {"cmd": "stats", "session": "bench"})
    section = {
        "store_rows": store_rows,
        "single_requests_per_second": N_SINGLE / single_seconds,
        "batched_requests_per_second": N_BATCHED / batched_seconds,
        "batched_rows_per_second": N_BATCHED * BATCH_SIZE / batched_seconds,
        "batch_size": BATCH_SIZE,
        "engine_counters": stats["counters"],
        "memory": stats["memory"],
    }
    write_report("api", serve_throughput=section)
    # Sanity floors, not performance bars: the serve loop must sustain a
    # non-trivial request rate even on the smallest CI machines.
    assert section["single_requests_per_second"] > 50
    assert section["batched_rows_per_second"] > 500


def test_serve_concurrency(profile, serve_sessions, write_report):
    """Each client owns one session and pipelines single-row imputes through
    :meth:`SessionServer.submit_line`, the entry point the transports use.
    Every mode's responses must match the sequential baseline's (same order,
    values within rtol 1e-9), so the sweep doubles as an equivalence proof
    for concurrent and coalesced dispatch."""
    store_rows = min(profile.dataset_sizes["sn"], 256)
    n_requests, client_counts = 120, (1, 2, 4, 8)
    values = load_dataset("sn", size=store_rows + n_requests + 1).raw
    width = values.shape[1]

    # One blanked attribute per client keeps its pipelined requests
    # coalescible (the micro-batcher merges same-pattern rows only).
    lines_by_client = []
    for client in range(max(client_counts)):
        queries = values[store_rows:store_rows + n_requests].copy()
        queries[:, client % width] = np.nan
        lines_by_client.append([
            json.dumps({"v": 1, "id": i, "cmd": "impute",
                        "session": f"c{client}", "rows": [row]})
            for i, row in enumerate(encode_rows(queries))
        ])

    def run_clients(server, clients):
        results = [[] for _ in range(clients)]

        def submit(client):
            for line in lines_by_client[client]:
                server.submit_line(line, results[client].append)

        threads = [threading.Thread(target=submit, args=(c,), daemon=True)
                   for c in range(clients)]
        # A coalesced window lasts ~25 ms; a full collection owed by earlier
        # allocations (~40 ms) landing in it would be read as dispatch cost.
        gc.collect()
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        server.scheduler.drain()
        seconds = time.perf_counter() - start
        for client, responses in enumerate(results):
            assert len(responses) == n_requests, (client, len(responses))
            failed = [r.get("error") for r in responses if not r.get("ok")]
            assert not failed, f"concurrent request failed: {failed[0]}"
        return seconds, [[r["result"]["rows"][0] for r in responses]
                         for responses in results]

    modes = {
        "baseline_single_lock": {"workers": 1, "microbatch_max_rows": 1},
        "concurrent": {"workers": 4, "microbatch_max_rows": 1},
        "coalesced": {"workers": 4, "microbatch_max_rows": 64},
    }
    sessions = {f"c{c}": [c % width] for c in range(max(client_counts))}
    report, reference = {}, {}
    for mode, knobs in modes.items():
        server = serve_sessions(values, store_rows, sessions,
                                microbatch_window_ms=0.0, **knobs)
        report[mode] = {}
        for clients in client_counts:
            seconds, rows = run_clients(server, clients)
            report[mode][str(clients)] = clients * n_requests / seconds
            if mode == "baseline_single_lock":
                reference[clients] = rows
            else:
                np.testing.assert_allclose(
                    np.asarray(rows, dtype=float), reference[clients],
                    rtol=1e-9, atol=1e-12,
                    err_msg=f"{mode} dispatch diverged from sequential "
                    f"dispatch at {clients} client(s)",
                )
        server.close_sessions()

    speedup = {mode: report[mode]["4"] / report["baseline_single_lock"]["4"]
               for mode in modes}
    write_report("api", serve_concurrency={
        "store_rows": store_rows, "requests_per_client": n_requests,
        "aggregate_requests_per_second": report, "speedup_at_4_clients": speedup,
        "results_match_sequential_rtol": 1e-9,
    })
    best = max(speedup.values())
    assert best >= CONCURRENCY_SPEEDUP_FLOOR, (
        f"best concurrent dispatch mode delivers only x{best:.2f} the "
        f"single-lock baseline at 4 clients (bar: x{CONCURRENCY_SPEEDUP_FLOOR})"
    )


def test_observability_overhead(
    profile, streaming_trace, bench_params, ask, serve_sessions, monkeypatch,
    write_report,
):
    """Three interleaved drives of the facade trace isolate the layer:
    ``noop`` (the instrumentation call sites replaced by no-ops, the closest
    stand-in for the uninstrumented engine), ``disabled`` (the real helpers
    with ``obs_enabled`` off) and ``enabled``.  The serve single-request path
    is timed disabled vs enabled on one server, toggling the knob between
    short interleaved rounds; each mode's minimum isolates the layer's cost
    from scheduler noise, which on a sub-millisecond request swamps it."""
    spec, initial, rounds = streaming_trace

    noop_span = contextlib.nullcontext()
    patch_sites = [
        (engine_module, "engine_phase", lambda phase: noop_span),
        (engine_module, "observe_imputed_cells", lambda *a, **k: None),
        (store_module, "count_store_rows", lambda *a, **k: None),
        (store_module, "count_journal_spill", lambda *a, **k: None),
    ]

    def drive_noop():
        with monkeypatch.context() as patch:
            for module, name, replacement in patch_sites:
                patch.setattr(module, name, replacement)
            return _drive_direct(bench_params, initial, rounds)[0]

    def drive_with_obs(enabled):
        with config.override("obs_enabled", enabled):
            return _drive_direct(bench_params, initial, rounds)[0]

    store_rows = profile.dataset_sizes["sn"]
    values = load_dataset("sn", size=store_rows + N_SINGLE + 1).raw
    server = serve_sessions(values, store_rows, {"bench": range(values.shape[1])})
    # Short rounds, many of them: each mode's minimum then lands in a quiet
    # scheduler window, which one long timed run rarely does.
    round_lines = _single_row_lines(
        values, store_rows, N_SINGLE, np.random.default_rng(1)
    )[:100]

    def serve_round(enabled):
        config.set("obs_enabled", enabled)
        start = time.perf_counter()
        for line in round_lines:
            ask(server, line)
        return time.perf_counter() - start

    # The per-site disabled cost is nanoseconds against a trace of numpy
    # work, so the 2% bar is really a noise bar: interleave many drives and
    # let each mode's minimum find its quiet window.
    facade = {"noop": [], "disabled": [], "enabled": []}
    serve = {False: [], True: []}
    gc_was_enabled = gc.isenabled()
    previous = config.get("obs_enabled")
    try:
        for _ in range(7):
            facade["noop"].append(drive_noop())
            facade["disabled"].append(drive_with_obs(False))
            facade["enabled"].append(drive_with_obs(True))
        # Collector pauses land unevenly across 30ms rounds and would be
        # read as observability cost; pyperf does the same for micro-runs.
        gc.collect()
        gc.disable()
        for _ in range(36):
            serve[False].append(serve_round(False))
            serve[True].append(serve_round(True))
    finally:
        if gc_was_enabled:
            gc.enable()
        config.set("obs_enabled", previous)
        server.close_sessions()
        reset_observability()

    noop = min(facade["noop"])
    section = {
        "spec": spec.to_dict(),
        "facade_disabled_ratio": min(facade["disabled"]) / noop,
        "facade_enabled_ratio": min(facade["enabled"]) / noop,
        "serve_single_disabled_rps": len(round_lines) / min(serve[False]),
        "serve_single_enabled_rps": len(round_lines) / min(serve[True]),
        "serve_single_enabled_ratio": min(serve[True]) / min(serve[False]),
    }
    write_report("api", obs_overhead=section)
    assert section["facade_disabled_ratio"] <= OBS_DISABLED_TOLERANCE, (
        f"disabled observability costs x{section['facade_disabled_ratio']:.3f} "
        f"over the no-opped engine (bar: x{OBS_DISABLED_TOLERANCE})"
    )
    assert section["serve_single_enabled_ratio"] <= OBS_SERVE_ENABLED_TOLERANCE, (
        f"enabling observability costs "
        f"x{section['serve_single_enabled_ratio']:.3f} on the serve "
        f"single-request path (bar: x{OBS_SERVE_ENABLED_TOLERANCE})"
    )


def test_query_ondemand(profile, bench_params, write_report):
    """One engine holds the profile's sn store plus a pending side-store in
    which 512 tuples miss the queried attribute and 256 more carry holes in
    attributes the query never references.  Three ways to answer the same
    selective SELECT: ``ondemand`` (:func:`~repro.query.execute_query`,
    timed with provenance capture off so all strategies do the same work;
    the provenance-enabled run is informational), ``touched`` (the ideal
    lower bound: the touched rows imputed up front, then the same numpy
    filter/sort/limit without query machinery) and ``full`` (impute every
    incomplete row first)."""
    store_rows, touched_rows, untouched = profile.dataset_sizes["sn"], 512, 256
    values = load_dataset("sn", size=store_rows + touched_rows + untouched).raw
    rng = np.random.default_rng(5)
    engine = OnlineImputationEngine(**bench_params)
    engine.append(values[:store_rows])
    pending = values[store_rows:].copy()
    pending[:touched_rows, 0] = np.nan
    holes = 1 + rng.integers(0, values.shape[1] - 1, size=untouched)
    pending[touched_rows + np.arange(untouched), holes] = np.nan
    engine.append(pending, allow_incomplete=True)

    threshold = float(np.median(values[:store_rows, 0]))
    statement = f"SELECT A1 WHERE A1 >= {threshold!r} ORDER BY A1 DESC LIMIT 10;"
    referenced = list(plan_query(parse_statement(statement), engine.schema).referenced)

    def preimpute(full):
        matrix = np.array(
            engine.store_relation(include_pending=True).raw, dtype=float
        )
        mask = np.isnan(matrix)
        rows = np.flatnonzero(
            mask.any(axis=1) if full else mask[:, referenced].any(axis=1)
        )
        if rows.size:
            matrix[rows] = engine.impute_batch(matrix[rows])
        keep = np.flatnonzero(matrix[:, 0] >= threshold)
        order = keep[np.argsort(-matrix[keep, 0], kind="stable")][:10]
        return matrix[order][:, [0]]

    # The bar compares "ondemand" against "touched": keep them adjacent in
    # the round-robin so they always run under near-identical conditions.
    strategies = {
        "ondemand": lambda: execute_query(engine, statement, provenance=False).rows,
        "touched": lambda: preimpute(full=False),
        "provenance": lambda: execute_query(engine, statement, provenance=True).rows,
        "full": lambda: preimpute(full=True),
    }
    # One untimed pass warms every kernel cache and pins down correctness.
    warm = {name: run() for name, run in strategies.items()}
    for name in ("touched", "provenance", "full"):
        assert np.array_equal(warm["ondemand"], warm[name]), (
            f"on-demand query diverged from the {name!r} strategy"
        )

    # Single ~1ms calls are dominated by scheduler noise: each sample times
    # a block of 10 consecutive calls, and samples are collected round-robin
    # so clock drift hits every strategy alike.  One untimed call re-warms
    # caches before each block: whichever strategy follows the
    # allocation-heavy full materialization would otherwise pay its cache
    # evictions.
    samples = {name: [] for name in strategies}
    gc.collect()
    for _ in range(8):
        for name, run in strategies.items():
            run()
            start = time.perf_counter()
            for _ in range(10):
                run()
            samples[name].append((time.perf_counter() - start) / 10)
    best = {name: min(times) for name, times in samples.items()}
    section = {
        "store_rows": store_rows,
        "pending_rows": touched_rows + untouched,
        "touched_rows": touched_rows,
        "statement": statement,
        "seconds": best,
        "ondemand_vs_touched_ratio": best["ondemand"] / best["touched"],
        "full_vs_ondemand_speedup": best["full"] / best["ondemand"],
        "bit_identical": True,
    }
    write_report("api", query_ondemand=section)
    assert section["ondemand_vs_touched_ratio"] <= QUERY_ONDEMAND_TOLERANCE, (
        f"impute-on-demand evaluation costs "
        f"x{section['ondemand_vs_touched_ratio']:.3f} over pre-imputing the "
        f"touched rows by hand (bar: x{QUERY_ONDEMAND_TOLERANCE})"
    )
    assert section["full_vs_ondemand_speedup"] > QUERY_FULL_SPEEDUP_FLOOR, (
        f"on a selective query the on-demand path must beat full-table "
        f"materialization; got only x{section['full_vs_ondemand_speedup']:.3f}"
    )
