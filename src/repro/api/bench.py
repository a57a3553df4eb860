"""Service-layer benchmarks: facade overhead and serve-loop throughput.

Two questions decide whether the :mod:`repro.api` redesign is free:

* **Facade overhead** — the streaming scenario driven through an
  :class:`~repro.api.OnlineSession` versus the identical trace driven by
  calling the :class:`~repro.online.OnlineImputationEngine` directly.  Both
  sides run the same seeds over the same engine configuration, so the
  imputations must be bit-identical and the wall-clock ratio isolates the
  session layer's dispatch cost (the acceptance bar is ≤ 5%).
* **Serve-loop throughput** — requests/s through the full JSONL path
  (JSON decode → session dispatch → impute → JSON encode) for single-row
  and batched impute requests, the first real serving numbers of the
  project.
* **Observability overhead** — the same facade trace driven with the
  :mod:`repro.obs` call sites no-opped out, with the layer disabled, and
  with it fully enabled (bars: disabled ≤ 2% over no-op, and the serve
  single-request path enabled ≤ 1.10× disabled).
* **Query on-demand** — a selective SELECT over a store with a skewed
  pending side-store, answered lazily versus pre-imputing the touched
  rows only and versus materializing the whole table (bars: on-demand
  ≤ 1.1× the touched-rows baseline, and strictly faster than full
  materialization).

:func:`run_api_benchmark` returns one JSON-shaped report;
``benchmarks/test_perf_api.py`` asserts the bars and writes it to
``BENCH_api.json``.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..data import load_dataset
from ..online.engine import OnlineImputationEngine
from .messages import ImputeRequest, MutationOp
from .serve import SessionServer
from .sessions import OnlineSession

__all__ = ["run_api_benchmark"]


def _build_trace(
    dataset: str, size: int, n_rounds: int, queries_per_round: int, seed: int
) -> Tuple[np.ndarray, List[np.ndarray], List[np.ndarray]]:
    """One deterministic append+query trace shared by every drive."""
    values = load_dataset(dataset, size=size).raw
    initial = values.shape[0] // 2
    batch = (values.shape[0] - initial) // n_rounds
    rng = np.random.default_rng(seed)
    blocks, query_blocks = [], []
    offset = initial
    for round_index in range(n_rounds):
        stop = offset + batch if round_index < n_rounds - 1 else values.shape[0]
        blocks.append(values[offset:stop])
        rows = rng.choice(offset, size=queries_per_round, replace=False)
        queries = values[rows].copy()
        blanked = rng.integers(0, values.shape[1], size=queries_per_round)
        queries[np.arange(queries_per_round), blanked] = np.nan
        query_blocks.append(queries)
        offset = stop
    return values[:initial], blocks, query_blocks


def _drive_direct(engine_params, initial, blocks, query_blocks):
    """The trace through raw engine calls; returns (seconds, imputations)."""
    engine = OnlineImputationEngine(**engine_params)
    outputs = []
    start = time.perf_counter()
    engine.append(initial)
    for block, queries in zip(blocks, query_blocks):
        engine.append(block)
        outputs.append(engine.impute_batch(queries))
    return time.perf_counter() - start, outputs


def _drive_session(engine_params, initial, blocks, query_blocks):
    """The identical trace through the session facade."""
    session = OnlineSession(**engine_params)
    outputs = []
    start = time.perf_counter()
    session.mutate([MutationOp.append(initial)])
    for block, queries in zip(blocks, query_blocks):
        session.mutate([MutationOp.append(block)])
        outputs.append(session.impute(ImputeRequest(queries)))
    return time.perf_counter() - start, outputs


def _measure_overhead(
    dataset: str,
    size: int,
    n_rounds: int,
    queries_per_round: int,
    engine_params: Dict[str, object],
    repeats: int,
) -> Dict[str, object]:
    initial, blocks, query_blocks = _build_trace(
        dataset, size, n_rounds, queries_per_round, seed=0
    )
    direct_seconds, session_seconds = [], []
    for _ in range(repeats):
        seconds, direct_out = _drive_direct(
            engine_params, initial, blocks, query_blocks
        )
        direct_seconds.append(seconds)
        seconds, session_out = _drive_session(
            engine_params, initial, blocks, query_blocks
        )
        session_seconds.append(seconds)
        for direct_block, session_block in zip(direct_out, session_out):
            if not np.array_equal(direct_block, session_block):
                raise AssertionError(
                    "session facade diverged from direct engine calls"
                )
    direct_best = min(direct_seconds)
    session_best = min(session_seconds)
    return {
        "dataset": dataset,
        "size": size,
        "n_rounds": n_rounds,
        "queries_per_round": queries_per_round,
        "direct_seconds": direct_best,
        "session_seconds": session_best,
        "overhead_ratio": session_best / direct_best,
        "bit_identical": True,
    }


def _measure_serve_throughput(
    dataset: str,
    store_rows: int,
    n_single: int,
    n_batched: int,
    batch_size: int,
    engine_params: Dict[str, object],
) -> Dict[str, object]:
    """Requests/s through the full JSONL path, single-row and batched."""
    values = load_dataset(dataset, size=store_rows + n_single + batch_size).raw
    width = values.shape[1]
    server = SessionServer()
    config_params = dict(engine_params)

    def ask(request: Dict[str, object]) -> Dict[str, object]:
        response = server.handle_line(json.dumps(request))
        if not response["ok"]:
            raise AssertionError(f"serve request failed: {response['error']}")
        return response["result"]

    ask({
        "v": 1, "cmd": "create", "session": "bench",
        "config": {"method": "IIM", "mode": "online", "params": config_params},
    })
    ask({
        "v": 1, "cmd": "append", "session": "bench",
        "rows": [[float(cell) for cell in row] for row in values[:store_rows]],
    })

    rng = np.random.default_rng(1)

    def wire_row(row: np.ndarray, blank: int) -> List[Optional[float]]:
        cells: List[Optional[float]] = [float(cell) for cell in row]
        cells[blank] = None
        return cells

    # Warm every attribute state before timing: production serving runs warm.
    for attribute in range(width):
        ask({
            "v": 1, "cmd": "impute", "session": "bench",
            "rows": [wire_row(values[store_rows], attribute)],
        })

    single_lines = []
    for i in range(n_single):
        row = wire_row(
            values[store_rows + (i % n_single)], int(rng.integers(width))
        )
        single_lines.append(json.dumps(
            {"v": 1, "id": i, "cmd": "impute", "session": "bench", "rows": [row]}
        ))
    start = time.perf_counter()
    for line in single_lines:
        response = server.handle_line(line)
        if not response["ok"]:
            raise AssertionError(f"serve request failed: {response['error']}")
    single_seconds = time.perf_counter() - start

    batched_lines = []
    for i in range(n_batched):
        rows = []
        for j in range(batch_size):
            rows.append(wire_row(
                values[store_rows + ((i * batch_size + j) % n_single)],
                int(rng.integers(width)),
            ))
        batched_lines.append(json.dumps(
            {"v": 1, "id": i, "cmd": "impute", "session": "bench", "rows": rows}
        ))
    start = time.perf_counter()
    for line in batched_lines:
        response = server.handle_line(line)
        if not response["ok"]:
            raise AssertionError(f"serve request failed: {response['error']}")
    batched_seconds = time.perf_counter() - start

    stats = ask({"v": 1, "cmd": "stats", "session": "bench"})
    return {
        "dataset": dataset,
        "store_rows": store_rows,
        "single_requests": n_single,
        "single_seconds": single_seconds,
        "single_requests_per_second": n_single / single_seconds,
        "batched_requests": n_batched,
        "batch_size": batch_size,
        "batched_seconds": batched_seconds,
        "batched_requests_per_second": n_batched / batched_seconds,
        "batched_rows_per_second": n_batched * batch_size / batched_seconds,
        "engine_counters": stats["counters"],
        "memory": stats["memory"],
    }


def _measure_concurrency_sweep(
    dataset: str,
    store_rows: int,
    n_requests: int,
    client_counts: Tuple[int, ...],
    engine_params: Dict[str, object],
) -> Dict[str, object]:
    """Aggregate req/s of N pipelining clients × dispatch mode.

    Each client owns one session (its own store) and pipelines
    ``n_requests`` single-row imputes through :meth:`SessionServer.submit_line`
    — the same entry point the transports use.  Three dispatch modes:

    * ``baseline_single_lock`` — one worker, no coalescing: the sequential
      dispatch the global-lock server used to do, the baseline to beat;
    * ``concurrent`` — the worker pool without coalescing (pure
      cross-session thread parallelism);
    * ``coalesced`` — the pool plus the micro-batcher merging each
      session's pipelined single-row imputes into batched kernel calls.

    Every mode's responses are compared against the sequential baseline's
    (same order, values within rtol 1e-9), so the sweep doubles as an
    equivalence proof for concurrent and coalesced dispatch.
    """
    values = load_dataset(dataset, size=store_rows + n_requests + 1).raw
    width = values.shape[1]
    max_clients = max(client_counts)
    config_params = dict(engine_params)

    def build_server(workers: int, microbatch_max_rows: int) -> SessionServer:
        server = SessionServer(
            workers=workers,
            microbatch_max_rows=microbatch_max_rows,
            microbatch_window_ms=0.0,
        )

        def ask(request: Dict[str, object]) -> None:
            response = server.handle_line(json.dumps(request))
            if not response["ok"]:
                raise AssertionError(
                    f"serve request failed: {response['error']}"
                )

        store = [[float(cell) for cell in row] for row in values[:store_rows]]
        for client in range(max_clients):
            name = f"c{client}"
            ask({
                "v": 1, "cmd": "create", "session": name,
                "config": {
                    "method": "IIM", "mode": "online", "params": config_params,
                },
            })
            ask({"v": 1, "cmd": "append", "session": name, "rows": store})
            # Warm the attribute this client will query: serving runs warm.
            warm: List[Optional[float]] = [
                float(cell) for cell in values[store_rows]
            ]
            warm[client % width] = None
            ask({"v": 1, "cmd": "impute", "session": name, "rows": [warm]})
        return server

    def client_lines(client: int) -> List[str]:
        # One blanked attribute per client keeps its pipelined requests
        # coalescible (the micro-batcher merges same-pattern rows only).
        blank = client % width
        lines = []
        for i in range(n_requests):
            row: List[Optional[float]] = [
                float(cell) for cell in values[store_rows + (i % n_requests)]
            ]
            row[blank] = None
            lines.append(json.dumps({
                "v": 1, "id": i, "cmd": "impute",
                "session": f"c{client}", "rows": [row],
            }))
        return lines

    lines_by_client = [client_lines(c) for c in range(max_clients)]

    def run_clients(server: SessionServer, clients: int):
        results: List[List[Dict[str, object]]] = [[] for _ in range(clients)]

        def submit(client: int) -> None:
            sink = results[client].append
            for line in lines_by_client[client]:
                server.submit_line(line, sink)

        threads = [
            threading.Thread(target=submit, args=(client,), daemon=True)
            for client in range(clients)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        server.scheduler.drain()
        seconds = time.perf_counter() - start
        rows = []
        for client, responses in enumerate(results):
            if len(responses) != n_requests:
                raise AssertionError(
                    f"client {client} got {len(responses)} responses, "
                    f"expected {n_requests}"
                )
            for response in responses:
                if not response.get("ok"):
                    raise AssertionError(
                        f"concurrent request failed: {response.get('error')}"
                    )
            rows.append([r["result"]["rows"][0] for r in responses])
        return seconds, rows

    modes = {
        "baseline_single_lock": {"workers": 1, "microbatch_max_rows": 1},
        "concurrent": {"workers": 4, "microbatch_max_rows": 1},
        "coalesced": {"workers": 4, "microbatch_max_rows": 64},
    }
    report: Dict[str, object] = {
        "dataset": dataset,
        "store_rows": store_rows,
        "requests_per_client": n_requests,
        "client_counts": list(client_counts),
        "modes": {},
    }
    reference_rows: Dict[int, List[List[List[float]]]] = {}
    for mode, knobs in modes.items():
        server = build_server(**knobs)
        entry: Dict[str, object] = {
            "workers": knobs["workers"],
            "microbatch_max_rows": knobs["microbatch_max_rows"],
            "by_clients": {},
        }
        try:
            for clients in client_counts:
                seconds, rows = run_clients(server, clients)
                entry["by_clients"][str(clients)] = {
                    "seconds": seconds,
                    "aggregate_requests_per_second": (
                        clients * n_requests / seconds
                    ),
                }
                if mode == "baseline_single_lock":
                    reference_rows[clients] = rows
                elif not np.allclose(
                    np.asarray(rows, dtype=float),
                    np.asarray(reference_rows[clients], dtype=float),
                    rtol=1e-9, atol=1e-12,
                ):
                    raise AssertionError(
                        f"{mode} dispatch diverged from sequential dispatch "
                        f"at {clients} client(s)"
                    )
            if mode == "coalesced":
                entry["microbatch"] = (
                    server.scheduler.snapshot()["microbatch"]
                )
        finally:
            server.close_sessions()
        report["modes"][mode] = entry

    def rps(mode: str, clients: int) -> float:
        return report["modes"][mode]["by_clients"][str(clients)][
            "aggregate_requests_per_second"
        ]

    baseline_at_4 = rps("baseline_single_lock", 4)
    report["speedup_at_4_clients"] = {
        mode: rps(mode, 4) / baseline_at_4 for mode in modes
    }
    report["best_speedup_at_4_clients"] = max(
        report["speedup_at_4_clients"].values()
    )
    report["results_match_sequential_rtol"] = 1e-9
    return report


def _measure_obs_overhead(
    dataset: str,
    size: int,
    n_rounds: int,
    queries_per_round: int,
    engine_params: Dict[str, object],
    repeats: int,
    store_rows: int,
    n_single: int,
) -> Dict[str, object]:
    """Cost of the observability layer on the hot paths.

    Three interleaved drives of the facade trace isolate the layer:

    * ``noop`` — the instrumentation call sites replaced by no-ops, the
      closest stand-in for the uninstrumented engine;
    * ``disabled`` — the real helpers with ``obs_enabled`` off (one function
      call plus one boolean check per site);
    * ``enabled`` — full metric and span accounting.

    The serve single-request path is additionally timed disabled vs enabled
    because it layers request histograms and trace-id issue on top of the
    engine-side sites.  One server handles every round and the knob is
    toggled between short interleaved rounds — taking the per-mode minimum
    across rounds isolates the layer's cost from scheduler noise, which on
    a sub-millisecond request otherwise swamps it.
    """
    from .. import config
    from ..obs import reset_observability
    from ..online import engine as engine_module
    from ..online import store as store_module

    initial, blocks, query_blocks = _build_trace(
        dataset, size, n_rounds, queries_per_round, seed=0
    )

    def _noop(*args, **kwargs):
        return None

    class _NoopSpan:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    noop_span = _NoopSpan()

    def _noop_phase(phase):
        return noop_span

    patch_sites = [
        (engine_module, "engine_phase", _noop_phase),
        (engine_module, "observe_imputed_cells", _noop),
        (store_module, "count_store_rows", _noop),
        (store_module, "count_journal_spill", _noop),
    ]

    def _drive_noop() -> float:
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patch_sites]
        for mod, name, replacement in patch_sites:
            setattr(mod, name, replacement)
        try:
            seconds, _ = _drive_direct(engine_params, initial, blocks, query_blocks)
        finally:
            for mod, name, original in saved:
                setattr(mod, name, original)
        return seconds

    def _drive_with_obs(enabled: bool) -> float:
        with config.override("obs_enabled", enabled):
            seconds, _ = _drive_direct(engine_params, initial, blocks, query_blocks)
        return seconds

    values = load_dataset(dataset, size=store_rows + n_single + 1).raw
    width = values.shape[1]

    server = SessionServer()

    def ask(request: Dict[str, object]) -> Dict[str, object]:
        response = server.handle_line(json.dumps(request))
        if not response["ok"]:
            raise AssertionError(f"serve request failed: {response['error']}")
        return response["result"]

    ask({
        "v": 1, "cmd": "create", "session": "bench-obs",
        "config": {
            "method": "IIM", "mode": "online", "params": dict(engine_params),
        },
    })
    ask({
        "v": 1, "cmd": "append", "session": "bench-obs",
        "rows": [[float(cell) for cell in row] for row in values[:store_rows]],
    })
    rng = np.random.default_rng(1)
    # Warm every attribute state before timing: production serving runs warm.
    for attribute in range(width):
        warm: List[Optional[float]] = [float(cell) for cell in values[store_rows]]
        warm[attribute] = None
        ask({"v": 1, "cmd": "impute", "session": "bench-obs", "rows": [warm]})
    lines = []
    for i in range(n_single):
        row: List[Optional[float]] = [
            float(cell) for cell in values[store_rows + (i % n_single)]
        ]
        row[int(rng.integers(width))] = None
        lines.append(json.dumps({
            "v": 1, "id": i, "cmd": "impute", "session": "bench-obs",
            "rows": [row],
        }))

    # Short rounds, many of them: each mode's minimum then lands in a quiet
    # scheduler window, which one long timed run rarely does.
    round_lines = lines[: min(len(lines), 100)]

    def _serve_round_seconds() -> float:
        start = time.perf_counter()
        for line in round_lines:
            response = server.handle_line(line)
            if not response["ok"]:
                raise AssertionError(f"serve request failed: {response['error']}")
        return time.perf_counter() - start

    serve_rounds = max(12 * repeats, 36)
    gc_was_enabled = gc.isenabled()
    noop_seconds, disabled_seconds, enabled_seconds = [], [], []
    serve_disabled, serve_enabled = [], []
    # The per-site disabled cost is nanoseconds against a trace of numpy
    # work, so the 2% bar is really a noise bar: interleave many drives and
    # let each mode's minimum find its quiet window.
    facade_repeats = max(2 * repeats, 7)
    previous = config.get("obs_enabled")
    try:
        for _ in range(facade_repeats):
            noop_seconds.append(_drive_noop())
            disabled_seconds.append(_drive_with_obs(False))
            enabled_seconds.append(_drive_with_obs(True))
        # Collector pauses land unevenly across 30ms rounds and would be
        # read as observability cost; pyperf does the same for micro-runs.
        gc.collect()
        gc.disable()
        for _ in range(serve_rounds):
            config.set("obs_enabled", False)
            serve_disabled.append(_serve_round_seconds())
            config.set("obs_enabled", True)
            serve_enabled.append(_serve_round_seconds())
    finally:
        if gc_was_enabled:
            gc.enable()
        config.set("obs_enabled", previous)
        server.close_sessions()
        reset_observability()

    # Each mode's minimum across many interleaved rounds approximates its
    # noise-free runtime, so the ratio of minimums isolates the layer's
    # systematic cost from scheduler bursts.
    noop_best = min(noop_seconds)
    disabled_best = min(disabled_seconds)
    enabled_best = min(enabled_seconds)
    serve_disabled_best = min(serve_disabled)
    serve_enabled_best = min(serve_enabled)
    return {
        "facade_repeats": facade_repeats,
        "facade_noop_seconds": noop_best,
        "facade_disabled_seconds": disabled_best,
        "facade_enabled_seconds": enabled_best,
        "facade_disabled_ratio": disabled_best / noop_best,
        "facade_enabled_ratio": enabled_best / noop_best,
        "serve_single_requests": len(round_lines),
        "serve_single_rounds": serve_rounds,
        "serve_single_disabled_seconds": serve_disabled_best,
        "serve_single_enabled_seconds": serve_enabled_best,
        "serve_single_disabled_rps": len(round_lines) / serve_disabled_best,
        "serve_single_enabled_rps": len(round_lines) / serve_enabled_best,
        "serve_single_enabled_ratio": serve_enabled_best / serve_disabled_best,
    }


def _measure_query_ondemand(
    dataset: str,
    store_rows: int,
    touched_rows: int,
    untouched_incomplete: int,
    repeats: int,
    engine_params: Dict[str, object],
) -> Dict[str, object]:
    """Impute-on-demand query evaluation against two pre-impute baselines.

    One engine holds ``store_rows`` complete tuples plus a pending
    side-store in which only ``touched_rows`` tuples are missing the
    queried attribute — the other ``untouched_incomplete`` tuples carry
    holes in attributes the query never references.  Three ways to answer
    the same selective SELECT:

    * ``ondemand`` — :func:`~repro.query.execute_query`: parse, plan,
      impute exactly the touched rows in one batch, evaluate.  Timed with
      provenance capture off so all three strategies do the same work;
      the provenance-enabled run is reported separately
      (``ondemand_provenance_seconds``), it is informational, not a bar;
    * ``preimpute_touched`` — the ideal lower bound: the same touched-row
      batch imputed up front, then the same numpy filter/sort/limit with
      no query machinery around it.  The bar: on-demand ≤ 1.1× this (the
      parse/plan/result wrapper must stay under 10%);
    * ``preimpute_full`` — materialize the whole table first (impute every
      incomplete row), then evaluate.  On a selective query the on-demand
      path must beat it outright: that gap is the point of lazy
      evaluation.

    All three produce bit-identical result blocks (asserted).
    """
    from ..query import execute_query, parse_statement, plan_query

    values = load_dataset(
        dataset, size=store_rows + touched_rows + untouched_incomplete
    ).raw
    width = values.shape[1]
    rng = np.random.default_rng(5)
    engine = OnlineImputationEngine(**engine_params)
    engine.append(values[:store_rows])
    pending = values[store_rows:].copy()
    # the queried attribute's holes land in the first touched_rows tuples;
    # every other pending tuple is incomplete somewhere else
    pending[:touched_rows, 0] = np.nan
    other = np.arange(untouched_incomplete)
    holes = 1 + rng.integers(0, width - 1, size=untouched_incomplete)
    pending[touched_rows + other, holes] = np.nan
    engine.append(pending, allow_incomplete=True)

    threshold = float(np.median(values[:store_rows, 0]))
    statement_text = (
        f"SELECT A1 WHERE A1 >= {threshold!r} ORDER BY A1 DESC LIMIT 10;"
    )
    statement = parse_statement(statement_text)
    plan = plan_query(statement, engine.schema)
    referenced = np.array(plan.referenced, dtype=int)

    def _evaluate(matrix: np.ndarray) -> np.ndarray:
        keep = np.flatnonzero(matrix[:, 0] >= threshold)
        order = keep[np.argsort(-matrix[keep, 0], kind="stable")][:10]
        return matrix[order][:, [0]]

    def _run_ondemand(collect_provenance: bool) -> np.ndarray:
        return execute_query(
            engine, statement_text, provenance=collect_provenance
        ).rows

    def _run_preimpute(full: bool) -> np.ndarray:
        matrix = np.array(
            engine.store_relation(include_pending=True).raw, dtype=float
        )
        mask = np.isnan(matrix)
        rows = np.flatnonzero(
            mask.any(axis=1) if full else mask[:, referenced].any(axis=1)
        )
        if rows.size:
            matrix[rows] = engine.impute_batch(matrix[rows])
        return _evaluate(matrix)

    # the bar compares "ondemand" against "touched": keep them adjacent in
    # the round-robin so they always run under near-identical conditions.
    strategies = {
        "ondemand": lambda: _run_ondemand(collect_provenance=False),
        "touched": lambda: _run_preimpute(full=False),
        "provenance": lambda: _run_ondemand(collect_provenance=True),
        "full": lambda: _run_preimpute(full=True),
    }

    # One untimed pass warms every kernel cache and pins down correctness.
    warm = {name: run() for name, run in strategies.items()}
    for name in ("touched", "provenance", "full"):
        if not np.array_equal(warm["ondemand"], warm[name]):
            raise AssertionError(
                f"on-demand query diverged from the {name!r} strategy"
            )

    # Single ~1ms calls are dominated by scheduler noise: each sample
    # times a block of consecutive calls, and samples are collected
    # round-robin so clock drift hits every strategy alike.  One untimed
    # call re-warms caches before each block — whichever strategy follows
    # the allocation-heavy full materialization would otherwise pay its
    # cache evictions.
    inner = 10
    samples: Dict[str, List[float]] = {name: [] for name in strategies}
    gc.collect()
    for _ in range(max(repeats, 8)):
        for name, run in strategies.items():
            run()
            start = time.perf_counter()
            for _ in range(inner):
                run()
            samples[name].append((time.perf_counter() - start) / inner)
    ondemand_best = min(samples["ondemand"])
    provenance_best = min(samples["provenance"])
    touched_best = min(samples["touched"])
    full_best = min(samples["full"])
    return {
        "dataset": dataset,
        "store_rows": store_rows,
        "pending_rows": touched_rows + untouched_incomplete,
        "touched_rows": touched_rows,
        "statement": statement_text,
        "repeats": repeats,
        "ondemand_seconds": ondemand_best,
        "ondemand_provenance_seconds": provenance_best,
        "preimpute_touched_seconds": touched_best,
        "preimpute_full_seconds": full_best,
        "ondemand_vs_touched_ratio": ondemand_best / touched_best,
        "full_vs_ondemand_speedup": full_best / ondemand_best,
        "bit_identical": True,
    }


def run_api_benchmark(
    profile=None,
    *,
    dataset: str = "sn",
    overhead_size: Optional[int] = None,
    n_rounds: int = 8,
    queries_per_round: Optional[int] = None,
    repeats: int = 2,
    store_rows: Optional[int] = None,
    n_single: int = 200,
    n_batched: int = 40,
    batch_size: int = 64,
    concurrency_requests: int = 120,
    concurrency_store_rows: Optional[int] = None,
    client_counts: Tuple[int, ...] = (1, 2, 4, 8),
    query_touched_rows: int = 512,
    query_untouched_incomplete: int = 256,
) -> Dict[str, object]:
    """Measure facade overhead and serve throughput; returns the report."""
    from ..experiments.settings import get_profile

    profile = profile or get_profile()
    overhead_size = overhead_size or 2 * profile.dataset_sizes[dataset]
    queries_per_round = queries_per_round or min(
        profile.asf_incomplete, overhead_size // 8
    )
    store_rows = store_rows or profile.dataset_sizes[dataset]
    concurrency_store_rows = concurrency_store_rows or min(store_rows, 256)
    engine_params = dict(
        k=profile.default_k,
        learning="adaptive",
        stepping=profile.iim_stepping,
        max_learning_neighbors=min(25, profile.iim_max_learning_neighbors),
    )
    return {
        "profile": profile.name,
        "facade_overhead": _measure_overhead(
            dataset, overhead_size, n_rounds, queries_per_round,
            engine_params, max(repeats, 6),
        ),
        "serve_throughput": _measure_serve_throughput(
            dataset, store_rows, n_single, n_batched, batch_size, engine_params,
        ),
        "serve_concurrency": _measure_concurrency_sweep(
            dataset, concurrency_store_rows, concurrency_requests,
            client_counts, engine_params,
        ),
        "obs_overhead": _measure_obs_overhead(
            dataset, overhead_size, n_rounds, queries_per_round,
            engine_params, max(repeats, 3), store_rows, n_single,
        ),
        "query_ondemand": _measure_query_ondemand(
            dataset, store_rows, query_touched_rows,
            query_untouched_incomplete, max(repeats, 3), engine_params,
        ),
    }
