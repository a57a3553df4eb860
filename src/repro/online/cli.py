"""CSV-trace replay for the online imputation engine (``python -m repro replay``).

Replays a relation as an append/impute trace: rows are consumed in order,
complete rows are appended to the engine's store, incomplete rows (missing
cells encoded as empty fields, ``?`` or ``NA``) are imputed against the
store built so far.  Per-batch latency and a final summary (engine
counters, store size) are printed.

Trace files written in the :mod:`repro.query` statement language are
detected automatically (the first meaningful token is a statement
keyword) and replayed through the query executor — the lifecycle-trace
format, with deletes and updates::

    -- churn.sql
    APPEND VALUES (1.0, 2.0, 3.0), (1.5, ?, 2.9);
    SELECT a, b WHERE c > 2 ORDER BY a LIMIT 5;
    UPDATE 0 SET a = 1.1;
    DELETE 0, 2;
    IMPUTE;

(``?`` marks a missing cell; incomplete appends park in the pending
side-store until ``IMPUTE`` promotes them; ``SELECT`` imputes referenced
missing cells on demand without mutating the store.)

Examples
--------
Replay a CSV file in batches of 64 and snapshot the fitted engine::

    python -m repro replay trace.csv --batch-size 64 --snapshot artifacts/engine

Restore the snapshot and keep streaming::

    python -m repro replay more_rows.csv --restore artifacts/engine

Replay a lifecycle trace with delete/update operations::

    python -m repro replay churn.sql --learning adaptive

No file at hand? Generate a synthetic trace from a paper dataset::

    python -m repro replay --demo 600 --dataset sn --missing-fraction 0.1
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .. import config
from ..data import load_dataset
from ..data.io import read_csv, write_csv
from ..data.missing import inject_missing
from ..data.relation import Relation
from ..exceptions import ReproError
from .engine import OnlineImputationEngine


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Give ``parser`` (the ``replay`` subcommand) the replay arguments."""
    parser.add_argument(
        "csv", nargs="?", help="CSV or statement trace to replay (see --demo)"
    )
    parser.add_argument(
        "--no-header", action="store_true", help="the CSV file has no header row"
    )
    parser.add_argument(
        "--demo", type=int, metavar="N",
        help="skip the CSV and replay N rows of a synthetic dataset instead",
    )
    parser.add_argument(
        "--dataset", default="sn", help="synthetic dataset for --demo (default: sn)"
    )
    parser.add_argument(
        "--missing-fraction", type=float, default=0.1,
        help="fraction of --demo rows made incomplete (default: 0.1)",
    )
    parser.add_argument("--batch-size", type=int, default=64, help="trace batch size")
    parser.add_argument("--k", type=int, default=10, help="imputation neighbours")
    parser.add_argument(
        "--learning", choices=("adaptive", "fixed"), default="adaptive",
        help="IIM learning phase (default: adaptive)",
    )
    parser.add_argument(
        "--learning-neighbors", type=int, default=None,
        help="the fixed ℓ (required with --learning fixed)",
    )
    parser.add_argument("--stepping", type=int, default=5, help="adaptive stepping h")
    parser.add_argument(
        "--max-learning-neighbors", type=int, default=100,
        help="cap on the adaptive candidate ℓ grid (default: 100; this is what "
        "keeps streaming refreshes incremental once the store outgrows it)",
    )
    parser.add_argument(
        "--combination", choices=("voting", "uniform", "distance"), default="voting",
    )
    config.add_flags(parser, config.ENGINE_KNOBS)
    parser.add_argument("--snapshot", metavar="DIR", help="save the engine at the end")
    parser.add_argument("--restore", metavar="DIR", help="start from a saved engine")
    parser.add_argument(
        "--output", metavar="CSV", help="write the imputed trace rows to a CSV file"
    )


def _load_trace(args) -> Relation:
    if args.demo is not None:
        relation = load_dataset(args.dataset, size=args.demo)
        injection = inject_missing(
            relation, fraction=args.missing_fraction, random_state=0
        )
        return injection.dirty
    if not args.csv:
        raise ReproError("either a CSV path or --demo N is required")
    return read_csv(args.csv, has_header=not args.no_header)


def _build_engine(args) -> OnlineImputationEngine:
    if args.restore:
        engine = OnlineImputationEngine.load(args.restore)
        print(f"restored engine: {engine}")
        return engine
    iim_params = dict(
        k=args.k,
        learning=args.learning,
        stepping=args.stepping,
        max_learning_neighbors=args.max_learning_neighbors,
        combination=args.combination,
    )
    if args.learning == "fixed":
        iim_params["learning_neighbors"] = args.learning_neighbors
    return OnlineImputationEngine(
        **{name: getattr(args, name) for name in config.ENGINE_KNOBS},
        **iim_params,
    )


def _is_statement_trace(path: str) -> bool:
    """True when the file's first meaningful token is a statement keyword.

    Statement traces are plain text (``--`` comments allowed), so sniffing
    the first token cleanly separates them from CSV traces — a CSV header
    never starts with a bare statement keyword.
    """
    from ..query import STATEMENT_KEYWORDS

    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError):
        return False
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("--"):
            continue
        token = stripped.split(None, 1)[0].rstrip(";(,")
        return token.upper() in STATEMENT_KEYWORDS
    return False


def _run_statements(args) -> int:
    """Replay a statement-language trace through the query executor."""
    from ..query import QueryResult, execute_script

    text = Path(args.csv).read_text()
    engine = _build_engine(args)
    begin = time.perf_counter()
    results = execute_script(engine, text)
    total_seconds = time.perf_counter() - begin

    counts: dict = {}
    for position, result in enumerate(results, start=1):
        counts[result.kind] = counts.get(result.kind, 0) + 1
        if isinstance(result, QueryResult):
            print(
                f"  statement {position:3d}: {result.kind:<8} "
                f"{result.rows.shape[0]:4d} row(s) "
                f"({result.rows_scanned} scanned, "
                f"{result.rows_imputed} imputed on demand)"
            )
        else:
            detail = ", ".join(
                f"{key}={value}" for key, value in result.detail.items()
            )
            print(f"  statement {position:3d}: {result.kind:<8} {detail}")

    summary = ", ".join(f"{counts[kind]} {kind}" for kind in sorted(counts))
    print(
        f"replayed {len(results)} statements ({summary}) "
        f"in {total_seconds:.3f}s"
    )
    stats = engine.stats
    print(
        f"store holds {engine.n_tuples} tuples ({engine.n_pending} pending); "
        f"{stats['imputed_cells']} cells imputed; "
        f"refreshes: {stats['incremental_refreshes']} incremental / "
        f"{stats['full_refreshes']} full"
    )
    if args.output:
        print(
            "note: --output applies to CSV traces only; statement traces "
            "print per-statement results instead",
            file=sys.stderr,
        )
    if args.snapshot:
        path = engine.snapshot(args.snapshot)
        print(f"engine snapshot written to {path}")
    return 0


def run(args) -> int:
    """Replay the trace ``args`` names (``python -m repro replay``)."""
    if args.csv and args.demo is None and _is_statement_trace(args.csv):
        return _run_statements(args)
    trace = _load_trace(args)
    engine = _build_engine(args)

    values = trace.raw
    n_rows = values.shape[0]
    imputed_rows = np.array(values, dtype=float)
    print(
        f"replaying {n_rows} rows × {values.shape[1]} attributes "
        f"in batches of {args.batch_size}"
    )

    total_seconds = 0.0
    for start in range(0, n_rows, args.batch_size):
        stop = min(start + args.batch_size, n_rows)
        block = values[start:stop]
        incomplete = np.isnan(block).any(axis=1)
        begin = time.perf_counter()
        if (~incomplete).any():
            engine.append(block[~incomplete])
        n_cells = 0
        if incomplete.any() and engine.n_tuples:
            queries = block[incomplete]
            n_cells = int(np.isnan(queries).sum())
            imputed_rows[np.arange(start, stop)[incomplete]] = engine.impute_batch(
                queries
            )
        elapsed = time.perf_counter() - begin
        total_seconds += elapsed
        print(
            f"  batch {start // args.batch_size:4d}: "
            f"+{int((~incomplete).sum()):4d} appended, "
            f"{n_cells:4d} cells imputed, {elapsed * 1000:8.2f} ms"
        )

    stats = engine.stats
    print(
        f"done: store holds {engine.n_tuples} tuples; "
        f"{stats['imputed_cells']} cells imputed in {total_seconds:.3f}s"
    )
    print(
        f"refreshes: {stats['incremental_refreshes']} incremental / "
        f"{stats['full_refreshes']} full ({stats['rows_refreshed']} tuple models "
        f"relearned); model cache: {stats['cache_hits']} hits, "
        f"{stats['cache_misses']} misses, {stats['cache_evictions']} evictions"
    )
    if args.output:
        write_csv(Relation(imputed_rows, trace.schema, name=trace.name), args.output)
        print(f"imputed trace written to {args.output}")
    if args.snapshot:
        path = engine.snapshot(args.snapshot)
        print(f"engine snapshot written to {path}")
    return 0
