"""CSV-trace replay for the online imputation engine (``python -m repro replay``).

Replays a relation as an append/impute trace: rows are consumed in order,
complete rows are appended to the engine's store, incomplete rows (missing
cells encoded as empty fields, ``?`` or ``NA``) are imputed against the
store built so far.  Per-batch latency and a final summary (engine
counters, store size) are printed.

Trace files written in the :mod:`repro.query` statement language are
detected automatically (the first meaningful token is a statement
keyword) and replayed through the query executor — the preferred
lifecycle-trace format::

    -- churn.sql
    APPEND VALUES (1.0, 2.0, 3.0), (1.5, ?, 2.9);
    SELECT a, b WHERE c > 2 ORDER BY a LIMIT 5;
    UPDATE 0 SET a = 1.1;
    DELETE 0, 2;
    IMPUTE;

(``?`` marks a missing cell; incomplete appends park in the pending
side-store until ``IMPUTE`` promotes them; ``SELECT`` imputes referenced
missing cells on demand without mutating the store.)

With ``--ops`` the CSV is the **deprecated** lifecycle format instead:
each row names an operation plus its operands::

    op,index,a,b,c
    append,,1.0,2.0,3.0
    impute,,1.5,,2.9
    update,0,1.1,2.0,3.0
    delete,0;2,,,

(``index`` is empty for append/impute, a store index for update, and one or
more ``;``-separated store indices for delete; ``delete`` rows may leave
the value fields empty.)  Replaying one emits a single
:class:`DeprecationWarning` pointing at the statement-trace format.

Examples
--------
Replay a CSV file in batches of 64 and snapshot the fitted engine::

    python -m repro replay trace.csv --batch-size 64 --snapshot artifacts/engine

Restore the snapshot and keep streaming::

    python -m repro replay more_rows.csv --restore artifacts/engine

Replay a lifecycle trace with delete/update operations::

    python -m repro replay churn.csv --ops --learning adaptive

No file at hand? Generate a synthetic trace from a paper dataset::

    python -m repro replay --demo 600 --dataset sn --missing-fraction 0.1

(The old ``python -m repro.online`` entry point still works as a
deprecation shim forwarding here.)
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .. import config
from ..data import load_dataset
from ..data.io import _parse_cell, read_csv, write_csv
from ..data.missing import inject_missing
from ..data.relation import Relation
from ..exceptions import DataError, ReproError
from .engine import OnlineImputationEngine


def _build_parser(prog: str = "python -m repro replay") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Replay a CSV relation as a streaming append/impute trace.",
    )
    parser.add_argument("csv", nargs="?", help="CSV trace to replay (see --demo)")
    parser.add_argument(
        "--no-header", action="store_true", help="the CSV file has no header row"
    )
    parser.add_argument(
        "--ops", action="store_true",
        help="(deprecated) the CSV is a lifecycle trace: op,index,values… "
        "rows replayed as append/impute/update/delete operations; write "
        "statement traces (APPEND/SELECT/UPDATE/DELETE/IMPUTE) instead",
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
    return parser


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


OPS_DEPRECATION_MESSAGE = (
    "the CSV --ops lifecycle format is deprecated; write the trace in the "
    "query statement language instead (APPEND VALUES …; UPDATE i SET …; "
    "DELETE …; IMPUTE; — 'python -m repro replay trace.sql' detects it "
    "automatically)"
)


def _is_statement_trace(path: str) -> bool:
    """True when the file's first meaningful token is a statement keyword.

    Statement traces are plain text (``--`` comments allowed), so sniffing
    the first token cleanly separates them from CSV traces — a CSV header
    or ``op,index,…`` row never starts with a bare statement keyword.
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


def _main_statements(args) -> int:
    """Replay a statement-language trace through the query executor."""
    from ..query import QueryResult, execute_script

    try:
        if args.ops:
            raise ReproError(
                "--ops expects the deprecated CSV lifecycle format; this "
                "file is a statement trace — drop --ops"
            )
        text = Path(args.csv).read_text()
        engine = _build_engine(args)
        begin = time.perf_counter()
        results = execute_script(engine, text)
        total_seconds = time.perf_counter() - begin
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

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


_OPS = ("append", "impute", "update", "delete")


def _parse_indices(field: str, lineno: int):
    try:
        return [int(token) for token in field.split(";") if token.strip()]
    except ValueError:
        raise DataError(
            f"line {lineno}: store indices must be ;-separated integers, "
            f"got {field!r}"
        ) from None


def _read_ops_trace(path: str, has_header: bool):
    """Parse a lifecycle trace CSV into ``(op, indices, values)`` triples."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"CSV file not found: {path}")
    with path.open("r", newline="") as handle:
        rows = [
            (lineno, row)
            for lineno, row in enumerate(csv.reader(handle), start=1)
            if row and any(cell.strip() for cell in row)
        ]
    if has_header:
        rows = rows[1:]
    if not rows:
        raise DataError(f"lifecycle trace {path} has no operation rows")
    operations = []
    for lineno, row in rows:
        op = row[0].strip().lower()
        if op not in _OPS:
            raise DataError(
                f"line {lineno}: unknown operation {row[0]!r} "
                f"(expected one of {_OPS})"
            )
        index_field = row[1].strip() if len(row) > 1 else ""
        if op == "delete":
            indices = _parse_indices(index_field, lineno) if index_field else []
            if not indices:
                raise DataError(f"line {lineno}: delete needs ;-separated indices")
            operations.append((op, indices, None))
            continue
        try:
            values = np.array([_parse_cell(cell) for cell in row[2:]], dtype=float)
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from None
        if op == "update":
            indices = _parse_indices(index_field, lineno) if index_field else []
            if len(indices) != 1:
                raise DataError(f"line {lineno}: update needs exactly one store index")
            operations.append((op, indices, values))
        else:
            operations.append((op, None, values))
    return operations


def _replay_ops(engine: OnlineImputationEngine, operations, batch_size: int):
    """Drive the engine through a lifecycle trace; returns imputed rows.

    Adjacent appends (and adjacent imputes) are batched up to
    ``batch_size`` so the replay exercises the same batched entry points a
    deployment would.
    """
    counts = {op: 0 for op in _OPS}
    imputed = []
    total_seconds = 0.0
    pending_op = None
    pending_rows = []

    def flush():
        nonlocal pending_op, total_seconds
        if not pending_rows:
            return
        block = np.vstack(pending_rows)
        begin = time.perf_counter()
        if pending_op == "append":
            engine.append(block)
        else:
            imputed.extend(engine.impute_batch(block))
        total_seconds += time.perf_counter() - begin
        pending_rows.clear()
        pending_op = None

    for op, indices, values in operations:
        counts[op] += 1
        if op in ("append", "impute"):
            if pending_op != op or len(pending_rows) >= batch_size:
                flush()
            pending_op = op
            pending_rows.append(values)
            continue
        flush()
        begin = time.perf_counter()
        if op == "delete":
            engine.delete(indices)
        else:
            engine.update(indices[0], values)
        total_seconds += time.perf_counter() - begin
    flush()
    return counts, imputed, total_seconds


def _main_ops(args) -> int:
    try:
        if not args.csv:
            raise ReproError("--ops requires a CSV trace path")
        operations = _read_ops_trace(args.csv, has_header=not args.no_header)
        engine = _build_engine(args)
        counts, imputed, total_seconds = _replay_ops(
            engine, operations, args.batch_size
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    stats = engine.stats
    print(
        f"replayed {sum(counts.values())} operations "
        f"({counts['append']} append, {counts['update']} update, "
        f"{counts['delete']} delete, {counts['impute']} impute) "
        f"in {total_seconds:.3f}s"
    )
    print(
        f"store holds {engine.n_tuples} tuples; {stats['imputed_cells']} cells "
        f"imputed; refreshes: {stats['incremental_refreshes']} incremental / "
        f"{stats['full_refreshes']} full / {stats['hybrid_full_rebuilds']} hybrid "
        f"rebuilds ({stats['rows_refreshed']} tuple models relearned)"
    )
    memory = engine.memory_stats()
    print(
        f"columnar store: {memory['n_shards']} shards × "
        f"{memory['shard_capacity']} rows, {memory['store_bytes']} payload "
        f"bytes; journal {memory['journal_entries']}/"
        f"{memory['journal_capacity']} entries ({memory['journal_bytes']} "
        f"bytes); {memory['recycled_slots']} slots recycled"
    )
    if args.output and imputed:
        write_csv(
            Relation(np.vstack(imputed), engine.schema), args.output
        )
        print(f"imputed rows written to {args.output}")
    if args.snapshot:
        path = engine.snapshot(args.snapshot)
        print(f"engine snapshot written to {path}")
    return 0


def main(argv=None, prog: str = "python -m repro replay") -> int:
    args = _build_parser(prog).parse_args(argv)
    if args.csv and args.demo is None and _is_statement_trace(args.csv):
        return _main_statements(args)
    if args.ops:
        warnings.warn(OPS_DEPRECATION_MESSAGE, DeprecationWarning, stacklevel=2)
        return _main_ops(args)
    try:
        trace = _load_trace(args)
        engine = _build_engine(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

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


if __name__ == "__main__":
    sys.exit(main())
