"""Query executor: impute-on-demand evaluation over a live session.

Evaluation of a SELECT proceeds in four instrumented phases
(``repro_query_seconds{phase}``, spans nested under the serving request):

1. **parse** — tokenize + parse (skipped when given an AST);
2. **plan** — resolve attributes against the engine schema and analyse
   which rows the query *touches*: a row is touched iff it is missing a
   cell in a referenced attribute (select list, ``WHERE``, ``ORDER BY``);
3. **impute** — the touched rows are imputed **in one batch** through
   :meth:`~repro.online.engine.OnlineImputationEngine.impute_batch` (the
   vectorized kernels — never row-at-a-time), filling *all* their missing
   cells, exactly what pre-imputing those rows and then querying would
   compute (bit-identical under the vectorized backend, rtol 1e-9
   otherwise).  Every imputed cell's provenance (method, neighbours,
   per-neighbour ℓ, combiner weights, confidence, trace id) is captured
   unless the caller passes ``provenance=False``;
4. **evaluate** — filter, stable multi-key ordering, limit, and the
   projection or aggregates, all plain numpy over the materialised block.

The executor never mutates the session: on-demand imputations are
query-local (the store and the pending side-store are unchanged).  Data
statements (``APPEND``/``UPDATE``/``DELETE``/``IMPUTE``) route through
``session.mutate`` so the write-ahead log sees them like any other
mutation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import (
    QueryError,
    QuotaExceededError,
    UnsupportedOperationError,
)
from ..obs import count_query_rows, get_tracer, query_phase
from .nodes import (
    And,
    AppendStatement,
    ColumnRef,
    Comparison,
    DeleteStatement,
    Expression,
    ImputeStatement,
    Not,
    Or,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from .parser import parse_statement
from .planner import plan_query

__all__ = ["QueryResult", "StatementResult", "execute_query", "execute_script"]


@dataclass
class QueryResult:
    """The outcome of one SELECT (or EXPLAIN SELECT)."""

    kind: str  # "select" | "explain"
    columns: List[str]
    #: Result rows, ``(r, c)`` floats (aggregates produce one row).
    rows: np.ndarray
    #: Source row index of each result row (``[]`` for aggregates).
    #: Indices < ``n_tuples`` address the complete store; larger ones are
    #: pending tuples (``index - n_tuples`` into the side-store).
    row_indices: List[int]
    aggregate: bool
    rows_scanned: int
    rows_imputed: int
    #: One dict per cell imputed on demand (all missing cells of every
    #: touched row), re-addressed to source row indices.
    provenance: List[Dict[str, object]] = field(default_factory=list)
    #: The resolved plan (:meth:`QueryPlan.describe` + runtime counts).
    plan: Dict[str, object] = field(default_factory=dict)


@dataclass
class StatementResult:
    """The outcome of one data statement (append/update/delete/impute)."""

    kind: str
    detail: Dict[str, object] = field(default_factory=dict)


def _engine_of(session):
    """The imputation engine behind ``session`` (itself, if engine-like)."""
    engine = getattr(session, "engine", session)
    if not hasattr(engine, "impute_batch") or not hasattr(
        engine, "store_relation"
    ):
        raise UnsupportedOperationError(
            "queries need an online session (method 'IIM', mode 'online'); "
            "this session does not expose an imputation engine"
        )
    return engine


# --------------------------------------------------------------------------- #
# WHERE evaluation
# --------------------------------------------------------------------------- #
_COMPARATORS = {
    "=": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def _operand_values(operand, matrix: np.ndarray, schema):
    if isinstance(operand, ColumnRef):
        return matrix[:, schema.index_of(operand.name)]
    return float(operand.value)  # scalar: numpy broadcasts comparisons


def _evaluate_filter(expr: Expression, matrix: np.ndarray, schema) -> np.ndarray:
    if isinstance(expr, Comparison):
        left = _operand_values(expr.left, matrix, schema)
        right = _operand_values(expr.right, matrix, schema)
        result = _COMPARATORS[expr.op](left, right)
        if not isinstance(result, np.ndarray):  # literal-vs-literal
            result = np.full(matrix.shape[0], bool(result))
        return result
    if isinstance(expr, And):
        result = _evaluate_filter(expr.items[0], matrix, schema)
        for item in expr.items[1:]:
            result = result & _evaluate_filter(item, matrix, schema)
        return result
    if isinstance(expr, Or):
        result = _evaluate_filter(expr.items[0], matrix, schema)
        for item in expr.items[1:]:
            result = result | _evaluate_filter(item, matrix, schema)
        return result
    if isinstance(expr, Not):
        return ~_evaluate_filter(expr.item, matrix, schema)
    raise QueryError(f"unsupported filter node {type(expr).__name__}")


def _order_rows(
    matrix: np.ndarray,
    selected: np.ndarray,
    order_by: Sequence[Tuple[int, bool]],
) -> np.ndarray:
    """Stable multi-key ordering: apply keys right-to-left, each stable."""
    order = selected
    for index, descending in reversed(list(order_by)):
        keys = matrix[order, index]
        if descending:
            keys = -keys
        order = order[np.argsort(keys, kind="stable")]
    return order


def _aggregate_row(
    matrix: np.ndarray,
    selected: np.ndarray,
    aggregates: Sequence[Tuple[str, Optional[int]]],
) -> np.ndarray:
    values: List[float] = []
    for func, index in aggregates:
        if func == "count":
            # After on-demand imputation no referenced cell is missing, so
            # count(attr) == count(*) == the filtered row count.
            values.append(float(selected.size))
            continue
        column = matrix[selected, index]
        if column.size == 0:
            values.append(float("nan"))
        elif func == "avg":
            values.append(float(column.mean()))
        elif func == "min":
            values.append(float(column.min()))
        else:
            values.append(float(column.max()))
    return np.array([values], dtype=float)


# --------------------------------------------------------------------------- #
# SELECT execution
# --------------------------------------------------------------------------- #
def _execute_select(
    session,
    statement: SelectStatement,
    *,
    max_impute_rows: Optional[int],
    provenance: bool,
) -> QueryResult:
    engine = _engine_of(session)
    with query_phase("plan"):
        relation = engine.store_relation(include_pending=True)
        plan = plan_query(statement, relation.schema)
        matrix = np.array(relation.raw, dtype=float)
        mask = np.isnan(matrix)
        referenced = np.array(plan.referenced, dtype=int)
        if referenced.size and mask.any():
            touched = np.flatnonzero(mask[:, referenced].any(axis=1))
        else:
            touched = np.empty(0, dtype=int)
    count_query_rows("scanned", matrix.shape[0])

    if max_impute_rows is not None and touched.size > max_impute_rows:
        raise QuotaExceededError(
            f"query touches {touched.size} incomplete rows, exceeding the "
            f"per-request quota of {max_impute_rows} imputed rows; narrow "
            f"the query"
        )

    cells: List[Dict[str, object]] = []
    if touched.size:
        with query_phase("impute"):
            if provenance:
                imputed, cells = engine.impute_batch(
                    matrix[touched], collect_provenance=True
                )
            else:
                imputed = engine.impute_batch(matrix[touched])
            matrix[touched] = imputed
        count_query_rows("imputed", int(touched.size))
        trace_id = get_tracer().current_trace_id
        for cell in cells:
            # impute_batch addresses rows within the touched block; map
            # back to source row indices and stamp the request trace.
            cell["row"] = int(touched[cell["row"]])
            cell["trace_id"] = trace_id

    with query_phase("evaluate"):
        if statement.where is None:
            selected = np.arange(matrix.shape[0])
        else:
            keep = _evaluate_filter(statement.where, matrix, plan.schema)
            selected = np.flatnonzero(keep)
        if plan.is_aggregate:
            rows = _aggregate_row(matrix, selected, plan.aggregates)
            if plan.limit is not None:
                rows = rows[: plan.limit]
            row_indices: List[int] = []
        else:
            order = _order_rows(matrix, selected, plan.order_by)
            if plan.limit is not None:
                order = order[: plan.limit]
            rows = matrix[np.ix_(order, np.array(plan.projection, dtype=int))]
            row_indices = order.tolist()

    describe = plan.describe()
    describe.update(
        rows_scanned=int(matrix.shape[0]),
        rows_touched=int(touched.size),
        cells_imputed=len(cells) if cells else int(mask[touched].sum()),
    )
    return QueryResult(
        kind="explain" if statement.explain else "select",
        columns=list(plan.output_names),
        rows=rows,
        row_indices=row_indices,
        aggregate=plan.is_aggregate,
        rows_scanned=int(matrix.shape[0]),
        rows_imputed=int(touched.size),
        provenance=cells,
        plan=describe,
    )


# --------------------------------------------------------------------------- #
# Data statements
# --------------------------------------------------------------------------- #
def _execute_data(session, statement: Statement) -> StatementResult:
    # Imported here, not at module top: repro.api imports this package for
    # the serve loop's query command, so the reverse import must wait
    # until both packages are fully initialised.
    from ..api.messages import MutationOp

    engine = _engine_of(session)
    if isinstance(statement, AppendStatement):
        rows = np.array(statement.rows, dtype=float)
        op = MutationOp.append(rows)
        detail = {
            "rows_appended": int(rows.shape[0]),
            "rows_incomplete": int(np.isnan(rows).any(axis=1).sum()),
        }
    elif isinstance(statement, UpdateStatement):
        n_tuples = engine.n_tuples
        if not 0 <= statement.index < n_tuples:
            raise QueryError(
                f"UPDATE addresses complete store rows [0, {n_tuples}), got "
                f"{statement.index} (pending tuples cannot be updated; "
                f"IMPUTE promotes them first)"
            )
        row = np.array(engine.store_relation().raw[statement.index], dtype=float)
        schema = engine.schema
        for name, value in statement.assignments:
            if name not in schema:
                raise QueryError(
                    f"unknown attribute {name!r}; the schema has "
                    f"{list(schema.attributes)}"
                )
            row[schema.index_of(name)] = value
        op = MutationOp.update(statement.index, row)
        detail = {"index": statement.index, "row": [float(v) for v in row]}
    elif isinstance(statement, DeleteStatement):
        op = MutationOp.delete(list(statement.indices))
        detail = {"rows_deleted": len(statement.indices)}
    elif isinstance(statement, ImputeStatement):
        op = MutationOp.promote()
        detail = {"rows_promoted": int(engine.n_pending)}
    else:
        raise QueryError(f"unsupported statement {type(statement).__name__}")

    if hasattr(session, "mutate"):
        session.mutate([op])
    elif op.kind == "append":
        engine.append(op.rows, allow_incomplete=True)
    elif op.kind == "delete":
        engine.delete(op.indices)
    elif op.kind == "update":
        engine.update(op.index, op.row)
    else:
        engine.promote_pending()
    detail["n_pending"] = int(engine.n_pending)
    return StatementResult(kind=statement.__class__.__name__
                           .replace("Statement", "").lower(), detail=detail)


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #
# Prepared-statement cache: serving workloads repeat the same statement
# text, and re-tokenizing it would otherwise dominate selective queries.
# Cached ASTs are shared across calls — the executor treats them as
# read-only.  Parse errors are never cached (the raise happens first).
_PARSE_CACHE: "OrderedDict[str, Statement]" = OrderedDict()
_PARSE_CACHE_LIMIT = 128
_PARSE_CACHE_LOCK = threading.Lock()


def _parse_cached(text: str) -> Statement:
    with _PARSE_CACHE_LOCK:
        statement = _PARSE_CACHE.get(text)
        if statement is not None:
            _PARSE_CACHE.move_to_end(text)
            return statement
    with query_phase("parse"):
        statement = parse_statement(text)
    with _PARSE_CACHE_LOCK:
        _PARSE_CACHE[text] = statement
        while len(_PARSE_CACHE) > _PARSE_CACHE_LIMIT:
            _PARSE_CACHE.popitem(last=False)
    return statement


def execute_query(
    session,
    statement: Union[str, Statement],
    *,
    max_impute_rows: Optional[int] = None,
    provenance: bool = True,
) -> Union[QueryResult, StatementResult]:
    """Execute one statement (text or AST) against a live session.

    ``max_impute_rows`` is the admission quota of the serve loop: a query
    that would impute more touched rows is rejected with a typed
    :class:`~repro.exceptions.QuotaExceededError` *before* any kernel
    runs.  ``provenance=False`` skips the per-imputed-cell provenance.
    """
    if isinstance(statement, str):
        statement = _parse_cached(statement)
    if isinstance(statement, SelectStatement):
        return _execute_select(
            session,
            statement,
            max_impute_rows=max_impute_rows,
            provenance=provenance,
        )
    return _execute_data(session, statement)


def execute_script(
    session,
    text: str,
    *,
    max_impute_rows: Optional[int] = None,
    provenance: bool = True,
) -> List[Union[QueryResult, StatementResult]]:
    """Execute every ``;``-separated statement of ``text``, in order."""
    from .parser import parse_script

    with query_phase("parse"):
        statements = parse_script(text)
    return [
        execute_query(
            session,
            statement,
            max_impute_rows=max_impute_rows,
            provenance=provenance,
        )
        for statement in statements
    ]
