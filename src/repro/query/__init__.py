"""repro.query — a typed query language over live imputation sessions.

The relational layer the ROADMAP calls for: a tokenizer →
recursive-descent parser → AST → planner → executor pipeline evaluating
``SELECT`` / ``WHERE`` / ``ORDER BY`` / ``LIMIT`` and simple aggregates
(``count``/``avg``/``min``/``max``) over a session's relation, where
**referencing a missing cell imputes it on demand** — in one batch
through the engine's vectorized kernels, bit-identical to pre-imputing
the touched rows and then querying — and every imputed cell carries
provenance (method, neighbours, per-neighbour ℓ, combiner weights,
confidence, trace id) surfaced by ``EXPLAIN`` and the serve loop's
``provenance`` wire field.

The same statement grammar doubles as the lifecycle trace format:
``APPEND`` (rows may carry ``?`` missing markers), ``UPDATE``, ``DELETE``
and ``IMPUTE`` (promote the pending incomplete tuples into the store)
ride alongside queries in one script, driven by :func:`execute_script`,
the replay CLI, the scenario replayer, and the interactive REPL
(``python -m repro repl``).
"""

from __future__ import annotations

from .executor import (
    QueryResult,
    StatementResult,
    execute_query,
    execute_script,
)
from .lexer import KEYWORDS, MAX_QUERY_LENGTH, Token, tokenize
from .nodes import (
    Aggregate,
    And,
    AppendStatement,
    ColumnRef,
    Comparison,
    DeleteStatement,
    ImputeStatement,
    Literal,
    Not,
    Or,
    OrderKey,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from .parser import STATEMENT_KEYWORDS, parse_script, parse_statement
from .planner import QueryPlan, plan_query

__all__ = [
    "tokenize",
    "Token",
    "KEYWORDS",
    "MAX_QUERY_LENGTH",
    "STATEMENT_KEYWORDS",
    "parse_statement",
    "parse_script",
    "plan_query",
    "QueryPlan",
    "execute_query",
    "execute_script",
    "QueryResult",
    "StatementResult",
    "Statement",
    "SelectStatement",
    "AppendStatement",
    "UpdateStatement",
    "DeleteStatement",
    "ImputeStatement",
    "ColumnRef",
    "Literal",
    "Comparison",
    "And",
    "Or",
    "Not",
    "Aggregate",
    "OrderKey",
]
