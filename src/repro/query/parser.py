"""Recursive-descent parser of the repro query language.

Grammar (keywords case-insensitive, ``--`` comments, ``;`` terminators)::

    script     := statement (";" statement)* [";"]
    statement  := ["EXPLAIN"] select | append | update | delete | "IMPUTE"
    select     := "SELECT" select_list [where] [order] [limit]
    select_list:= "*" | item ("," item)*
    item       := aggregate | IDENT
    aggregate  := ("COUNT"|"AVG"|"MIN"|"MAX") "(" ("*" | IDENT) ")"
    where      := "WHERE" or_expr
    or_expr    := and_expr ("OR" and_expr)*
    and_expr   := not_expr ("AND" not_expr)*
    not_expr   := "NOT" not_expr | "(" or_expr ")" | comparison
    comparison := operand op operand
    op         := "=" | "!=" | "<>" | "<" | "<=" | ">" | ">="
    operand    := IDENT | signed_number
    order      := "ORDER" "BY" IDENT ["ASC"|"DESC"] ("," IDENT [..])*
    limit      := "LIMIT" integer
    append     := "APPEND" ["VALUES"] row ("," row)*
    row        := "(" cell ("," cell)* ")"
    cell       := signed_number | "?" | "NULL" | "NAN"
    update     := "UPDATE" integer "SET" IDENT "=" signed_number ("," ..)*
    delete     := "DELETE" integer ("," integer)*

``?``/``NULL``/``NAN`` mark missing cells and are legal **only** inside
``APPEND`` rows — a NaN is not comparable, so the same markers inside a
``WHERE`` clause are a syntax error (missing cells impute on demand before
any predicate sees them).  ``COUNT(*)`` is the only star aggregate.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple, Union

from ..exceptions import QuerySyntaxError
from .lexer import Token, tokenize
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

__all__ = ["parse_statement", "parse_script", "COMPARATORS", "STATEMENT_KEYWORDS"]

#: Recognised comparison operators (``<>`` normalises to ``!=``).
COMPARATORS = ("=", "!=", "<>", "<", "<=", ">", ">=")

#: Keywords that may open a statement — the trace-format sniffer of the
#: replay CLI uses this set to tell a statement trace from a CSV trace.
STATEMENT_KEYWORDS = frozenset(
    {"SELECT", "EXPLAIN", "APPEND", "UPDATE", "DELETE", "IMPUTE"}
)

_AGGREGATES = ("COUNT", "AVG", "MIN", "MAX")


class _Parser:
    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    # Token plumbing ---------------------------------------------------- #
    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "EOF":
            self._pos += 1
        return token

    def _check(self, kind: str, text: Optional[str] = None) -> bool:
        token = self._current
        return token.kind == kind and (text is None or token.text == text)

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: Optional[str] = None,
                what: Optional[str] = None) -> Token:
        if self._check(kind, text):
            return self._advance()
        token = self._current
        wanted = what or (text if text is not None else kind.lower())
        got = "end of statement" if token.kind == "EOF" else repr(token.text)
        raise QuerySyntaxError(
            f"expected {wanted}, got {got} at offset {token.position}"
        )

    # Terminals --------------------------------------------------------- #
    def _signed_number(self, *, what: str = "a number") -> float:
        sign = 1.0
        token = self._accept("SYMBOL", "-") or self._accept("SYMBOL", "+")
        if token is not None and token.text == "-":
            sign = -1.0
        number = self._expect("NUMBER", what=what)
        return sign * float(number.text)

    def _integer(self, *, what: str) -> int:
        token = self._expect("NUMBER", what=what)
        try:
            value = int(token.text)
        except ValueError:
            raise QuerySyntaxError(
                f"{what} must be an integer, got {token.text!r} at offset "
                f"{token.position}"
            )
        return value

    def _identifier(self, *, what: str = "an attribute name") -> str:
        return self._expect("IDENT", what=what).text

    # Statements -------------------------------------------------------- #
    def parse_script(self) -> List[Statement]:
        statements: List[Statement] = []
        while self._accept("SYMBOL", ";"):
            pass
        while not self._check("EOF"):
            statements.append(self._statement())
            if not self._accept("SYMBOL", ";") and not self._check("EOF"):
                token = self._current
                raise QuerySyntaxError(
                    f"expected ';' after the statement, got {token.text!r} "
                    f"at offset {token.position}"
                )
            while self._accept("SYMBOL", ";"):
                pass
        return statements

    def _statement(self) -> Statement:
        token = self._current
        if token.kind != "KEYWORD":
            raise QuerySyntaxError(
                f"a statement must start with one of "
                f"{sorted(STATEMENT_KEYWORDS)}, got {token.text!r} at "
                f"offset {token.position}"
            )
        if token.text == "EXPLAIN":
            self._advance()
            self._expect("KEYWORD", "SELECT", what="SELECT after EXPLAIN")
            return self._select(explain=True)
        if token.text == "SELECT":
            self._advance()
            return self._select(explain=False)
        if token.text == "APPEND":
            self._advance()
            return self._append()
        if token.text == "UPDATE":
            self._advance()
            return self._update()
        if token.text == "DELETE":
            self._advance()
            return self._delete()
        if token.text == "IMPUTE":
            self._advance()
            return ImputeStatement()
        raise QuerySyntaxError(
            f"a statement must start with one of "
            f"{sorted(STATEMENT_KEYWORDS)}, got {token.text!r} at offset "
            f"{token.position}"
        )

    # SELECT ------------------------------------------------------------ #
    def _select(self, *, explain: bool) -> SelectStatement:
        columns: Optional[Tuple[Union[ColumnRef, Aggregate], ...]]
        if self._accept("SYMBOL", "*"):
            columns = None
        else:
            items: List[Union[ColumnRef, Aggregate]] = [self._select_item()]
            while self._accept("SYMBOL", ","):
                items.append(self._select_item())
            columns = tuple(items)
        where = None
        if self._accept("KEYWORD", "WHERE"):
            where = self._or_expr()
        order_by: Tuple[OrderKey, ...] = ()
        if self._accept("KEYWORD", "ORDER"):
            self._expect("KEYWORD", "BY", what="BY after ORDER")
            keys = [self._order_key()]
            while self._accept("SYMBOL", ","):
                keys.append(self._order_key())
            order_by = tuple(keys)
        limit = None
        if self._accept("KEYWORD", "LIMIT"):
            limit = self._integer(what="the LIMIT count")
            if limit < 0:
                raise QuerySyntaxError(f"LIMIT must be >= 0, got {limit}")
        return SelectStatement(
            columns=columns,
            where=where,
            order_by=order_by,
            limit=limit,
            explain=explain,
        )

    def _select_item(self) -> Union[ColumnRef, Aggregate]:
        token = self._current
        if token.kind == "KEYWORD" and token.text in _AGGREGATES:
            self._advance()
            func = token.text.lower()
            self._expect("SYMBOL", "(", what=f"'(' after {func}")
            if self._accept("SYMBOL", "*"):
                if func != "count":
                    raise QuerySyntaxError(
                        f"only COUNT may take '*', not {func.upper()} "
                        f"(at offset {token.position})"
                    )
                attribute = None
            else:
                attribute = self._identifier()
            self._expect("SYMBOL", ")", what=f"')' closing {func}(...)")
            return Aggregate(func, attribute)
        return ColumnRef(self._identifier(what="an attribute or aggregate"))

    def _order_key(self) -> OrderKey:
        attribute = self._identifier()
        descending = False
        if self._accept("KEYWORD", "DESC"):
            descending = True
        else:
            self._accept("KEYWORD", "ASC")
        return OrderKey(attribute, descending)

    # WHERE ------------------------------------------------------------- #
    def _or_expr(self):
        items = [self._and_expr()]
        while self._accept("KEYWORD", "OR"):
            items.append(self._and_expr())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def _and_expr(self):
        items = [self._not_expr()]
        while self._accept("KEYWORD", "AND"):
            items.append(self._not_expr())
        return items[0] if len(items) == 1 else And(tuple(items))

    def _not_expr(self):
        if self._accept("KEYWORD", "NOT"):
            return Not(self._not_expr())
        if self._accept("SYMBOL", "("):
            inner = self._or_expr()
            self._expect("SYMBOL", ")", what="')' closing the group")
            return inner
        return self._comparison()

    def _comparison(self) -> Comparison:
        left = self._operand()
        token = self._current
        if token.kind != "SYMBOL" or token.text not in COMPARATORS:
            got = "end of statement" if token.kind == "EOF" else repr(token.text)
            raise QuerySyntaxError(
                f"expected a comparison operator "
                f"({', '.join(COMPARATORS)}), got {got} at offset "
                f"{token.position}"
            )
        self._advance()
        op = "!=" if token.text == "<>" else token.text
        return Comparison(left, op, self._operand())

    def _operand(self):
        token = self._current
        if token.kind == "IDENT":
            return ColumnRef(self._advance().text)
        if token.kind == "KEYWORD" and token.text in ("NULL", "NAN"):
            raise QuerySyntaxError(
                f"{token.text} is not comparable at offset {token.position}; "
                f"missing cells are imputed on demand before predicates run"
            )
        if self._check("SYMBOL", "?"):
            raise QuerySyntaxError(
                f"'?' is not comparable at offset {token.position}; missing "
                f"cells are imputed on demand before predicates run"
            )
        return Literal(self._signed_number(what="an attribute or number"))

    # Data statements ---------------------------------------------------- #
    def _append(self) -> AppendStatement:
        self._accept("KEYWORD", "VALUES")
        rows = [self._row()]
        while self._accept("SYMBOL", ","):
            rows.append(self._row())
        width = len(rows[0])
        for i, row in enumerate(rows):
            if len(row) != width:
                raise QuerySyntaxError(
                    f"APPEND rows must have equal width; row 0 has {width} "
                    f"cells, row {i} has {len(row)}"
                )
        return AppendStatement(tuple(rows))

    def _row(self) -> Tuple[float, ...]:
        self._expect("SYMBOL", "(", what="'(' opening a value row")
        cells = [self._cell()]
        while self._accept("SYMBOL", ","):
            cells.append(self._cell())
        self._expect("SYMBOL", ")", what="')' closing the value row")
        return tuple(cells)

    def _cell(self) -> float:
        if self._accept("SYMBOL", "?"):
            return math.nan
        if self._accept("KEYWORD", "NULL") or self._accept("KEYWORD", "NAN"):
            return math.nan
        return self._signed_number(what="a number or missing marker")

    def _update(self) -> UpdateStatement:
        index = self._integer(what="the UPDATE row index")
        self._expect("KEYWORD", "SET", what="SET after the row index")
        assignments = [self._assignment()]
        while self._accept("SYMBOL", ","):
            assignments.append(self._assignment())
        return UpdateStatement(index, tuple(assignments))

    def _assignment(self) -> Tuple[str, float]:
        name = self._identifier()
        self._expect("SYMBOL", "=", what="'=' in the assignment")
        if (
            self._check("SYMBOL", "?")
            or self._check("KEYWORD", "NULL")
            or self._check("KEYWORD", "NAN")
        ):
            token = self._current
            raise QuerySyntaxError(
                f"UPDATE values must be complete numbers at offset "
                f"{token.position}; use IMPUTE to fill pending tuples"
            )
        return name, self._signed_number(what="the assigned value")

    def _delete(self) -> DeleteStatement:
        indices = [self._integer(what="a DELETE row index")]
        while self._accept("SYMBOL", ","):
            indices.append(self._integer(what="a DELETE row index"))
        return DeleteStatement(tuple(indices))


def parse_script(text: str) -> List[Statement]:
    """Parse ``text`` into a list of statements (``;``-separated)."""
    return _Parser(tokenize(text)).parse_script()


def parse_statement(text: str) -> Statement:
    """Parse exactly one statement out of ``text``."""
    statements = parse_script(text)
    if not statements:
        raise QuerySyntaxError("empty query")
    if len(statements) > 1:
        raise QuerySyntaxError(
            f"expected one statement, got {len(statements)}; send statements "
            f"one at a time (or use a trace file)"
        )
    return statements[0]
