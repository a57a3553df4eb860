"""Typed request/command messages of the unified imputation protocol.

Three dataclasses describe everything a caller can ask a session to do:

* :class:`SessionConfig` — which method to run, in which mode (batch or
  online), with which constructor overrides and engine knobs;
* :class:`MutationOp` — one store mutation (``append`` / ``delete`` /
  ``update``), the verbs of the online engine's tuple lifecycle;
* :class:`ImputeRequest` — a batch of query tuples with ``NaN`` marking the
  cells to fill.

Every message validates itself eagerly (:meth:`validate` is called by the
constructors of the session layer and the serve loop) and round-trips
through a JSON-safe *wire form* (``to_wire`` / ``from_wire``).  On the wire,
missing cells are encoded as ``null`` — JSON has no ``NaN`` — and decoded
back to ``numpy.nan``; the wire protocol itself is versioned through
:data:`PROTOCOL_VERSION`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..baselines.registry import method_spec
from ..config import ENGINE_KNOBS
from ..exceptions import (
    ConfigurationError,
    DataError,
    ProtocolError,
    QuotaExceededError,
)

__all__ = [
    "PROTOCOL_VERSION",
    "SESSION_MODES",
    "SESSION_NAME_PATTERN",
    "encode_rows",
    "decode_rows",
    "validate_session_name",
    "parse_override",
    "ImputeRequest",
    "MutationOp",
    "SessionConfig",
]

#: Version of the request/response surface.  Bumped on incompatible changes
#: to the message schemas or the serve loop's envelope; every response
#: carries it so clients can detect a skew before misparsing payloads.
PROTOCOL_VERSION = 1

#: Recognised session modes: ``"batch"`` adapts a registry imputer,
#: ``"online"`` wraps the incremental engine, ``"auto"`` picks online for
#: mutation-capable methods (IIM) and batch otherwise.
SESSION_MODES = ("auto", "batch", "online")


#: Filesystem-safe session names, required whenever a session name becomes
#: a directory name (the serve loop's per-session WAL directories): a wire
#: name like ``"../x"`` must never escape the WAL root.
SESSION_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def validate_session_name(name: str, *, durable: bool = False) -> str:
    """Validate a wire session name; ``durable`` also demands it be a safe
    directory name (no separators, no leading dot, at most 64 chars)."""
    if not isinstance(name, str) or not name:
        raise ProtocolError("this command needs a 'session' name")
    if durable and not SESSION_NAME_PATTERN.match(name):
        raise ProtocolError(
            f"session name {name!r} cannot name a WAL directory; durable "
            f"sessions need names matching {SESSION_NAME_PATTERN.pattern}"
        )
    return name


def parse_override(token: str) -> Tuple[str, object]:
    """Parse one ``key=value`` override, as ``impute --set`` and ``repl``'s
    ``\\create`` spell it: ``none``/``null`` is ``None``, ``true``/``false``
    a bool, then an int, then a float, else the bare string."""
    key, sep, raw = token.partition("=")
    key = key.strip()
    if not sep or not key:
        raise ConfigurationError(f"expected key=value, got {token!r}")
    lowered = raw.strip().lower()
    if lowered in ("none", "null"):
        return key, None
    if lowered in ("true", "false"):
        return key, lowered == "true"
    for cast in (int, float):
        try:
            return key, cast(raw)
        except ValueError:
            pass
    return key, raw


def encode_rows(values: np.ndarray) -> List[List[Optional[float]]]:
    """Encode a float matrix for the wire: ``NaN`` becomes ``null``."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    return [
        [None if math.isnan(cell) else float(cell) for cell in row]
        for row in values
    ]


def decode_rows(
    rows, *, what: str = "rows", max_rows: Optional[int] = None
) -> np.ndarray:
    """Decode wire rows (lists of numbers-or-``null``) into a float matrix.

    ``max_rows`` is the admission quota of the serve loop: requests carrying
    more rows are rejected with a typed :class:`QuotaExceededError` (wire
    code ``quota``) *before* any decoding work or state change.
    """
    if not isinstance(rows, (list, tuple)) or not rows:
        raise ProtocolError(f"{what} must be a non-empty list of rows")
    if not isinstance(rows[0], (list, tuple)):
        rows = [rows]
    if max_rows is not None and len(rows) > max_rows:
        raise QuotaExceededError(
            f"{what}: {len(rows)} rows exceed the per-request quota of "
            f"{max_rows}; split the request"
        )
    width = len(rows[0])
    decoded = np.empty((len(rows), width), dtype=float)
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != width:
            raise ProtocolError(
                f"{what} must be rows of equal length {width}, "
                f"row {i} is {row!r}"
            )
        for j, cell in enumerate(row):
            if cell is None:
                decoded[i, j] = np.nan
            elif isinstance(cell, bool) or not isinstance(cell, (int, float)):
                raise ProtocolError(
                    f"{what}[{i}][{j}] must be a number or null, got {cell!r}"
                )
            else:
                try:
                    decoded[i, j] = float(cell)
                except OverflowError:  # a JSON integer beyond float range
                    raise DataError(
                        f"{what}[{i}][{j}] is beyond the float range"
                    ) from None
    return decoded


@dataclass(frozen=True)
class ImputeRequest:
    """A batch of query tuples whose ``NaN`` cells should be imputed."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", np.atleast_2d(np.asarray(self.values, dtype=float))
        )
        self.validate()

    def validate(self) -> None:
        if self.values.ndim != 2 or self.values.size == 0:
            raise DataError(
                f"an impute request needs a non-empty 2-D batch of query "
                f"tuples, got shape {self.values.shape}"
            )

    @property
    def n_queries(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_missing(self) -> int:
        return int(np.isnan(self.values).sum())

    def to_wire(self) -> Dict[str, object]:
        return {"rows": encode_rows(self.values)}

    @classmethod
    def from_wire(
        cls, payload: Dict[str, object], *, max_rows: Optional[int] = None
    ) -> "ImputeRequest":
        if not isinstance(payload, dict) or "rows" not in payload:
            raise ProtocolError("an impute request needs a 'rows' field")
        return cls(
            decode_rows(payload["rows"], what="impute rows", max_rows=max_rows)
        )


@dataclass(frozen=True)
class MutationOp:
    """One store mutation: ``append`` rows, ``delete`` indices, ``update``
    one row in place, or ``promote`` the pending incomplete tuples (impute
    them against the current store and move them in as complete rows).

    Build instances through the classmethod constructors — they populate
    exactly the operands each verb needs and validate eagerly.
    """

    kind: str
    rows: Optional[np.ndarray] = None  # append payload (b, m)
    indices: Optional[np.ndarray] = None  # delete targets
    index: Optional[int] = None  # update target
    row: Optional[np.ndarray] = None  # update payload (m,)

    KINDS = ("append", "delete", "update", "promote")

    @classmethod
    def append(cls, rows) -> "MutationOp":
        return cls("append", rows=np.atleast_2d(np.asarray(rows, dtype=float)))

    @classmethod
    def promote(cls) -> "MutationOp":
        return cls("promote")

    @classmethod
    def delete(cls, indices) -> "MutationOp":
        return cls(
            "delete", indices=np.atleast_1d(np.asarray(indices, dtype=int))
        )

    @classmethod
    def update(cls, index: int, row) -> "MutationOp":
        return cls(
            "update",
            index=int(index),
            row=np.asarray(row, dtype=float).ravel(),
        )

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.kind not in self.KINDS:
            raise ConfigurationError(
                f"unknown mutation kind {self.kind!r}; expected one of {self.KINDS}"
            )
        if self.kind == "append":
            if self.rows is None or self.rows.ndim != 2:
                raise DataError("an append op needs a 2-D block of rows")
        elif self.kind == "delete":
            if self.indices is None or self.indices.size == 0:
                raise DataError("a delete op needs at least one store index")
        elif self.kind == "update":
            if self.index is None or self.row is None or self.row.ndim != 1:
                raise DataError("an update op needs one store index and one row")
        # promote carries no operands

    def to_wire(self) -> Dict[str, object]:
        if self.kind == "append":
            return {"op": "append", "rows": encode_rows(self.rows)}
        if self.kind == "delete":
            return {"op": "delete", "indices": [int(i) for i in self.indices]}
        if self.kind == "promote":
            return {"op": "promote"}
        return {
            "op": "update",
            "index": int(self.index),
            "row": encode_rows(self.row)[0],
        }

    @classmethod
    def from_wire(
        cls, payload: Dict[str, object], *, max_rows: Optional[int] = None
    ) -> "MutationOp":
        if not isinstance(payload, dict):
            raise ProtocolError(f"a mutation op must be an object, got {payload!r}")
        kind = payload.get("op")
        if kind == "append":
            if "rows" not in payload:
                raise ProtocolError("an append op needs a 'rows' field")
            return cls.append(
                decode_rows(payload["rows"], what="append rows", max_rows=max_rows)
            )
        if kind == "delete":
            indices = payload.get("indices")
            if not isinstance(indices, (list, tuple)) or not indices or not all(
                isinstance(i, int) and not isinstance(i, bool) for i in indices
            ):
                raise ProtocolError("a delete op needs a list of integer indices")
            return cls.delete(indices)
        if kind == "update":
            index = payload.get("index")
            if (
                isinstance(index, bool)
                or not isinstance(index, int)
                or "row" not in payload
            ):
                raise ProtocolError(
                    "an update op needs an integer 'index' and a 'row' field"
                )
            row = decode_rows(payload["row"], what="update row")
            if row.shape[0] != 1:
                raise ProtocolError(
                    f"an update op replaces exactly one row, got {row.shape[0]}"
                )
            return cls.update(index, row[0])
        if kind == "promote":
            return cls.promote()
        raise ProtocolError(
            f"unknown mutation op {kind!r}; expected one of {cls.KINDS}"
        )


@dataclass
class SessionConfig:
    """How to build a session: method, mode, overrides and engine knobs."""

    method: str = "IIM"
    mode: str = "auto"
    params: Dict[str, object] = field(default_factory=dict)
    engine: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        spec = method_spec(self.method)  # raises with suggestions when unknown
        self.method = spec.name
        if self.mode not in SESSION_MODES:
            raise ConfigurationError(
                f"unknown session mode {self.mode!r}; expected one of "
                f"{SESSION_MODES}"
            )
        if not isinstance(self.params, dict):
            raise ConfigurationError(
                f"session params must be a dict of constructor overrides, "
                f"got {self.params!r}"
            )
        if not isinstance(self.engine, dict):
            raise ConfigurationError(
                f"session engine knobs must be a dict, got {self.engine!r}"
            )
        unknown = sorted(set(self.engine) - set(ENGINE_KNOBS))
        if unknown:
            raise ConfigurationError(
                f"unknown engine knobs {unknown}; accepted: {list(ENGINE_KNOBS)}"
            )
        if self.resolved_mode() == "online":
            if not spec.capabilities.supports_mutation:
                raise ConfigurationError(
                    f"method {spec.name!r} cannot run in online mode: it does "
                    f"not support incremental mutation (only IIM does)"
                )
        elif self.engine:
            raise ConfigurationError(
                f"engine knobs {sorted(self.engine)} apply to online sessions "
                f"only; method {spec.name!r} resolves to batch mode"
            )

    def resolved_mode(self) -> str:
        """``"batch"`` or ``"online"`` (``"auto"`` follows the capabilities)."""
        if self.mode != "auto":
            return self.mode
        return (
            "online"
            if method_spec(self.method).capabilities.supports_mutation
            else "batch"
        )

    def to_wire(self) -> Dict[str, object]:
        wire: Dict[str, object] = {"method": self.method, "mode": self.mode}
        if self.params:
            wire["params"] = dict(self.params)
        if self.engine:
            wire["engine"] = dict(self.engine)
        return wire

    @classmethod
    def from_wire(cls, payload: Optional[Dict[str, object]]) -> "SessionConfig":
        if payload is None:
            return cls()
        if not isinstance(payload, dict):
            raise ProtocolError(f"a session config must be an object, got {payload!r}")
        unknown = sorted(set(payload) - {"method", "mode", "params", "engine"})
        if unknown:
            raise ProtocolError(f"unknown session config fields: {unknown}")
        return cls(
            method=payload.get("method", "IIM"),
            mode=payload.get("mode", "auto"),
            params=dict(payload.get("params") or {}),
            engine=dict(payload.get("engine") or {}),
        )
