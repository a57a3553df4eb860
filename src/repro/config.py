"""Process-wide configuration knobs: one declarative table, four accessors.

Every knob of the library is one :class:`Knob` row of :data:`KNOBS` —
its name, environment variable, default, parser, one-line doc, and whether
``None`` is one of its values (an unbounded cache, no deadline).  The rows
cover the IIM kernel backend, the online engine (model cache, refresh
policy), the write-ahead log, the serve loop (deadline, request bounds,
micro-batching, admission quotas), observability, query provenance and
scenario replay.

A knob's value resolves, in decreasing priority, from

1. a per-call argument (``backend=...``, ``OnlineImputationEngine(
   refresh_policy=...)``, ``SessionServer(max_sessions=...)``) passed through
   :func:`resolve`;
2. the process-wide value chosen by :func:`set` or :func:`override`;
3. the knob's environment variable;
4. the table default.

The environment is parsed at a knob's first use, not at ``import repro``,
so a typo'd value fails there with a :class:`ConfigurationError` naming
the knob.  Every parsed value is cached, which makes :func:`get` one dict
lookup: the observability layer consults ``obs_enabled`` on every metric
mutation.

>>> from repro import config
>>> config.get("backend")
'vectorized'
>>> with config.override("backend", "loop"):
...     pass  # everything inside runs on the reference loops

The two kernel backends produce the same results to within
``rtol = 1e-9`` (the test suite asserts it); ``loop`` is the original
per-tuple Python code kept as an executable reference.

A knob that a constructor overrides per instance shares its name with the
constructor keyword: :data:`ENGINE_KNOBS` for
:class:`~repro.online.OnlineImputationEngine` (and the ``engine`` field of
a session config, which ``repl``'s ``\\create`` fills from its
``key=value`` pairs), :data:`SERVE_KNOBS` for
:class:`~repro.api.serve.SessionServer`.  The serve rows, and
``scenario_transport``, also carry the command-line flag that
:func:`add_flags` gives ``python -m repro serve`` and ``python -m repro
scenario replay``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional

from .exceptions import ConfigurationError

__all__ = [
    "Knob",
    "KNOBS",
    "ENGINE_KNOBS",
    "SERVE_KNOBS",
    "get",
    "set",
    "resolve",
    "override",
    "add_flags",
]


@dataclass(frozen=True)
class Knob:
    """One process-wide setting (a row of :data:`KNOBS`)."""

    name: str
    env: str
    #: Already in parsed form.
    default: object
    #: Maps a value or its string spelling to the parsed value; raises
    #: ``ValueError`` carrying what it expected.
    parse: Callable[[object], object]
    doc: str
    #: ``None`` is a value of the knob, spelt ``none``/``unbounded``/
    #: ``off``/``disabled`` or empty in the environment and on flags.
    nullable: bool = False
    #: Command-line flag :func:`add_flags` generates for the knob, if any.
    flag: Optional[str] = None


def _choice(*options: str):
    def parse(value) -> str:
        key = str(value).lower()
        if key not in options:
            raise ValueError(f"one of {list(options)}")
        return key

    return parse


def _number(kind, what: str, ok: Callable[[float], bool]):
    """Parser of ``kind`` numbers, or their spellings, for which ``ok`` holds."""
    accepted = (int, float) if kind is float else int

    def parse(value):
        if isinstance(value, str):
            try:
                value = kind(value.strip())
            except ValueError:
                raise ValueError(what) from None
        if isinstance(value, bool) or not isinstance(value, accepted) or not ok(value):
            raise ValueError(what)
        return kind(value)

    return parse


def _flag(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        key = value.strip().lower()
        if key in ("1", "true", "yes", "on"):
            return True
        if key in ("0", "false", "no", "off", ""):
            return False
    raise ValueError("a boolean (or 1/0, true/false, yes/no, on/off)")


_count = _number(int, "a positive integer", lambda n: n > 0)
_size = _number(int, "a positive integer (0 = unbounded)", lambda n: n >= 0)
_fraction = _number(float, "a number in [0, 1]", lambda x: 0.0 <= x <= 1.0)

_NONE_SPELLINGS = ("none", "unbounded", "off", "disabled", "")

KNOBS: Dict[str, Knob] = {knob.name: knob for knob in (
    Knob("backend", "REPRO_BACKEND", "vectorized",
         _choice("vectorized", "loop"),
         "IIM kernel backend: vectorized (batched numpy) or loop (the "
         "per-tuple reference)"),
    Knob("model_cache_size", "REPRO_ONLINE_CACHE_SIZE", 8,
         lambda value: _size(value) or None,
         "per-attribute model states the online engine keeps resident, "
         "LRU-evicted beyond (none or 0 keeps all)",
         nullable=True),
    Knob("refresh_policy", "REPRO_ONLINE_REFRESH", "lazy",
         _choice("lazy", "eager"),
         "engine refresh policy: lazy folds mutations into a model state at "
         "its next impute, eager at every mutation"),
    Knob("wal_sync", "REPRO_WAL_SYNC", "batch",
         _choice("always", "batch", "off"),
         "WAL sync policy: always fsyncs every record, batch flushes once "
         "per mutation batch, off leaves records buffered",
         flag="--sync"),
    Knob("max_request_bytes", "REPRO_MAX_REQUEST_BYTES", 1_048_576, _count,
         "longest serve request line in bytes; longer lines answer a "
         "protocol error",
         nullable=True, flag="--max-request-bytes"),
    Knob("deadline_seconds", "REPRO_REQUEST_DEADLINE", None,
         _number(float, "a positive number of seconds", lambda x: x > 0.0),
         "per-request serve deadline in seconds; overruns answer a deadline "
         "error",
         nullable=True, flag="--deadline"),
    # 0 merges only requests already queued behind one another, so
    # request-response clients pay no added latency.
    Knob("microbatch_window_ms", "REPRO_MICROBATCH_WINDOW_MS", 0.0,
         _number(float, "a non-negative number of milliseconds",
                 lambda x: x >= 0.0),
         "how long a single-row impute waits for coalescible followers, in "
         "ms (0 = only already-queued ones)",
         flag="--microbatch-window-ms"),
    Knob("microbatch_max_rows", "REPRO_MICROBATCH_MAX_ROWS", 64, _count,
         "most rows one coalesced impute batch carries",
         flag="--microbatch-max-rows"),
    Knob("max_rows_per_request", "REPRO_MAX_ROWS_PER_REQUEST", None, _count,
         "most rows one serve request may carry; larger requests answer a "
         "quota error",
         nullable=True, flag="--max-rows-per-request"),
    Knob("max_sessions", "REPRO_MAX_SESSIONS", None, _count,
         "most live serve sessions; further create/restore answers a quota "
         "error",
         nullable=True, flag="--max-sessions"),
    Knob("max_queued_requests", "REPRO_MAX_QUEUED_REQUESTS", 256, _count,
         "most queued requests per serve session; more answer an overloaded "
         "error",
         flag="--max-queued-requests"),
    Knob("obs_enabled", "REPRO_OBS_ENABLED", True, _flag,
         "whether the metrics registry and request tracer record anything"),
    # Full span capture costs a few percent on sub-millisecond requests,
    # so production-style head sampling keeps one request in ten.
    Knob("trace_sample", "REPRO_OBS_TRACE_SAMPLE", 0.1, _fraction,
         "fraction of serve requests whose span tree is captured (metrics "
         "cover every request)",
         flag="--trace-sample"),
    Knob("query_provenance", "REPRO_QUERY_PROVENANCE", True, _flag,
         "whether queries record per-imputed-cell provenance (EXPLAIN and "
         "the provenance field)"),
    Knob("scenario_transport", "REPRO_SCENARIO_TRANSPORT", "auto",
         _choice("auto", "engine", "serve", "tcp"),
         "scenario replay transport: engine, serve, tcp, or auto (serve for "
         "multi-tenant specs, engine otherwise)",
         flag="--transport"),
    Knob("scenario_digest_check", "REPRO_SCENARIO_DIGEST_CHECK", True, _flag,
         "whether replays of registered scenarios first check the golden "
         "trace digest"),
)}

#: Knobs an :class:`~repro.online.OnlineImputationEngine` keyword of the
#: same name overrides; also the keys a session config's ``engine`` takes.
ENGINE_KNOBS = (
    "model_cache_size",
    "refresh_policy",
)

#: Knobs a :class:`~repro.api.serve.SessionServer` keyword of the same name
#: overrides.
SERVE_KNOBS = (
    "wal_sync",
    "deadline_seconds",
    "max_request_bytes",
    "microbatch_window_ms",
    "microbatch_max_rows",
    "max_rows_per_request",
    "max_sessions",
    "max_queued_requests",
    "trace_sample",
)

#: Parsed values of the knobs read so far (from the environment, the
#: default, or :func:`set`).
_values: Dict[str, object] = {}


def _knob(name: str) -> Knob:
    try:
        return KNOBS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown knob {name!r}; known knobs: {sorted(KNOBS)}"
        ) from None


def _parse(knob: Knob, value, origin: str = ""):
    if knob.nullable and (
        value is None
        or isinstance(value, str) and value.strip().lower() in _NONE_SPELLINGS
    ):
        return None
    try:
        return knob.parse(value)
    except ValueError as exc:
        expected = f"{exc} or none" if knob.nullable else exc
        raise ConfigurationError(
            f"{origin}{knob.name} must be {expected}, got {value!r} "
            f"({knob.doc})"
        ) from None


def get(name: str):
    """The process-wide value of knob ``name``."""
    try:
        return _values[name]
    except KeyError:
        pass
    knob = _knob(name)
    raw = os.environ.get(knob.env)
    value = knob.default if raw is None else _parse(knob, raw, f"{knob.env}: ")
    # setdefault: a concurrent set() that landed first wins.
    return _values.setdefault(name, value)


def set(name: str, value):
    """Set knob ``name`` process-wide; returns its previous parsed value."""
    parsed = _parse(_knob(name), value)
    previous = get(name)
    _values[name] = parsed
    return previous


@contextmanager
def override(name: str, value):
    """Set knob ``name`` for the duration of a ``with`` block.

    >>> with override("refresh_policy", "eager"):
    ...     pass  # engines built here refresh eagerly
    """
    previous = set(name, value)
    try:
        yield
    finally:
        _values[name] = previous


def resolve(name: str, value="default"):
    """Resolve a per-call ``value`` of knob ``name`` against its process-wide
    value.

    The sentinel ``"default"`` — and ``None`` unless ``None`` is a value of
    the knob — defers to :func:`get`; anything else is parsed.
    """
    knob = _knob(name)
    if (isinstance(value, str) and value == "default") or (
        value is None and not knob.nullable
    ):
        return get(name)
    return _parse(knob, value)


def add_flags(parser, names: Iterable[str]) -> None:
    """Give an ``argparse`` parser the flag of each named knob.

    Each flag stores into ``args.<knob name>`` and defaults to the
    ``"default"`` sentinel, so the constructor receiving it resolves the
    process-wide value exactly as an in-process caller would.
    """
    for name in names:
        knob = KNOBS[name]
        parser.add_argument(
            knob.flag, dest=name, default="default",
            help=f"{knob.doc} (default: {knob.env} or {knob.default})",
        )
