"""The JSONL serve loop: named sessions multiplexed over a byte stream.

The wire format is newline-delimited JSON — one request object per line in,
one response object per line out, stdlib only.  Every request carries the
protocol version, an optional client-chosen ``id`` (echoed back so clients
can pipeline), a command, and — for session commands — the session name::

    {"v": 1, "id": 7, "cmd": "impute", "session": "s", "rows": [[1.0, null]]}

and every response is either a result or a typed error::

    {"v": 1, "id": 7, "ok": true, "result": {"rows": [[1.0, 2.5]]}}
    {"v": 1, "id": 7, "ok": false, "error": {"code": "not_fitted", "message": "..."}}

Commands
--------
``create`` (session, config), ``fit`` / ``append`` (session, rows),
``delete`` (session, indices), ``update`` (session, index, row),
``mutate`` (session, ops), ``impute`` (session, rows), ``stats`` (session),
``save`` (session, path), ``restore`` (session, path), ``close`` (session),
``sessions``, ``methods``, ``health``, ``ping``, ``metrics`` (format:
json|prometheus), ``traces`` (limit), ``shutdown``.

Observability
-------------
Every request is issued a trace ID, echoed as ``"trace"`` on the response
envelope (and inside error payloads) so a client log line can be joined
with the server-side trace.  Request latency and status land in the
process-wide :mod:`repro.obs` registry
(``repro_request_seconds{cmd=...}``, ``repro_requests_total``), the
handler body runs under a root span named ``serve.<cmd>`` (engine phases
nest beneath it), and the ``metrics`` command exposes the registry as JSON
or Prometheus text.  ``trace_log``/``trace_sample`` persist sampled traces
to rotated JSONL segments.

Transport is either stdio (``python -m repro serve --stdio``) or a TCP
socket (``--port``); the TCP server multiplexes every connection over one
shared session table, so two clients can talk to the same named session.
Malformed lines answer with an error response instead of killing the loop
— a serving process must outlive a bad client.

Concurrency
-----------
Transports parse each line and publish its session command on the
:class:`~repro.api.scheduling.RequestScheduler`'s per-session FIFO queue,
then execute by flat combining: the reader thread holds the session and
runs its queue in order — other connections' requests included — until
its own requests are answered, or waits while another reader holds it.
One session's requests execute in publication order, different sessions
in parallel on their readers' threads, and runs of single-row ``impute``
requests coalesce into one batched kernel call.  Session
state is guarded by *per-session* locks plus a short-critical-section
registry lock over the session table, so a slow (or deadline-abandoned)
request poisons one session, never the server.  Admission control
rejects before any state changes: per-request row quotas and a
live-session quota answer typed ``quota`` errors, full queues answer
``overloaded``, and a shared-secret ``auth_token`` (checked on every
request when set) answers ``auth``.

Failure containment
-------------------
With a ``wal_root``, every online session logs its accepted mutations to a
per-session :class:`~repro.reliability.WriteAheadLog` (``save`` checkpoints
atomically and truncates the log; ``restore`` replays any surviving WAL
tail onto the checkpoint).  A session whose engine raises mid-mutation is
*quarantined* — marked degraded, answering
:class:`~repro.exceptions.SessionQuarantinedError` instead of serving
half-applied state — while every other session keeps serving.  Request
lines are bounded (``max_request_bytes``), requests can carry a deadline
(``deadline_seconds`` → :class:`~repro.exceptions.DeadlineExceededError`),
and the ``health`` command reports per-session state, WAL lag and
last-checkpoint age.
"""

from __future__ import annotations

import hmac
import json
import socketserver
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, TextIO, Union

import numpy as np

from ..baselines.registry import METHOD_SPECS
from .. import config
from ..exceptions import (
    AuthenticationError,
    ConfigurationError,
    DataError,
    DeadlineExceededError,
    NotFittedError,
    ProtocolError,
    QuotaExceededError,
    SessionQuarantinedError,
    UnsupportedOperationError,
)
from ..obs import (
    JsonlTraceSink,
    count_admission_rejection,
    get_registry,
    get_tracer,
    observe_request,
    set_sessions_open,
)
from ..query import QueryResult, SelectStatement, execute_query, parse_statement
from ..reliability.wal import SEGMENT_SUFFIX, WriteAheadLog, read_wal
from .errors import error_code, error_payload
from .messages import (
    PROTOCOL_VERSION,
    ImputeRequest,
    MutationOp,
    SessionConfig,
    decode_rows,
    encode_rows,
    validate_session_name,
)
from .scheduling import RequestScheduler
from .sessions import (
    ImputationSession,
    OnlineSession,
    create_session,
    recover_session,
    restore_session,
)

__all__ = ["SessionServer", "serve_stdio", "serve_tcp"]

#: Exceptions a command may raise *without* quarantining its session:
#: they are rejected up front by validation, before any state changed.
_CLEAN_REJECTIONS = (
    ProtocolError,
    UnsupportedOperationError,
    ConfigurationError,
    NotFittedError,
    DataError,
)


class SessionServer:
    """The transport-agnostic request handler behind every serve loop.

    Holds the named-session table and answers decoded requests;
    :func:`serve_stdio` and :func:`serve_tcp` are transports around
    :meth:`submit_line` (publish) and the scheduler's
    :meth:`~repro.api.scheduling.RequestScheduler.combine` (execute);
    :meth:`handle_line` does both for in-process use and tests.  All
    methods are safe to call from multiple threads: each session's state
    is guarded by its own lock — numpy releases the GIL in the GEMM-heavy
    kernels, so distinct sessions genuinely run in parallel — and the
    session table itself by a registry lock held only for dictionary
    operations.

    ``artifact_root`` confines every ``save``/``restore`` path from the
    wire to one directory: requests naming paths that resolve outside it
    are rejected with a ``protocol`` error, so a client never gains a
    write-anywhere/read-anywhere primitive on the serving host.  The
    transport entry points (:func:`serve_stdio`, :func:`serve_tcp`, the
    ``serve`` CLI) default it to the working directory; the bare
    constructor leaves it ``None`` for in-process servers whose requests
    you author yourself.

    ``wal_root`` (optional) gives every online session a write-ahead log
    under ``wal_root/<session>/`` so its mutations survive a crash of the
    serving process; ``wal_sync`` picks the durability/latency trade-off
    (see :mod:`repro.reliability`).  ``deadline_seconds`` bounds each
    request's wall-clock, ``max_request_bytes`` bounds each request line,
    and ``fault_injector`` threads a :class:`~repro.reliability.FaultPlan`
    through the WAL, the artifact writer and request dispatch for chaos
    testing.

    ``microbatch_window_ms``/``microbatch_max_rows``/
    ``max_queued_requests`` shape the dispatch layer (see
    :mod:`repro.api.scheduling`); ``max_rows_per_request`` and
    ``max_sessions`` are admission quotas answering typed ``quota``
    errors; ``trace_sample`` pins this process's trace sampling rate;
    ``auth_token`` (when set) demands a matching ``"token"`` field on
    every request envelope.

    Each of those nine tuning keywords is the :mod:`repro.config` knob of
    the same name (:data:`repro.config.SERVE_KNOBS`), and each
    ``python -m repro serve`` flag is generated from its table row.  The
    ``"default"`` sentinel resolves the knob process-wide: a
    :func:`repro.config.set`/:func:`~repro.config.override` value, else
    its ``REPRO_*`` environment variable, else the table default;
    ``trace_sample="default"`` leaves the tracer following the knob.
    """

    def __init__(
        self,
        artifact_root: Optional[Union[str, Path]] = None,
        *,
        wal_root: Optional[Union[str, Path]] = None,
        wal_sync: str = "default",
        deadline_seconds: Union[str, float, None] = "default",
        max_request_bytes: Union[str, int, None] = "default",
        fault_injector=None,
        trace_log: Optional[Union[str, Path]] = None,
        trace_sample: Union[str, float, None] = "default",
        microbatch_window_ms: Union[str, float] = "default",
        microbatch_max_rows: Union[str, int] = "default",
        max_rows_per_request: Union[str, int, None] = "default",
        max_sessions: Union[str, int, None] = "default",
        max_queued_requests: Union[str, int] = "default",
        auth_token: Optional[str] = None,
    ):
        self.sessions: Dict[str, ImputationSession] = {}
        self.running = True
        self.artifact_root = (
            None if artifact_root is None else Path(artifact_root).resolve()
        )
        self.wal_root = None if wal_root is None else Path(wal_root).resolve()
        self.wal_sync = config.resolve("wal_sync", wal_sync)
        self.deadline_seconds = config.resolve("deadline_seconds", deadline_seconds)
        self.max_request_bytes = config.resolve("max_request_bytes", max_request_bytes)
        self.max_rows_per_request = config.resolve(
            "max_rows_per_request", max_rows_per_request
        )
        self.max_sessions = config.resolve("max_sessions", max_sessions)
        self.auth_token = auth_token
        self.fault_injector = fault_injector
        #: Quarantined sessions: name -> reason the engine was declared
        #: untrustworthy.  Populated when a mutation fails mid-apply.
        self.quarantined: Dict[str, str] = {}
        #: Bound port once :func:`serve_tcp` is listening (None for stdio).
        self.tcp_port: Optional[int] = None
        self._checkpoint_at: Dict[str, float] = {}
        self._started = time.monotonic()
        #: Guards the session table and its sidecar dicts (quarantined,
        #: checkpoint times, session locks, abandoned workers).  Held for
        #: dictionary operations only — never across engine work or I/O.
        self._registry_lock = threading.Lock()
        #: One lock per session name, serialising that session's commands.
        #: Never removed once created: a deadline-abandoned worker may
        #: still hold one, and a recreated session of the same name must
        #: queue behind it rather than race it.
        self._session_locks: Dict[str, threading.Lock] = {}
        #: Deadline-overrun workers still running: session (or command)
        #: key -> records of the threads left holding that session's lock.
        self._abandoned: Dict[str, List[Dict[str, object]]] = {}
        self.scheduler = RequestScheduler(
            self,
            microbatch_window_ms=config.resolve(
                "microbatch_window_ms", microbatch_window_ms
            ),
            microbatch_max_rows=config.resolve(
                "microbatch_max_rows", microbatch_max_rows
            ),
            max_queued_requests=config.resolve(
                "max_queued_requests", max_queued_requests
            ),
        )
        #: The process-wide observability handles: one registry/tracer per
        #: process so engine-phase spans land in the same trace as the
        #: request that triggered them.
        self.metrics = get_registry()
        self.tracer = get_tracer()
        self.trace_sink: Optional[JsonlTraceSink] = None
        if not (isinstance(trace_sample, str) and trace_sample == "default"):
            self.tracer.configure(
                sample=config.resolve("trace_sample", trace_sample)
            )
        if trace_log is not None:
            self.trace_sink = JsonlTraceSink(trace_log)
            self.tracer.configure(sink=self.trace_sink)

    # ------------------------------------------------------------------ #
    # Envelope
    # ------------------------------------------------------------------ #
    def handle_line(self, line: str) -> Optional[Dict[str, object]]:
        """Answer one raw request line (``None`` for blank lines).

        :meth:`submit_line`, then combine until the line is answered —
        the path the transports take, one line at a time.
        """
        answered: List[Dict[str, object]] = []
        self.submit_line(line, answered.append)
        self.scheduler.combine()
        return answered[0] if answered else None

    def submit_line(self, line: str,
                    respond: Callable[[Dict[str, object]], None]) -> bool:
        """Bound, decode and authenticate one raw line, then route it.

        A session command is published on its session's queue; ``respond``
        is called once it executes, in per-session publication order, when
        the caller (or the holder of its session) combines.  A control
        command — and every admission rejection — answers on the calling
        thread, a control command after the caller's own published
        commands have run.  ``respond`` is called exactly once for any
        non-blank line; blank lines return ``False`` without calling it.

        ``shutdown`` first drains the scheduler so every pipelined request
        ahead of it is answered, then stops the server.
        """
        line = line.strip()
        if not line:
            return False
        if (
            self.max_request_bytes is not None
            and len(line.encode("utf-8", errors="surrogateescape"))
            > self.max_request_bytes
        ):
            respond(self.oversized_response())
            return True
        request = None
        try:
            try:
                decoded = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ProtocolError(f"malformed JSON request: {exc}") from exc
            if not isinstance(decoded, dict):
                raise ProtocolError("a request must be a JSON object")
            request = decoded
            # Unauthenticated lines are rejected before they consume queue
            # capacity; the scheduler holds admitted requests only.
            self._check_auth(request)
            cmd_label = self._label(request)
            if cmd_label in self._SESSION_COMMANDS:
                self.scheduler.submit(request, respond)
                return True
            self.scheduler.combine()
            if cmd_label == "shutdown":
                self.scheduler.drain()
            response = self.handle_request(request)
        except Exception as exc:  # noqa: BLE001 - the loop must survive bad input
            response = self._reject(request, exc)
        respond(response)
        return True

    def _label(self, request: Optional[Dict[str, object]]) -> str:
        """The request's command as a metric label.

        ``cmd`` may be any JSON value; only known commands become labels,
        so a hostile client cannot explode label cardinality.
        """
        cmd = None if request is None else request.get("cmd")
        return cmd if isinstance(cmd, str) and cmd in self._COMMANDS else "unknown"

    def _check_auth(self, request: Dict[str, object]) -> None:
        if self.auth_token is None:
            return
        token = request.get("token")
        if not isinstance(token, str) or not hmac.compare_digest(
            token.encode("utf-8"), self.auth_token.encode("utf-8")
        ):
            count_admission_rejection("auth")
            raise AuthenticationError(
                "missing or invalid auth token; pass the server's shared "
                "secret as the request's 'token' field"
            )

    def handle_request(self, request: Dict[str, object]) -> Dict[str, object]:
        """Answer one decoded request object.

        Every request — valid or not — is issued a trace ID (echoed as
        ``"trace"`` on the response and inside error payloads) and counted
        into the per-command latency/status histograms.  Only admitted
        requests arrive here (from the line envelope or the scheduler), so
        auth is already checked.
        """
        request_id = request.get("id")
        cmd = request.get("cmd")
        cmd_label = self._label(request)
        trace_id = self.tracer.new_trace_id()
        started = time.perf_counter()
        status = "ok"
        try:
            version = request.get("v", PROTOCOL_VERSION)
            if version != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"unsupported protocol version {version!r}; this server "
                    f"speaks version {PROTOCOL_VERSION}"
                )
            # `cmd` may be any JSON value, including unhashable ones.
            handler = (
                self._COMMANDS.get(cmd) if isinstance(cmd, str) else None
            )
            if handler is None:
                raise ProtocolError(
                    f"unknown command {cmd!r}; available commands: "
                    f"{sorted(self._COMMANDS)}"
                )
            result = self._dispatch(handler, request, cmd_label, trace_id)
            return {
                "v": PROTOCOL_VERSION,
                "id": request_id,
                "ok": True,
                "result": result,
                "trace": trace_id,
            }
        except Exception as exc:  # noqa: BLE001 - typed error response instead
            status = error_code(exc)
            if status == "quota":
                count_admission_rejection(status)
            return self._error(request_id, exc, trace_id)
        finally:
            observe_request(
                cmd_label, status, time.perf_counter() - started
            )

    def _session_lock(self, request: Dict[str, object],
                      cmd_label: str) -> Optional[threading.Lock]:
        """The lock a command must hold: its session's, or none.

        Control commands (``ping``, ``health``, ``metrics``, ...) take no
        session lock — they must answer even while every session is busy
        or wedged; the registry lock inside their handlers suffices.
        Session commands whose ``session`` field is not a usable name take
        none either: their handler rejects before touching any state.
        """
        if cmd_label not in self._SESSION_COMMANDS:
            return None
        name = request.get("session")
        if not isinstance(name, str) or not name:
            return None
        with self._registry_lock:
            lock = self._session_locks.get(name)
            if lock is None:
                lock = self._session_locks[name] = threading.Lock()
            return lock

    def _dispatch(self, handler, request: Dict[str, object],
                  cmd_label: str = "unknown",
                  trace_id: Optional[str] = None):
        """Run one command under its session's lock, bounded by the deadline.

        With a deadline the handler runs in a worker thread; on overrun the
        caller gets :class:`DeadlineExceededError` while the worker finishes
        in the background still holding *its session's* lock — the engine
        cannot be preempted mid-mutation, so that session stays consistent
        and its later requests queue on the lock, while every other session
        keeps serving.  The abandoned worker is recorded and reported by
        ``health`` (the session joins the ``degraded`` list) until it
        finishes.
        """
        session = request.get("session")
        attrs = {"session": session} if isinstance(session, str) else {}
        lock = self._session_lock(request, cmd_label)

        def execute():
            with self.tracer.trace(
                f"serve.{cmd_label}", trace_id=trace_id, **attrs
            ):
                if self.fault_injector is not None:
                    # Attribute the firing to the session so session-scoped
                    # faults count deterministically: one thread at a time
                    # holds a session, so "the Nth dispatch of session X"
                    # is the same request in every run even though the
                    # global dispatch order is racy.
                    self.fault_injector.fire(
                        "serve.dispatch",
                        session=(
                            session
                            if isinstance(session, str) and session
                            else None
                        ),
                    )
                return handler(self, request)

        def execute_locked():
            if lock is None:
                return execute()
            with lock:
                return execute()

        if self.deadline_seconds is None:
            return execute_locked()
        outcome: Dict[str, object] = {}
        done = threading.Event()

        def run():
            try:
                # The root span opens in the worker thread — the thread
                # the handler body (and its engine child spans) runs on.
                outcome["result"] = execute_locked()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                outcome["error"] = exc
            finally:
                done.set()
                self._discard_abandoned(threading.current_thread())

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        if not done.wait(self.deadline_seconds):
            self._record_abandoned(
                session if isinstance(session, str) and session else cmd_label,
                worker, cmd_label,
            )
            raise DeadlineExceededError(
                f"request {request.get('cmd')!r} exceeded the "
                f"{self.deadline_seconds}s deadline; it keeps running in the "
                f"background and later requests to its session will queue "
                f"behind it"
            )
        if "error" in outcome:
            raise outcome["error"]  # type: ignore[misc]
        return outcome.get("result")

    def _record_abandoned(self, key: str, worker: threading.Thread,
                          cmd_label: str) -> None:
        with self._registry_lock:
            self._abandoned.setdefault(key, []).append({
                "thread": worker,
                "cmd": cmd_label,
                "since": time.monotonic(),
            })

    def _discard_abandoned(self, worker: threading.Thread) -> None:
        """Drop a finished worker's abandonment record (called by itself)."""
        with self._registry_lock:
            for key in list(self._abandoned):
                entries = [
                    entry for entry in self._abandoned[key]
                    if entry["thread"] is not worker
                ]
                if entries:
                    self._abandoned[key] = entries
                else:
                    self._abandoned.pop(key)

    def _abandoned_snapshot(self) -> Dict[str, List[Dict[str, object]]]:
        """Live abandoned workers by session key (dead entries pruned)."""
        now = time.monotonic()
        with self._registry_lock:
            snapshot: Dict[str, List[Dict[str, object]]] = {}
            for key, entries in list(self._abandoned.items()):
                live = [e for e in entries if e["thread"].is_alive()]
                if live:
                    self._abandoned[key] = live
                    snapshot[key] = [
                        {
                            "cmd": e["cmd"],
                            "age_seconds": round(now - e["since"], 3),
                        }
                        for e in live
                    ]
                else:
                    self._abandoned.pop(key)
            return snapshot

    @staticmethod
    def _error(request_id, exc: BaseException,
               trace_id: Optional[str] = None) -> Dict[str, object]:
        payload = error_payload(exc)
        response = {
            "v": PROTOCOL_VERSION,
            "id": request_id,
            "ok": False,
            "error": payload,
        }
        if trace_id is not None:
            payload["trace"] = trace_id
            response["trace"] = trace_id
        return response

    def _reject(self, request: Optional[Dict[str, object]],
                exc: BaseException) -> Dict[str, object]:
        """The typed error answering a line turned away before dispatch."""
        code = error_code(exc)
        if code == "overloaded":
            count_admission_rejection(code)
        observe_request(self._label(request), code)
        request_id = None if request is None else request.get("id")
        return self._error(request_id, exc, self.tracer.new_trace_id())

    def oversized_response(self) -> Dict[str, object]:
        """The typed error answering an over-long request line."""
        return self._reject(None, ProtocolError(
            f"request line exceeds max_request_bytes="
            f"{self.max_request_bytes}; split the request into smaller "
            f"batches"
        ))

    # ------------------------------------------------------------------ #
    # Command implementations (called with their session's lock held for
    # session commands; registry reads/writes take the registry lock)
    # ------------------------------------------------------------------ #
    def _get_session(self, request) -> ImputationSession:
        name = self._session_name(request)
        with self._registry_lock:
            if name in self.quarantined:
                raise SessionQuarantinedError(
                    f"session {name!r} is quarantined "
                    f"({self.quarantined[name]}); close it and recover from "
                    f"its checkpoint/WAL"
                )
            session = self.sessions.get(name)
            if session is None:
                raise ProtocolError(
                    f"no session named {name!r}; create or restore it first "
                    f"(open sessions: {sorted(self.sessions)})"
                )
            return session

    def _session_name(self, request) -> str:
        return validate_session_name(request.get("session"))

    def _describe(self, name: str, session: ImputationSession) -> Dict[str, object]:
        return {
            "session": name,
            "kind": session.kind,
            "method": session.method,
            "capabilities": session.capabilities.as_dict(),
            "durable": getattr(session, "wal", None) is not None,
        }

    def _quarantine(self, name: str, exc: BaseException) -> SessionQuarantinedError:
        """Mark a session degraded and build the error its caller gets.

        Invoked when the engine raised past the point where state may have
        changed: the session's in-memory view can no longer be trusted, so
        it stops answering until closed and recovered.  Other sessions are
        untouched.
        """
        reason = f"{type(exc).__name__}: {exc}"
        with self._registry_lock:
            self.quarantined[name] = reason
        return SessionQuarantinedError(
            f"session {name!r} is quarantined: its engine raised {reason} "
            f"mid-mutation; other sessions are unaffected — close it and "
            f"recover from its checkpoint/WAL"
        )

    def _apply_ops(self, name: str, session: ImputationSession, ops) -> int:
        """Apply mutation ops one at a time with quarantine-on-failure.

        A *clean rejection* (validation error before any op touched the
        store) propagates as-is; any failure after the first applied op —
        or any unexpected exception type — quarantines the session, because
        the store may now hold a half-applied batch.
        """
        applied = 0
        try:
            for op in ops:
                session.mutate([op])
                applied += 1
        except Exception as exc:  # noqa: BLE001 - classified below
            if isinstance(exc, _CLEAN_REJECTIONS) and applied == 0:
                raise
            raise self._quarantine(name, exc) from exc
        return applied

    def _wal_dir(self, name: str) -> Path:
        validate_session_name(name, durable=True)
        return self.wal_root / name

    def _check_session_quota_locked(self) -> None:
        if (
            self.max_sessions is not None
            and len(self.sessions) >= self.max_sessions
        ):
            raise QuotaExceededError(
                f"the server already holds {len(self.sessions)} live "
                f"session(s) (max_sessions={self.max_sessions}); close one "
                f"first"
            )

    def _admit_session(self, name: str, session: ImputationSession) -> None:
        """Insert a freshly built session, re-checking quota at the insert.

        Same-name requests are serialised by the session lock, but creates
        of *different* names run concurrently — the quota must be enforced
        atomically with the insertion, releasing the loser's resources.
        """
        try:
            with self._registry_lock:
                self._check_session_quota_locked()
                self.sessions[name] = session
                set_sessions_open(len(self.sessions))
        except QuotaExceededError:
            close = getattr(session, "close", None)
            if callable(close):
                close()
            raise

    def _cmd_create(self, request) -> Dict[str, object]:
        name = self._session_name(request)
        with self._registry_lock:
            if name in self.sessions:
                raise ProtocolError(f"session {name!r} already exists")
            self._check_session_quota_locked()
        config = SessionConfig.from_wire(request.get("config"))
        session = create_session(config)
        if self.wal_root is not None and isinstance(session, OnlineSession):
            wal_dir = self._wal_dir(name)
            if wal_dir.is_dir() and any(wal_dir.glob("*" + SEGMENT_SUFFIX)):
                state = read_wal(wal_dir)
                if state.ops or state.base_seq > 0 or state.torn is not None:
                    raise ProtocolError(
                        f"session {name!r} has an existing WAL at {wal_dir}; "
                        f"'restore' it to recover the logged mutations (or "
                        f"run `python -m repro recover`), or remove the "
                        f"directory to start fresh"
                    )
                # Only an empty open record survives from a previous life:
                # safe to discard so the new session's config governs.
                for segment in sorted(wal_dir.glob("*" + SEGMENT_SUFFIX)):
                    segment.unlink()
            wal = WriteAheadLog(
                wal_dir,
                sync=self.wal_sync,
                config=config.to_wire(),
                injector=self.fault_injector,
            )
            session.attach_wal(wal, fault_injector=self.fault_injector)
        self._admit_session(name, session)
        return self._describe(name, session)

    def _cmd_fit(self, request) -> Dict[str, object]:
        name = self._session_name(request)
        session = self._get_session(request)
        rows = decode_rows(
            request.get("rows"), what="fit rows",
            max_rows=self.max_rows_per_request,
        )
        try:
            session.fit(rows)
        except _CLEAN_REJECTIONS:
            raise
        except Exception as exc:  # noqa: BLE001 - mid-mutation failure
            raise self._quarantine(name, exc) from exc
        # Sessions learn from the *complete* rows only; report both counts
        # so a client sees how many submitted tuples actually trained.
        n_complete = int((~np.isnan(rows).any(axis=1)).sum())
        return {
            "fitted": True,
            "n_rows": int(rows.shape[0]),
            "n_complete": n_complete,
        }

    def _cmd_append(self, request) -> Dict[str, object]:
        name = self._session_name(request)
        session = self._get_session(request)
        rows = decode_rows(
            request.get("rows"), what="append rows",
            max_rows=self.max_rows_per_request,
        )
        self._apply_ops(name, session, [MutationOp.append(rows)])
        return {"appended": int(rows.shape[0])}

    def _cmd_delete(self, request) -> Dict[str, object]:
        name = self._session_name(request)
        session = self._get_session(request)
        op = MutationOp.from_wire(
            {"op": "delete", "indices": request.get("indices")}
        )
        self._apply_ops(name, session, [op])
        return {"deleted": int(op.indices.shape[0])}

    def _cmd_update(self, request) -> Dict[str, object]:
        name = self._session_name(request)
        session = self._get_session(request)
        op = MutationOp.from_wire(
            {"op": "update", "index": request.get("index"), "row": request.get("row")}
        )
        self._apply_ops(name, session, [op])
        return {"updated": int(op.index)}

    def _cmd_mutate(self, request) -> Dict[str, object]:
        name = self._session_name(request)
        session = self._get_session(request)
        ops_wire = request.get("ops")
        if not isinstance(ops_wire, list) or not ops_wire:
            raise ProtocolError("mutate needs a non-empty 'ops' list")
        ops = [
            MutationOp.from_wire(op, max_rows=self.max_rows_per_request)
            for op in ops_wire
        ]
        return {"applied": self._apply_ops(name, session, ops)}

    def _cmd_impute(self, request) -> Dict[str, object]:
        session = self._get_session(request)
        impute_request = ImputeRequest.from_wire(
            {"rows": request.get("rows")},
            max_rows=self.max_rows_per_request,
        )
        values = session.impute(impute_request)
        return {
            "rows": encode_rows(values),
            "imputed_cells": impute_request.n_missing,
        }

    def _cmd_query(self, request) -> Dict[str, object]:
        """Execute one query-language statement against a session.

        The statement text rides in ``"q"``.  SELECTs are read-only (the
        on-demand imputations never change session state) and their
        touched-row count charges against ``max_rows_per_request`` — a
        query imputing more rows is rejected with a ``quota`` error before
        any kernel runs.  Data statements (APPEND/UPDATE/DELETE/IMPUTE)
        follow the same quarantine discipline as ``mutate``.
        """
        session = self._get_session(request)
        text = request.get("q")
        if not isinstance(text, str) or not text.strip():
            raise ProtocolError(
                "query needs a 'q' field carrying one statement"
            )
        statement = parse_statement(text)
        if isinstance(statement, SelectStatement):
            result = execute_query(
                session, statement,
                max_impute_rows=self.max_rows_per_request,
            )
        else:
            name = self._session_name(request)
            try:
                result = execute_query(session, statement)
            except _CLEAN_REJECTIONS:
                raise
            except Exception as exc:  # noqa: BLE001 - mid-mutation failure
                raise self._quarantine(name, exc) from exc
        if isinstance(result, QueryResult):
            payload: Dict[str, object] = {
                "kind": result.kind,
                "columns": result.columns,
                "rows": encode_rows(result.rows) if result.rows.size else [],
                "row_indices": result.row_indices,
                "rows_scanned": result.rows_scanned,
                "rows_imputed": result.rows_imputed,
                "provenance": result.provenance,
            }
            if result.kind == "explain":
                payload["plan"] = result.plan
            return payload
        return {"kind": result.kind, **result.detail}

    def _server_config(self) -> Dict[str, object]:
        """The server's resolved knobs, as health/stats self-description."""
        return {
            "wal_sync": self.wal_sync,
            "wal_root": None if self.wal_root is None else str(self.wal_root),
            "artifact_root": (
                None if self.artifact_root is None else str(self.artifact_root)
            ),
            "deadline_seconds": self.deadline_seconds,
            "max_request_bytes": self.max_request_bytes,
            "microbatch_window_ms": self.scheduler.microbatch_window_ms,
            "microbatch_max_rows": self.scheduler.microbatch_max_rows,
            "max_rows_per_request": self.max_rows_per_request,
            "max_sessions": self.max_sessions,
            "max_queued_requests": self.scheduler.max_queued_requests,
            "auth": self.auth_token is not None,
            "obs_enabled": config.get("obs_enabled"),
            "trace_sample": self.tracer.sample,
            "trace_log": (
                None if self.trace_sink is None
                else str(self.trace_sink.directory)
            ),
        }

    def _cmd_stats(self, request) -> Dict[str, object]:
        stats = self._get_session(request).stats()
        stats["server"] = {
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "config": self._server_config(),
            "scheduler": self.scheduler.snapshot(),
        }
        return stats

    def _cmd_metrics(self, request) -> Dict[str, object]:
        """The process-wide metrics registry, as JSON or Prometheus text."""
        fmt = request.get("format", "json")
        if fmt == "json":
            return {"format": "json", "metrics": self.metrics.snapshot()}
        if fmt in ("prometheus", "text"):
            return {
                "format": "prometheus",
                "content_type": "text/plain; version=0.0.4",
                "text": self.metrics.to_prometheus(),
            }
        raise ProtocolError(
            f"unknown metrics format {fmt!r}; use 'json' or 'prometheus'"
        )

    def _cmd_traces(self, request) -> Dict[str, object]:
        """The newest completed request traces from the in-memory ring."""
        limit = request.get("limit", 16)
        if isinstance(limit, bool) or not isinstance(limit, int) or limit < 0:
            raise ProtocolError(
                f"traces 'limit' must be a non-negative integer, got {limit!r}"
            )
        return {"traces": self.tracer.recent(limit)}

    def _artifact_path(self, request, command: str) -> Path:
        path = request.get("path")
        if not isinstance(path, str) or not path:
            raise ProtocolError(f"{command} needs an artifact 'path'")
        resolved = Path(path)
        if self.artifact_root is not None:
            resolved = (self.artifact_root / resolved).resolve()
            if (
                self.artifact_root != resolved
                and self.artifact_root not in resolved.parents
            ):
                raise ProtocolError(
                    f"artifact path {path!r} escapes the server's artifact "
                    f"root; use a relative path inside it"
                )
        return resolved

    def _cmd_save(self, request) -> Dict[str, object]:
        name = self._session_name(request)
        session = self._get_session(request)
        path = str(session.save(self._artifact_path(request, "save")))
        with self._registry_lock:
            self._checkpoint_at[name] = time.monotonic()
        return {"path": path}

    def _cmd_restore(self, request) -> Dict[str, object]:
        name = self._session_name(request)
        with self._registry_lock:
            if name in self.sessions:
                raise ProtocolError(f"session {name!r} already exists")
            self._check_session_quota_locked()
        path = self._artifact_path(request, "restore")
        if self.wal_root is not None:
            wal_dir = self._wal_dir(name)
            if wal_dir.is_dir() and any(wal_dir.glob("*" + SEGMENT_SUFFIX)):
                # A WAL survives from a previous life of this session:
                # replay its tail onto the checkpoint instead of silently
                # serving the (possibly stale) checkpoint alone.
                session, report = recover_session(
                    wal_dir,
                    checkpoint=path,
                    sync=self.wal_sync,
                    fault_injector=self.fault_injector,
                )
                self._admit_session(name, session)
                with self._registry_lock:
                    self.quarantined.pop(name, None)
                description = self._describe(name, session)
                description["recovered"] = {
                    "replayed_ops": report["replayed_ops"],
                    "skipped_ops": report["skipped_ops"],
                    "torn_tail": report["torn_tail"],
                }
                return description
        session = restore_session(path)
        if self.wal_root is not None and isinstance(session, OnlineSession):
            wal = WriteAheadLog(
                self._wal_dir(name),
                sync=self.wal_sync,
                config=session.config_wire(),
                injector=self.fault_injector,
            )
            session.attach_wal(wal, fault_injector=self.fault_injector)
        self._admit_session(name, session)
        return self._describe(name, session)

    def _cmd_close(self, request) -> Dict[str, object]:
        name = self._session_name(request)
        with self._registry_lock:
            session = self.sessions.get(name)
            if session is None:
                raise ProtocolError(f"no session named {name!r}")
            del self.sessions[name]
            self.quarantined.pop(name, None)
            self._checkpoint_at.pop(name, None)
            set_sessions_open(len(self.sessions))
        # Release resources outside the registry lock (WAL close may do
        # I/O); the session lock this command holds keeps it exclusive.
        close = getattr(session, "close", None)
        if callable(close):
            close()
        return {"closed": name}

    def _cmd_sessions(self, request) -> Dict[str, object]:
        with self._registry_lock:
            items = sorted(self.sessions.items())
        return {
            "sessions": [
                self._describe(name, session) for name, session in items
            ]
        }

    def _cmd_methods(self, request) -> Dict[str, object]:
        return {
            "methods": [
                {"method": name, "capabilities": spec.capabilities.as_dict()}
                for name, spec in METHOD_SPECS.items()
            ]
        }

    def _cmd_ping(self, request) -> Dict[str, object]:
        return {"pong": True, "protocol": PROTOCOL_VERSION}

    def _cmd_health(self, request) -> Dict[str, object]:
        """Liveness + per-session durability/dispatch report (never raises).

        ``degraded`` lists quarantined sessions *and* sessions whose lock
        is held by a deadline-abandoned worker still running; the
        ``abandoned`` section details those workers, the ``scheduler``
        section exposes queue depths and micro-batch counters.
        """
        now = time.monotonic()
        abandoned = self._abandoned_snapshot()
        scheduler = self.scheduler.snapshot()
        with self._registry_lock:
            items = sorted(self.sessions.items())
            quarantined = dict(self.quarantined)
            checkpoint_at = dict(self._checkpoint_at)
        sessions: Dict[str, Dict[str, object]] = {}
        for name, session in items:
            degraded = name in quarantined or name in abandoned
            entry: Dict[str, object] = {
                "state": "degraded" if degraded else "ok",
            }
            if name in quarantined:
                entry["reason"] = quarantined[name]
            elif name in abandoned:
                entry["reason"] = (
                    f"deadline-abandoned worker(s) still hold this "
                    f"session's lock: "
                    + ", ".join(
                        f"{e['cmd']} ({e['age_seconds']}s)"
                        for e in abandoned[name]
                    )
                )
            wal = getattr(session, "wal", None)
            if wal is not None:
                stats = wal.stats()
                entry["wal"] = {
                    "sync": stats["sync"],
                    "lag_records": stats["lag_records"],
                    "segments": stats["segments"],
                    "bytes": stats["bytes"],
                }
            checkpointed = checkpoint_at.get(name)
            entry["last_checkpoint_age_seconds"] = (
                None if checkpointed is None else round(now - checkpointed, 3)
            )
            queued = scheduler["queued"].get(name)
            if queued:
                entry["queued_requests"] = queued
            sessions[name] = entry
        return {
            "status": "serving" if self.running else "stopping",
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": round(now - self._started, 3),
            "config": self._server_config(),
            "sessions": sessions,
            "degraded": sorted(set(quarantined) | set(abandoned)),
            "abandoned": abandoned,
            "scheduler": scheduler,
        }

    def close_sessions(self) -> None:
        """Release every session's resources (WAL handles stay on disk).

        Idempotent; the transports call it when their input ends — EOF is
        an orderly end of a stdio pipeline, not a crash, so file handles
        must not be left to the garbage collector.  Stops the scheduler
        first, so no request — queued or executing — runs in a session
        being closed.
        """
        self.scheduler.stop()
        with self._registry_lock:
            sessions = list(self.sessions.values())
        for session in sessions:
            close = getattr(session, "close", None)
            if callable(close):
                close()
        if self.trace_sink is not None:
            self.trace_sink.close()

    def _cmd_shutdown(self, request) -> Dict[str, object]:
        self.running = False
        self.close_sessions()
        return {"stopping": True}

    _COMMANDS = {
        "create": _cmd_create,
        "fit": _cmd_fit,
        "append": _cmd_append,
        "delete": _cmd_delete,
        "update": _cmd_update,
        "mutate": _cmd_mutate,
        "impute": _cmd_impute,
        "query": _cmd_query,
        "stats": _cmd_stats,
        "save": _cmd_save,
        "restore": _cmd_restore,
        "close": _cmd_close,
        "sessions": _cmd_sessions,
        "methods": _cmd_methods,
        "health": _cmd_health,
        "ping": _cmd_ping,
        "metrics": _cmd_metrics,
        "traces": _cmd_traces,
        "shutdown": _cmd_shutdown,
    }

    #: Commands that target one session's state: they run under that
    #: session's lock, through its FIFO queue.  Everything else is a
    #: control command answering on the calling thread, lock-free.
    _SESSION_COMMANDS = frozenset({
        "create", "fit", "append", "delete", "update", "mutate", "impute",
        "query", "stats", "save", "restore", "close",
    })


class _OrderedWriter:
    """Emits responses in request order while execution runs out of order.

    A byte stream has one order, so each accepted input line reserves the
    next output slot; whichever thread executes a request fills its slot
    and the writer flushes the contiguous prefix.  One slow request
    therefore delays the *emission* of later responses on its own stream —
    but not their execution, and other connections flow independently.

    Write failures mark the stream dead and drop the remaining responses:
    the requests still execute (their state changes are real), there is
    just no client left to tell.
    """

    def __init__(self, emit: Callable[[Dict[str, object]], None]):
        self._emit = emit
        self._lock = threading.Lock()
        self._filled: Dict[int, Dict[str, object]] = {}
        self._next_seq = 0
        self._next_emit = 0
        self.dead = False

    def reserve(self) -> Callable[[Dict[str, object]], None]:
        """Claim the next output slot; the returned callable fills it."""
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
        return lambda response: self._fill(seq, response)

    def _fill(self, seq: int, response: Dict[str, object]) -> None:
        with self._lock:
            self._filled[seq] = response
            while self._next_emit in self._filled:
                ready = self._filled.pop(self._next_emit)
                self._next_emit += 1
                if self.dead:
                    continue
                try:
                    self._emit(ready)
                except Exception:  # noqa: BLE001 - client gone mid-reply
                    self.dead = True


def serve_stdio(
    stdin: Optional[TextIO] = None,
    stdout: Optional[TextIO] = None,
    server: Optional[SessionServer] = None,
) -> int:
    """Serve requests line-by-line from ``stdin`` until EOF or ``shutdown``.

    Each line runs to its answer on the reader thread before the next is
    read, so pipelined stdio lines neither overlap nor coalesce.  Without
    an explicit ``server`` the loop runs confined to the working directory
    (save/restore paths may not escape it); pass a :class:`SessionServer`
    of your own to choose a different artifact root or to run unconfined.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    server = server or SessionServer(artifact_root=".")
    limit = server.max_request_bytes
    try:
        _serve_stdio_loop(stdin, stdout, server, limit)
    finally:
        server.close_sessions()
    return 0


def _serve_stdio_loop(stdin, stdout, server, limit) -> None:
    def emit(response: Dict[str, object]) -> None:
        stdout.write(json.dumps(response) + "\n")
        stdout.flush()

    writer = _OrderedWriter(emit)
    while server.running:
        line = stdin.readline() if limit is None else stdin.readline(limit + 1)
        if not line:
            break
        if limit is not None and len(line) > limit and not line.endswith("\n"):
            # Over-long line: answer a typed error *without* buffering the
            # rest of it — drain to the next newline in bounded chunks.
            while True:
                rest = stdin.readline(1 << 16)
                if not rest or rest.endswith("\n"):
                    break
            writer.reserve()(server.oversized_response())
        elif line.strip():  # a blank line gets no response slot
            server.submit_line(line, writer.reserve())
            server.scheduler.combine()


#: Bytes one ``recv_into`` may read; a longer line grows the buffer.
_RECV_BYTES = 1 << 16


class _JsonlTCPHandler(socketserver.StreamRequestHandler):
    """One TCP connection: reads its lines, writes its responses in order.

    The reader blocks in ``recv_into`` on one persistent buffer, publishes
    every complete line the buffer holds, then combines until they are
    answered, and only then reads again.  A pipelining client's buffered
    lines therefore coalesce, and a request-response client's command runs
    on this thread whenever its session is free.  The socket stays
    blocking, so another connection's reader can always ``sendall`` this
    connection's responses.
    """

    def handle(self):
        server: SessionServer = self.server.session_server  # type: ignore[attr-defined]
        limit = server.max_request_bytes
        writer = _OrderedWriter(self._emit)
        buffer = bytearray(_RECV_BYTES)
        start = end = 0  # buffer[start:end] is read but not yet parsed
        skipping = False  # inside an over-long line, dropping its bytes
        while True:
            if end == len(buffer):
                if start:
                    buffer[:end - start] = buffer[start:end]
                    end -= start
                    start = 0
                else:
                    buffer.extend(bytes(len(buffer)))
            try:
                received = self.connection.recv_into(memoryview(buffer)[end:])
            except OSError:
                return  # client vanished: nothing left to answer
            if not received:
                return  # EOF; a torn last line is discarded
            end += received
            while server.running:
                newline = buffer.find(b"\n", start, end)
                if newline < 0:
                    break
                if skipping or (limit is not None and newline - start > limit):
                    # An over-long line ends: answer a typed error so the
                    # client can correct itself.
                    skipping = False
                    writer.reserve()(server.oversized_response())
                else:
                    text = buffer[start:newline].decode(
                        "utf-8", errors="replace"
                    )
                    if text.strip():  # a blank line gets no response slot
                        server.submit_line(text, writer.reserve())
                start = newline + 1
            if skipping or (limit is not None and end - start > limit):
                skipping = True  # drop what came of the over-long line
                start = end
            if start == end:
                start = end = 0
            server.scheduler.combine()
            if not server.running:
                self.server.shutdown_event.set()  # type: ignore[attr-defined]
                return

    def _emit(self, response: Dict[str, object]) -> None:
        self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
        self.wfile.flush()


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


def serve_tcp(
    host: str = "127.0.0.1",
    port: int = 7007,
    server: Optional[SessionServer] = None,
    ready: Optional[threading.Event] = None,
    join_timeout: float = 5.0,
) -> int:
    """Serve requests over TCP until a client sends ``shutdown``.

    Every connection shares one session table, so a client can create a
    session, disconnect, and another can keep mutating it.  ``ready`` (if
    given) is set once the socket is listening — handy for tests.  Without
    an explicit ``server`` the loop runs confined to the working directory
    (save/restore paths may not escape it).

    If the accept-loop thread fails to stop within ``join_timeout`` seconds
    of shutdown, the leak is reported on stderr and raised as
    :class:`RuntimeError` — a silently surviving serve thread would keep
    the session table (and any WAL handles) alive behind the caller's back.
    """
    session_server = server or SessionServer(artifact_root=".")
    with _ThreadingTCPServer((host, port), _JsonlTCPHandler) as tcp:
        tcp.session_server = session_server  # type: ignore[attr-defined]
        tcp.shutdown_event = threading.Event()  # type: ignore[attr-defined]
        thread = threading.Thread(target=tcp.serve_forever, daemon=True)
        thread.start()
        session_server.tcp_port = tcp.server_address[1]
        if ready is not None:
            ready.set()
        try:
            tcp.shutdown_event.wait()  # type: ignore[attr-defined]
        finally:
            session_server.close_sessions()
            tcp.shutdown()
            thread.join(timeout=join_timeout)
            if thread.is_alive():
                message = (
                    f"serve_tcp: accept loop still alive {join_timeout}s "
                    f"after shutdown; a handler thread may be wedged"
                )
                print(f"error: {message}", file=sys.stderr)
                raise RuntimeError(message)
    return 0
