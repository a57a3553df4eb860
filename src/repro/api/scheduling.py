"""The serve loop's dispatch layer: session queues, combining, micro-batches.

The transports (:func:`~repro.api.serve.serve_stdio`,
:func:`~repro.api.serve.serve_tcp`) read lines on one thread per stream,
and every session command runs on a thread that asked for it.  Dispatch
is *flat combining* (Hendler, Incze, Shavit and Tzafrir, "Flat combining
and the synchronization-parallelism tradeoff", SPAA 2010):

* a caller **publishes** each parsed session command on its session's
  FIFO queue (:meth:`RequestScheduler.submit`), bounded at
  ``max_queued_requests`` — a full queue answers a typed ``overloaded``
  error instead of buffering without bound;
* it then **combines** (:meth:`RequestScheduler.combine`): until its
  requests are answered it either *holds* their session and executes that
  queue in order — other callers' requests included — or waits while
  another thread holds it.  One thread holds a session at a time, so one
  session's requests execute (and answer) in publication order, while
  different sessions run in parallel on their callers' threads — numpy
  releases the GIL inside the GEMM-heavy kernels;
* a holder's **turn ends** once its own requests are answered, and a
  waiting publisher takes over the rest: no request is stranded, and a hot
  session cannot keep one connection's reader from its own socket.  No
  thread waits while it holds a session, except for a positive coalescing
  window;
* a **micro-batcher** coalesces a contiguous run of single-row ``impute``
  requests against the same session and missing-cell pattern into one
  batched kernel call (the batched path sustains ~27x the per-row
  throughput of single-request dispatch), then scatters the per-row
  responses back to the right callers.  ``microbatch_window_ms > 0``
  additionally holds an eligible head request open for stragglers from
  other threads; the default ``0`` coalesces only what is already queued.

A TCP reader publishes every complete line its buffer holds before it
combines, so a pipelining client's lines coalesce with each other and
with other connections' lines to the same session, while a
request-response client's command runs on its own reader thread whenever
its session is free.

Every request handed to :meth:`~RequestScheduler.submit` is answered
exactly once through its ``respond`` callback — also on handler failure or
server shutdown — because the transports' ordered writers block until
every reserved slot is filled.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from ..exceptions import ProtocolError, ServerOverloadedError
from ..obs import observe_microbatch, set_queue_depth
from .errors import error_payload
from .messages import PROTOCOL_VERSION

__all__ = ["PendingRequest", "RequestScheduler"]


class PendingRequest:
    """One parsed request on a session queue, plus its reply path."""

    __slots__ = ("request", "respond", "enqueued_at", "key", "done")

    def __init__(self, request: Dict[str, object],
                 respond: Callable[[Dict[str, object]], None]):
        self.request = request
        self.respond = respond
        self.enqueued_at = time.monotonic()
        self.key = _queue_key(request)
        #: Set once ``respond`` has been called.
        self.done = False

    def single_impute_row(self) -> Optional[List[object]]:
        """The request's one wire row, when it is a coalescible impute.

        Coalescible means: ``cmd == "impute"`` carrying exactly one row —
        either a flat list of cells or a singleton list-of-rows — of finite
        numbers and nulls.  Anything else (batches, malformed rows, an
        infinite cell, an integer beyond float range) returns ``None`` and
        is dispatched unbatched, so validation errors keep their
        per-request envelope.  Never raises: a combiner calls it under the
        scheduler lock on whatever a client sent.
        """
        if self.request.get("cmd") != "impute":
            return None
        rows = self.request.get("rows")
        if not isinstance(rows, list) or not rows:
            return None
        if not isinstance(rows[0], (list, tuple)):
            # One flat row: [1.0, null, 2.0].
            row = rows
        elif len(rows) == 1 and isinstance(rows[0], (list, tuple)):
            row = list(rows[0])
        else:
            return None
        if not all(cell is None or _finite_number(cell) for cell in row):
            return None
        return list(row)


def _queue_key(request: Dict[str, object]) -> str:
    session = request.get("session")
    # Invalid session fields still flow through the scheduler so their
    # typed error answers in order; they all share one catch-all key.
    return session if isinstance(session, str) and session else "\x00"


def _finite_number(cell: object) -> bool:
    """Whether a decoded JSON cell is a number that is a finite float."""
    if isinstance(cell, bool) or not isinstance(cell, (int, float)):
        return False
    try:
        return math.isfinite(cell)
    except OverflowError:  # an integer literal beyond float range
        return False


def _missing_signature(row: List[object]) -> tuple:
    """Which cells a row asks to impute — the coalescing compatibility key.

    Rows merge into one kernel call only when they share width and
    missing-cell positions ("same attribute" in the single-incomplete-
    attribute regime of the paper), so the batched result is bit-identical
    to dispatching each row alone.
    """
    return (len(row),) + tuple(
        i for i, cell in enumerate(row) if cell is None
    )


class _Published(threading.local):
    """The calling thread's publications, in order, that may be unanswered."""

    def __init__(self):
        self.pending: List[PendingRequest] = []


class RequestScheduler:
    """Per-session FIFO queues, executed by the threads that publish to them.

    ``server`` is the :class:`~repro.api.serve.SessionServer` whose
    :meth:`handle_request` executes each dispatch unit; the scheduler
    owns ordering, backpressure and coalescing, the server owns semantics
    (locking, quarantine, deadlines, WAL).  The server's line envelope
    admits (authenticates) every request before it is published, so a
    coalesced batch carries no credentials of its own.

    The scheduler starts no thread: a caller publishes with :meth:`submit`
    and executes with :meth:`combine`.
    """

    def __init__(
        self,
        server,
        *,
        microbatch_window_ms: float,
        microbatch_max_rows: int,
        max_queued_requests: int,
    ):
        self.server = server
        self.microbatch_window_ms = float(microbatch_window_ms)
        self.microbatch_max_rows = int(microbatch_max_rows)
        self.max_queued_requests = int(max_queued_requests)
        self._lock = threading.Lock()
        #: Wakes a holder waiting out a coalescing window: a request arrived.
        self._work = threading.Condition(self._lock)
        #: Wakes combiners and drain(): a turn ended or requests answered.
        self._changed = threading.Condition(self._lock)
        self._queues: Dict[str, Deque[PendingRequest]] = {}
        #: Sessions a thread holds (one holder per session).
        self._active: set = set()
        self._published = _Published()
        self._stopping = False
        # Lifetime counters (read under the lock by snapshot()).
        self.dispatched = 0
        self.batches_formed = 0
        self.rows_coalesced = 0
        self.rejected_overloaded = 0

    # ------------------------------------------------------------------ #
    # Publishing
    # ------------------------------------------------------------------ #
    def submit(self, request: Dict[str, object],
               respond: Callable[[Dict[str, object]], None]) -> None:
        """Publish one parsed session command; :meth:`combine` runs it.

        ``respond`` is called exactly once, by the thread that executes the
        request: this one in a later :meth:`combine`, or meanwhile the
        thread holding its session.  A full queue may hold this thread's
        own earlier publications, which only it would run: it runs them
        first and retries once.

        Raises :class:`ServerOverloadedError` when the session's queue is
        still full and :class:`ProtocolError` once the scheduler is
        stopping — in both cases nothing was enqueued and the caller still
        owns the response.
        """
        pending = PendingRequest(request, respond)
        if self._publish(pending):
            return
        self.combine()
        if self._publish(pending):
            return
        with self._lock:
            self.rejected_overloaded += 1
        raise ServerOverloadedError(
            f"session {pending.key!r} already has {self.max_queued_requests} "
            f"queued request(s) (max_queued_requests="
            f"{self.max_queued_requests}); back off and resubmit"
        )

    def _publish(self, pending: PendingRequest) -> bool:
        """Append to the session's queue; ``False`` when it is full."""
        with self._lock:
            if self._stopping:
                raise ProtocolError("the server is shutting down")
            queue = self._queues.get(pending.key)
            if queue is None:
                queue = self._queues[pending.key] = deque()
            elif len(queue) >= self.max_queued_requests:
                return False
            queue.append(pending)
            set_queue_depth(self._depth_locked())
            self._work.notify_all()
        self._published.pending.append(pending)
        return True

    # ------------------------------------------------------------------ #
    # Combining
    # ------------------------------------------------------------------ #
    def combine(self) -> None:
        """Execute until every request this thread published is answered.

        Takes a turn on each free session holding an unanswered request of
        this thread, and waits, holding nothing, while other threads hold
        them.  Returns at once when nothing of this thread is queued.
        """
        mine = self._published.pending
        while mine:
            with self._lock:
                key = self._take_turn_locked(mine)
                if key is None:
                    return
            last = next(p for p in reversed(mine) if p.key == key)
            try:
                self._run_turn(key, last)
            finally:
                with self._lock:
                    self._active.discard(key)
                    queue = self._queues.get(key)
                    if queue is not None and not queue:
                        del self._queues[key]
                    self._changed.notify_all()

    def _take_turn_locked(self, mine: List[PendingRequest]) -> Optional[str]:
        """Hold a session with unanswered requests of ``mine``; ``None``
        once all of them are answered."""
        while True:
            mine[:] = [pending for pending in mine if not pending.done]
            if not mine:
                return None
            for pending in mine:
                if (
                    pending.key not in self._active
                    and self._queues.get(pending.key)
                ):
                    self._active.add(pending.key)
                    return pending.key
            self._changed.wait()

    def _run_turn(self, key: str, last: PendingRequest) -> None:
        """Execute ``key``'s queue in order until ``last`` is answered."""
        unit: List[PendingRequest] = []
        while True:
            with self._lock:
                if unit:
                    # The last unit may have answered requests of waiting
                    # publishers: let them go back to their sockets.
                    self._changed.notify_all()
                if last.done:
                    return
                unit = self._take_unit_locked(key)
                set_queue_depth(self._depth_locked())
            if not unit:
                return  # stop() emptied the queue and answers it
            self._execute(key, unit)

    def _take_unit_locked(self, key: str) -> List[PendingRequest]:
        """Pop the next dispatch unit: one request, or a coalesced run.

        Called with the lock held by the thread holding ``key``, so no
        other thread takes from this queue; a positive window waits
        (releasing the lock) for stragglers while the batch has room.
        Returns an empty unit when :meth:`stop` has already answered the
        queue.
        """
        queue = self._queues.get(key)
        if not queue:
            return []
        head = queue[0]
        row = head.single_impute_row()
        if row is None:
            queue.popleft()
            return [head]
        limit = self.microbatch_max_rows
        max_rows = getattr(self.server, "max_rows_per_request", None)
        if max_rows is not None:
            # Each member passed admission alone; the merged batch must
            # not trip the per-request row quota it never asked for.
            limit = min(limit, max_rows)
        signature = _missing_signature(row)
        if self.microbatch_window_ms > 0.0:
            deadline = time.monotonic() + self.microbatch_window_ms / 1000.0
            while (
                self._eligible_run_locked(queue, signature, limit) < limit
                and not self._stopping
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    break
                self._work.wait(remaining)
        if not queue:
            return []  # stop() answered the queue during the window
        run = self._eligible_run_locked(queue, signature, limit)
        return [queue.popleft() for _ in range(run)]

    @staticmethod
    def _eligible_run_locked(queue: Deque[PendingRequest],
                             signature: tuple, limit: int) -> int:
        """Length of the coalescible prefix sharing one missing pattern."""
        run = 0
        for pending in queue:
            if run >= limit:
                break
            row = pending.single_impute_row()
            if row is None or _missing_signature(row) != signature:
                break
            run += 1
        return max(run, 1)

    def _execute(self, key: str, unit: List[PendingRequest]) -> None:
        if len(unit) == 1:
            pending = unit[0]
            response = self.server.handle_request(pending.request)
            # Count before answering: a client that snapshots right after
            # its response must already see this dispatch.
            with self._lock:
                self.dispatched += 1
            self._answer(pending, response)
            return
        rows = [pending.single_impute_row() for pending in unit]
        batch_request = {
            "v": PROTOCOL_VERSION,
            "cmd": "impute",
            "session": key,
            "rows": rows,
        }
        waited = time.monotonic() - min(p.enqueued_at for p in unit)
        response = self.server.handle_request(batch_request)
        with self._lock:
            self.dispatched += len(unit)
            self.batches_formed += 1
            self.rows_coalesced += len(unit)
        observe_microbatch(len(unit), waited)
        trace_id = response.get("trace")
        if response.get("ok"):
            result_rows = response["result"]["rows"]
            for pending, row, imputed in zip(unit, result_rows, rows):
                self._answer(pending, {
                    "v": PROTOCOL_VERSION,
                    "id": pending.request.get("id"),
                    "ok": True,
                    "result": {
                        "rows": [row],
                        "imputed_cells": sum(
                            1 for cell in imputed if cell is None
                        ),
                    },
                    "trace": trace_id,
                })
        else:
            # One failure fails every member identically — the batch is a
            # transparent optimisation, so each caller sees the same typed
            # error it would have gotten dispatching alone.
            for pending in unit:
                self._answer(pending, {
                    "v": PROTOCOL_VERSION,
                    "id": pending.request.get("id"),
                    "ok": False,
                    "error": dict(response["error"]),
                    "trace": trace_id,
                })

    @staticmethod
    def _answer(pending: PendingRequest,
                response: Dict[str, object]) -> None:
        # A dead client's respond callback must not take down the combiner
        # (or starve the ordered writer of the slot's sibling responses).
        try:
            pending.respond(response)
        except Exception:  # noqa: BLE001 - reply path is best-effort
            pass
        pending.done = True

    # ------------------------------------------------------------------ #
    # Lifecycle + introspection
    # ------------------------------------------------------------------ #
    def _depth_locked(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every published request has been answered.

        Runs this thread's own publications first — nobody else would.
        Returns ``False`` on timeout.  Used by ``shutdown`` and by
        :meth:`stop`, so pipelined requests are answered before the
        stream closes.
        """
        self.combine()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._queues or self._active:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        return False
                self._changed.wait(remaining)
        return True

    def stop(self, join_timeout: float = 5.0) -> None:
        """Reject new submits, fail queued ones, and wait for the holders.

        Idempotent; queued-but-unexecuted requests are answered with a
        ``protocol`` shutdown error so no reserved response slot leaks.
        Requests already executing get up to ``join_timeout`` seconds to
        finish, so the caller can release their sessions afterwards.
        """
        with self._lock:
            self._stopping = True
            orphans: List[PendingRequest] = []
            for queue in self._queues.values():
                orphans.extend(queue)
                queue.clear()
            self._queues.clear()
            self._work.notify_all()
        exc = ProtocolError("the server is shutting down")
        for pending in orphans:
            self._answer(pending, {
                "v": PROTOCOL_VERSION,
                "id": pending.request.get("id"),
                "ok": False,
                "error": error_payload(exc),
            })
        with self._lock:
            self._changed.notify_all()
        self.drain(join_timeout)
        set_queue_depth(0)

    def snapshot(self) -> Dict[str, object]:
        """The scheduler's health/stats section (queue depths, counters)."""
        with self._lock:
            queued = {
                name: len(queue)
                for name, queue in sorted(self._queues.items())
                if queue
            }
            batches = self.batches_formed
            coalesced = self.rows_coalesced
            return {
                "queued": queued,
                "queue_depth": sum(queued.values()),
                "active_sessions": sorted(self._active),
                "dispatched": self.dispatched,
                "rejected_overloaded": self.rejected_overloaded,
                "microbatch": {
                    "window_ms": self.microbatch_window_ms,
                    "max_rows": self.microbatch_max_rows,
                    "batches": batches,
                    "rows_coalesced": coalesced,
                    "avg_fill": (
                        round(coalesced / batches, 3) if batches else None
                    ),
                },
            }
