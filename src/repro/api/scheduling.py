"""The dispatch layer of the serve loop: queues, workers, micro-batches.

The transports (:func:`~repro.api.serve.serve_stdio`,
:func:`~repro.api.serve.serve_tcp`) read lines on one thread per stream
and hand each parsed session command to :meth:`RequestScheduler.submit`.
A request-response TCP client's command runs right there, on the thread
that read it, whenever nothing else of its session is queued or executing
and no coalescing window is set: a hand-off to a worker would cost a
thread wake-up and buy no parallelism.  Everything else is split from its
reader:

* producers enqueue parsed session commands onto **per-session FIFO
  queues**, bounded at ``max_queued_requests`` — a full queue answers a
  typed ``overloaded`` error instead of buffering without bound;
* a **bounded worker pool** drains the queues concurrently.  At most one
  thread — a worker, or a reader running its own request — executes a
  given session at a time, so requests of one session execute (and
  answer) in submission order, while different sessions proceed in
  parallel — numpy releases the GIL inside the GEMM-heavy kernels, so the
  parallelism is real, not cosmetic;
* a **micro-batcher** coalesces a contiguous run of single-row ``impute``
  requests against the same session and missing-cell pattern into one
  batched kernel call (the batched path sustains ~27x the per-row
  throughput of single-request dispatch), then scatters the per-row
  responses back to the right callers.  ``microbatch_window_ms > 0``
  additionally holds an eligible head request open for stragglers (and
  sends every request through the queues); the default ``0`` coalesces
  only what is already queued, so request-response clients pay no added
  latency.

Every request handed to :meth:`submit` is answered exactly once through
its ``respond`` callback — also on handler failure, worker crash or
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
from ..obs import (
    count_inline_request,
    observe_microbatch,
    set_queue_depth,
    set_serve_workers,
)
from .errors import error_payload
from .messages import PROTOCOL_VERSION

__all__ = ["PendingRequest", "RequestScheduler"]


class PendingRequest:
    """One parsed request waiting on a session queue, plus its reply path."""

    __slots__ = ("request", "respond", "enqueued_at")

    def __init__(self, request: Dict[str, object],
                 respond: Callable[[Dict[str, object]], None]):
        self.request = request
        self.respond = respond
        self.enqueued_at = time.monotonic()

    def single_impute_row(self) -> Optional[List[object]]:
        """The request's one wire row, when it is a coalescible impute.

        Coalescible means: ``cmd == "impute"`` carrying exactly one row —
        either a flat list of cells or a singleton list-of-rows — of finite
        numbers and nulls.  Anything else (batches, malformed rows, an
        infinite cell, an integer beyond float range) returns ``None`` and
        is dispatched unbatched, so validation errors keep their
        per-request envelope.  Never raises: a worker calls it under the
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


class RequestScheduler:
    """Per-session FIFO queues drained by a bounded worker pool.

    ``server`` is the :class:`~repro.api.serve.SessionServer` whose
    :meth:`handle_request` executes each dispatch unit; the scheduler
    owns ordering, parallelism, backpressure and coalescing, the server
    owns semantics (locking, quarantine, deadlines, WAL).  The server's
    line envelope admits (authenticates) every request before it is
    queued, so a coalesced batch carries no credentials of its own.

    Worker threads are daemonic and started lazily on the first queued
    request, so in-process servers that only ever call ``handle_line``
    synchronously — and TCP servers whose clients never pipeline — never
    pay for a pool.
    """

    def __init__(
        self,
        server,
        *,
        workers: int,
        microbatch_window_ms: float,
        microbatch_max_rows: int,
        max_queued_requests: int,
    ):
        self.server = server
        self.workers = int(workers)
        self.microbatch_window_ms = float(microbatch_window_ms)
        self.microbatch_max_rows = int(microbatch_max_rows)
        self.max_queued_requests = int(max_queued_requests)
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._queues: Dict[str, Deque[PendingRequest]] = {}
        #: Sessions with queued work and no worker on them yet, FIFO.
        self._ready: Deque[str] = deque()
        self._ready_set: set = set()
        #: Sessions a thread is currently executing (one thread per
        #: session): a worker draining its queue, or a reader running its
        #: own request inline.
        self._active: set = set()
        self._threads: List[threading.Thread] = []
        self._stopping = False
        # Lifetime counters (read under the lock by snapshot()).
        self.dispatched = 0
        self.inline = 0
        self.batches_formed = 0
        self.rows_coalesced = 0
        self.rejected_overloaded = 0

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #
    def submit(self, request: Dict[str, object],
               respond: Callable[[Dict[str, object]], None],
               inline: bool = False) -> None:
        """Enqueue one parsed session command; ``respond`` answers it later.

        With ``inline`` (the caller reads a connection that has never
        pipelined) the command runs on the calling thread instead, when
        its session has nothing queued or executing and no coalescing
        window is set; ``respond`` has then been called when this returns.
        Otherwise it queues as usual.

        Raises :class:`ServerOverloadedError` when the session's queue is
        full and :class:`ProtocolError` once the scheduler is stopping —
        in both cases nothing was enqueued and the caller still owns the
        response.
        """
        key = self._queue_key(request)
        with self._lock:
            if self._stopping:
                raise ProtocolError("the server is shutting down")
            queue = self._queues.get(key)
            if (
                inline
                and not queue
                and key not in self._active
                and self.microbatch_window_ms == 0.0
            ):
                # Marked active, the session is this thread's alone: no
                # worker starts it, and drain() waits for it.
                self._active.add(key)
                self.inline += 1
            else:
                if queue is None:
                    queue = self._queues[key] = deque()
                if len(queue) >= self.max_queued_requests:
                    self.rejected_overloaded += 1
                    raise ServerOverloadedError(
                        f"session {key!r} already has {len(queue)} queued "
                        f"request(s) (max_queued_requests="
                        f"{self.max_queued_requests}); back off and resubmit"
                    )
                queue.append(PendingRequest(request, respond))
                if key not in self._active and key not in self._ready_set:
                    self._ready.append(key)
                    self._ready_set.add(key)
                self._ensure_workers_locked()
                set_queue_depth(self._depth_locked())
                self._work.notify()
                return
        count_inline_request()
        try:
            self._execute(key, [PendingRequest(request, respond)])
        finally:
            with self._lock:
                self._release_locked(key)

    @staticmethod
    def _queue_key(request: Dict[str, object]) -> str:
        session = request.get("session")
        # Invalid session fields still flow through the scheduler so their
        # typed error answers in order; they all share one catch-all key.
        return session if isinstance(session, str) and session else "\x00"

    def _ensure_workers_locked(self) -> None:
        if self._threads or self._stopping:
            return
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        set_serve_workers(len(self._threads))

    # ------------------------------------------------------------------ #
    # Worker side
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._ready and not self._stopping:
                    self._work.wait()
                if self._stopping and not self._ready:
                    return
                key = self._ready.popleft()
                self._ready_set.discard(key)
                self._active.add(key)
            # Everything after marking the session active sits in this try,
            # so no failure can leave it active and stall drain().
            try:
                with self._lock:
                    unit = self._take_unit_locked(key)
                    set_queue_depth(self._depth_locked())
                if unit:
                    self._execute(key, unit)
            finally:
                with self._lock:
                    self._release_locked(key)

    def _release_locked(self, key: str) -> None:
        """End a thread's turn on ``key``: requests that queued meanwhile
        go to the pool, an emptied queue is dropped, and drain() wakes."""
        self._active.discard(key)
        queue = self._queues.get(key)
        if queue:
            if key not in self._ready_set:
                self._ready.append(key)
                self._ready_set.add(key)
            self._work.notify()
        elif queue is not None:
            del self._queues[key]
        self._idle.notify_all()

    def _take_unit_locked(self, key: str) -> List[PendingRequest]:
        """Pop the next dispatch unit: one request, or a coalesced run.

        Called with the lock held and ``key`` marked active, so no other
        worker can race on this queue; a positive window waits (releasing
        the lock) for stragglers while the batch has room.  Returns an
        empty unit when :meth:`stop` has already answered the queue.
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
        # A dead client's respond callback must not take down the worker
        # (or starve the ordered writer of the slot's sibling responses).
        try:
            pending.respond(response)
        except Exception:  # noqa: BLE001 - reply path is best-effort
            pass

    # ------------------------------------------------------------------ #
    # Lifecycle + introspection
    # ------------------------------------------------------------------ #
    def _depth_locked(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every queued request has been answered.

        Returns ``False`` on timeout.  Used by the transports before
        executing ``shutdown`` and at EOF, so pipelined requests are
        answered before the stream closes.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._queues or self._active:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        return False
                self._idle.wait(remaining)
        return True

    def stop(self, join_timeout: float = 5.0) -> None:
        """Reject new submits, fail queued ones, and join the workers.

        Idempotent; queued-but-undispatched requests are answered with a
        ``protocol`` shutdown error so no reserved response slot leaks.
        Requests already executing — on a worker, or inline on a reader
        thread, which no join covers — get up to ``join_timeout`` seconds
        to finish, so the caller can release their sessions afterwards.
        """
        with self._lock:
            self._stopping = True
            orphans: List[PendingRequest] = []
            for queue in self._queues.values():
                orphans.extend(queue)
                queue.clear()
            self._queues.clear()
            self._ready.clear()
            self._ready_set.clear()
            threads = list(self._threads)
            self._work.notify_all()
            self._idle.notify_all()
        exc = ProtocolError("the server is shutting down")
        for pending in orphans:
            self._answer(pending, {
                "v": PROTOCOL_VERSION,
                "id": pending.request.get("id"),
                "ok": False,
                "error": error_payload(exc),
            })
        current = threading.current_thread()
        if current not in threads:
            self.drain(join_timeout)
        for thread in threads:
            if thread is not current:
                thread.join(timeout=join_timeout)
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
                "workers": self.workers,
                "started": bool(self._threads),
                "queued": queued,
                "queue_depth": sum(queued.values()),
                "active_sessions": sorted(self._active),
                "dispatched": self.dispatched,
                "inline": self.inline,
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
