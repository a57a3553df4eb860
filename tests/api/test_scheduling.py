"""Unit tests for the dispatch layer: queues, combining, micro-batches.

These drive :class:`~repro.api.scheduling.RequestScheduler` against a
scripted fake server, so ordering, coalescing and backpressure are tested
in isolation from session semantics (which
``test_serve_concurrency.py``/``test_admission.py`` cover end-to-end).
A request that must queue behind a held session is published from a
thread of its own, as a connection's reader would publish it.
"""

import sys
import threading
import time

import pytest

from repro.api.scheduling import (
    PendingRequest,
    RequestScheduler,
    _missing_signature,
)
from repro.exceptions import ProtocolError, ServerOverloadedError


class FakeServer:
    """Records dispatched requests; can block chosen requests on a gate."""

    def __init__(self, max_rows_per_request=None):
        self.max_rows_per_request = max_rows_per_request
        self.handled = []
        self._lock = threading.Lock()
        #: request id -> Event its handler must wait on before answering.
        self.gates = {}

    def handle_request(self, request):
        gate = self.gates.get(request.get("id"))
        if gate is not None:
            assert gate.wait(timeout=10)
        with self._lock:
            self.handled.append(request)
        return {
            "v": 1,
            "id": request.get("id"),
            "ok": True,
            "result": {
                "rows": [list(row) for row in request.get("rows", [])],
                "echo": request.get("id"),
            },
            "trace": "t-fake",
        }


def impute(session, row, request_id=None):
    return {"v": 1, "id": request_id, "cmd": "impute",
            "session": session, "rows": [row]}


def make_scheduler(server, **overrides):
    knobs = dict(microbatch_window_ms=0.0, microbatch_max_rows=8,
                 max_queued_requests=16)
    knobs.update(overrides)
    return RequestScheduler(server, **knobs)


def publish_and_combine(scheduler, *pairs):
    """Publish each ``(request, respond)`` in turn, then combine."""
    for request, respond in pairs:
        scheduler.submit(request, respond)
    scheduler.combine()


def combiner(scheduler, *pairs):
    """A started thread that publishes ``pairs`` and combines, as a
    connection's reader does with the lines its buffer holds."""
    thread = threading.Thread(
        target=publish_and_combine, args=(scheduler, *pairs), daemon=True
    )
    thread.start()
    return thread


def wait_until(predicate, what, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting: {what}"
        time.sleep(0.005)


def wait_for_holder(scheduler, session):
    wait_until(lambda: session in scheduler.snapshot()["active_sessions"],
               f"a thread to hold {session!r}")


class Collector:
    """Thread-safe respond sink that can be waited on."""

    def __init__(self):
        self.responses = []
        self._lock = threading.Lock()
        self._arrived = threading.Condition(self._lock)

    def __call__(self, response):
        with self._lock:
            self.responses.append(response)
            self._arrived.notify_all()

    def wait_for(self, count, timeout=10.0):
        deadline = time.monotonic() + timeout
        with self._lock:
            while len(self.responses) < count:
                remaining = deadline - time.monotonic()
                assert remaining > 0, (
                    f"timed out with {len(self.responses)}/{count} responses"
                )
                self._arrived.wait(remaining)
            return list(self.responses)


class TestCoalescingEligibility:
    def test_single_flat_row_impute_is_coalescible(self):
        pending = PendingRequest(impute("s", [1.0, None, 2.0]), lambda r: None)
        assert pending.single_impute_row() == [1.0, None, 2.0]

    def test_singleton_nested_row_is_coalescible(self):
        request = {"cmd": "impute", "session": "s", "rows": [[1.0, None]]}
        pending = PendingRequest(request, lambda r: None)
        assert pending.single_impute_row() == [1.0, None]

    def test_multi_row_batches_are_not_coalesced(self):
        request = {"cmd": "impute", "session": "s",
                   "rows": [[1.0, None], [2.0, None]]}
        assert PendingRequest(request, lambda r: None).single_impute_row() is None

    def test_non_impute_commands_are_not_coalesced(self):
        request = {"cmd": "append", "session": "s", "rows": [1.0, 2.0]}
        assert PendingRequest(request, lambda r: None).single_impute_row() is None

    def test_non_numeric_cells_are_not_coalesced(self):
        # Non-finite numbers too: their ``data`` error answers alone.
        for row in ([1.0, "x"], [True, None], [[1.0], None],
                    [float("inf"), None], [None, float("-inf")],
                    [float("nan"), None], [10**400, None]):
            pending = PendingRequest(impute("s", row), lambda r: None)
            assert pending.single_impute_row() is None, row

    def test_signature_is_width_plus_missing_positions(self):
        assert _missing_signature([1.0, None, 2.0]) == (3, 1)
        assert _missing_signature([None, None]) == (2, 0, 1)
        assert _missing_signature([1.0]) == (1,)
        # Same positions, different width: incompatible.
        assert _missing_signature([None, 1.0]) != _missing_signature(
            [None, 1.0, 2.0]
        )


class TestOrderingAndParallelism:
    def test_one_sessions_requests_answer_in_submission_order(self):
        server = FakeServer()
        scheduler = make_scheduler(server, microbatch_max_rows=1,
                                   max_queued_requests=128)
        collector = Collector()
        try:
            for i in range(50):
                # Alternate coalescible and not: ordering must hold anyway.
                if i % 3 == 0:
                    request = {"v": 1, "id": i, "cmd": "stats", "session": "s"}
                else:
                    request = impute("s", [float(i), None], request_id=i)
                scheduler.submit(request, collector)
            scheduler.combine()
            responses = collector.wait_for(50)
            assert [r["id"] for r in responses] == list(range(50))
        finally:
            scheduler.stop()

    def test_sessions_execute_concurrently(self):
        """Session B runs on its caller's thread while session A's handler
        is blocked on another thread."""
        server = FakeServer()
        gate = threading.Event()
        server.gates["a"] = gate
        scheduler = make_scheduler(server)
        slow, fast = Collector(), Collector()
        try:
            holder = combiner(scheduler, ({"v": 1, "id": "a", "cmd": "stats",
                                           "session": "a"}, slow))
            wait_for_holder(scheduler, "a")
            # A's handler stays blocked; B must still be answered.
            publish_and_combine(scheduler, ({"v": 1, "id": "b",
                                             "cmd": "stats",
                                             "session": "b"}, fast))
            assert [r["id"] for r in fast.responses] == ["b"]
            assert not slow.responses
            gate.set()
            slow.wait_for(1, timeout=5.0)
            holder.join(timeout=5.0)
            assert not holder.is_alive()
        finally:
            gate.set()
            scheduler.stop()

    def test_one_worker_per_session_at_a_time(self):
        """Four threads publish to one session and combine at once: no two
        of its handler calls overlap, and each thread's requests answer in
        its publication order."""
        server = FakeServer()
        running, overlaps = [0], []
        handle = server.handle_request

        def exclusive(request):
            with server._lock:
                running[0] += 1
                if running[0] > 1:
                    overlaps.append(request["id"])
            time.sleep(0.0005)
            with server._lock:
                running[0] -= 1
            return handle(request)

        server.handle_request = exclusive
        scheduler = make_scheduler(server, microbatch_max_rows=1,
                                   max_queued_requests=128)
        collectors = [Collector() for _ in range(4)]
        start = threading.Barrier(4)

        def client(index):
            start.wait()
            publish_and_combine(scheduler, *(
                (impute("only", [float(i), None], f"{index}-{i}"),
                 collectors[index])
                for i in range(10)
            ))

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(4)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            scheduler.stop()
        assert overlaps == []
        for index, collector in enumerate(collectors):
            assert [r["id"] for r in collector.responses] == [
                f"{index}-{i}" for i in range(10)
            ]


class TestMicroBatching:
    def _queue_behind_gate(self, scheduler, server, requests):
        """Block a helper thread's head request so ``requests``, published
        meanwhile by this thread, queue up; then combine them."""
        gate = threading.Event()
        server.gates["head"] = gate
        head = Collector()
        holder = combiner(scheduler, ({"v": 1, "id": "head", "cmd": "stats",
                                       "session": "s"}, head))
        # Wait until the helper holds the session (queue drained of head).
        wait_for_holder(scheduler, "s")
        collector = Collector()
        for request in requests:
            scheduler.submit(request, collector)
        gate.set()
        scheduler.combine()
        holder.join(timeout=5.0)
        assert not holder.is_alive()
        return head, collector

    def test_contiguous_same_pattern_imputes_form_one_batch(self):
        server = FakeServer()
        scheduler = make_scheduler(server)
        requests = [impute("s", [float(i), None], i) for i in range(5)]
        try:
            head, collector = self._queue_behind_gate(
                scheduler, server, requests
            )
            head.wait_for(1)
            responses = collector.wait_for(5)
        finally:
            scheduler.stop()
        batches = [r for r in server.handled if r.get("cmd") == "impute"]
        assert len(batches) == 1
        assert batches[0]["rows"] == [[float(i), None] for i in range(5)]
        # Scatter: every member keeps its own id and gets only its row.
        assert [r["id"] for r in responses] == list(range(5))
        for i, response in enumerate(responses):
            assert response["ok"] is True
            assert response["result"]["rows"] == [[float(i), None]]
            assert response["result"]["imputed_cells"] == 1
            assert response["trace"] == "t-fake"
        snapshot = scheduler.snapshot()
        assert snapshot["microbatch"]["batches"] == 1
        assert snapshot["microbatch"]["rows_coalesced"] == 5
        assert snapshot["microbatch"]["avg_fill"] == 5.0

    def test_different_missing_patterns_split_batches(self):
        server = FakeServer()
        scheduler = make_scheduler(server)
        requests = (
            [impute("s", [float(i), None], i) for i in range(3)]
            + [impute("s", [None, float(i)], 10 + i) for i in range(2)]
        )
        try:
            head, collector = self._queue_behind_gate(
                scheduler, server, requests
            )
            collector.wait_for(5)
        finally:
            scheduler.stop()
        batches = [r for r in server.handled if r.get("cmd") == "impute"]
        assert [len(b["rows"]) for b in batches] == [3, 2]

    def test_batch_respects_microbatch_max_rows(self):
        server = FakeServer()
        scheduler = make_scheduler(server, microbatch_max_rows=3)
        requests = [impute("s", [float(i), None], i) for i in range(7)]
        try:
            head, collector = self._queue_behind_gate(
                scheduler, server, requests
            )
            collector.wait_for(7)
        finally:
            scheduler.stop()
        batches = [r for r in server.handled if r.get("cmd") == "impute"]
        assert [len(b["rows"]) for b in batches] == [3, 3, 1]

    def test_batch_respects_server_row_quota(self):
        """A merged batch must not trip the per-request row quota."""
        server = FakeServer(max_rows_per_request=2)
        scheduler = make_scheduler(server, microbatch_max_rows=8)
        requests = [impute("s", [float(i), None], i) for i in range(4)]
        try:
            head, collector = self._queue_behind_gate(
                scheduler, server, requests
            )
            collector.wait_for(4)
        finally:
            scheduler.stop()
        batches = [r for r in server.handled if r.get("cmd") == "impute"]
        assert max(len(b["rows"]) for b in batches) <= 2

    def test_positive_window_waits_for_stragglers(self):
        """The holder of a lone head request waits out the window for a
        straggler that another thread publishes meanwhile."""
        server = FakeServer()
        scheduler = make_scheduler(
            server, microbatch_window_ms=5000.0, microbatch_max_rows=2,
        )
        collector = Collector()
        try:
            holder = combiner(scheduler,
                              (impute("s", [1.0, None], "first"), collector))
            wait_for_holder(scheduler, "s")
            started = time.monotonic()
            publish_and_combine(scheduler,
                                (impute("s", [2.0, None], "second"),
                                 collector))
            # The batch filled, so nobody waited out the whole window.
            assert time.monotonic() - started < 4.0
            collector.wait_for(2)
            holder.join(timeout=5.0)
            assert not holder.is_alive()
        finally:
            scheduler.stop()
        batches = [r for r in server.handled if r.get("cmd") == "impute"]
        assert [len(b["rows"]) for b in batches] == [2]

    def test_batch_error_scatters_to_every_member(self):
        class FailingServer(FakeServer):
            def handle_request(self, request):
                gate = self.gates.get(request.get("id"))
                if gate is not None:
                    assert gate.wait(timeout=10)
                with self._lock:
                    self.handled.append(request)
                return {"v": 1, "id": None, "ok": False,
                        "error": {"code": "internal", "message": "boom"},
                        "trace": "t-err"}

        server = FailingServer()
        scheduler = make_scheduler(server)
        requests = [impute("s", [float(i), None], i) for i in range(3)]
        try:
            head, collector = self._queue_behind_gate(
                scheduler, server, requests
            )
            responses = collector.wait_for(3)
        finally:
            scheduler.stop()
        assert [r["id"] for r in responses] == [0, 1, 2]
        for response in responses:
            assert response["ok"] is False
            assert response["error"]["code"] == "internal"
            assert response["trace"] == "t-err"


class TestBackpressureAndLifecycle:
    def test_full_queue_raises_overloaded_without_enqueueing(self):
        server = FakeServer()
        gate = threading.Event()
        server.gates[0] = gate
        scheduler = make_scheduler(server, max_queued_requests=2)
        collector = Collector()
        threads = []
        try:
            # Request 0 is held (blocked on the gate) by its publisher;
            # 1 and 2 queue behind it, each published by a thread of its
            # own, so the queue length is deterministic.
            threads.append(combiner(scheduler, ({"v": 1, "id": 0,
                                                 "cmd": "stats",
                                                 "session": "s"}, collector)))
            wait_for_holder(scheduler, "s")
            for i in (1, 2):
                threads.append(combiner(
                    scheduler, (impute("s", [float(i), None], i), collector)
                ))
                wait_until(lambda i=i: scheduler.snapshot()["queued"] == {
                    "s": i}, f"request {i} to queue")
            # This thread has nothing queued of its own to run first.
            with pytest.raises(ServerOverloadedError):
                scheduler.submit(impute("s", [3.0, None], 3), collector)
            assert scheduler.snapshot()["rejected_overloaded"] == 1
            gate.set()
            responses = collector.wait_for(3)
            assert [r["id"] for r in responses] == [0, 1, 2]
        finally:
            gate.set()
            for thread in threads:
                thread.join(timeout=5.0)
            scheduler.stop()
        assert not any(thread.is_alive() for thread in threads)

    def test_a_full_queue_of_its_own_publications_is_run_not_refused(self):
        """A reader whose buffer holds more lines than the queue takes runs
        its own publications before it retries a refused publish."""
        server = FakeServer()
        scheduler = make_scheduler(server, max_queued_requests=4,
                                   microbatch_max_rows=1)
        collector = Collector()
        try:
            publish_and_combine(scheduler, *(
                (impute("s", [float(i), None], i), collector)
                for i in range(10)
            ))
        finally:
            scheduler.stop()
        assert [r["id"] for r in collector.responses] == list(range(10))
        assert all(r["ok"] for r in collector.responses)
        assert scheduler.snapshot()["rejected_overloaded"] == 0

    def test_stop_answers_queued_requests_with_shutdown_error(self):
        server = FakeServer()
        gate = threading.Event()
        server.gates["head"] = gate
        scheduler = make_scheduler(server)
        head, queued = Collector(), Collector()
        holder = combiner(scheduler, ({"v": 1, "id": "head", "cmd": "stats",
                                       "session": "s"}, head))
        wait_for_holder(scheduler, "s")
        # Published, not yet combined, as a reader mid-buffer leaves them.
        scheduler.submit(impute("s", [1.0, None], "q1"), queued)
        scheduler.submit(impute("s", [2.0, None], "q2"), queued)
        gate.set()
        scheduler.stop()
        holder.join(timeout=5.0)
        assert not holder.is_alive()
        responses = queued.wait_for(2, timeout=1.0)
        for response in responses:
            # Either answered normally before stop won the race, or failed
            # with the typed shutdown error — never dropped.
            assert response["ok"] or response["error"]["code"] == "protocol"
        with pytest.raises(ProtocolError):
            scheduler.submit(impute("s", [1.0, None]), queued)

    def test_stop_during_a_window_wait_answers_once_and_returns(self):
        """A combiner holding a head request open for stragglers wakes to an
        emptied queue: it must release the session, not crash on it."""
        server = FakeServer()
        scheduler = make_scheduler(server, microbatch_window_ms=2000.0)
        collector = Collector()
        holder = combiner(scheduler,
                          (impute("s", [1.0, None], "head"), collector))
        wait_for_holder(scheduler, "s")
        started = time.monotonic()
        scheduler.stop(join_timeout=5.0)
        assert time.monotonic() - started < 1.0
        holder.join(timeout=1.0)
        assert not holder.is_alive()
        assert [r["error"]["code"] for r in collector.responses] == [
            "protocol"
        ]
        assert scheduler.snapshot()["active_sessions"] == []
        assert server.handled == []

    def test_drain_waits_for_all_queued_work(self):
        """drain() runs the caller's own publications and waits for every
        other thread's, here one held behind a gate."""
        server = FakeServer()
        gate = threading.Event()
        server.gates["other"] = gate
        scheduler = make_scheduler(server)
        collector, other = Collector(), Collector()
        try:
            holder = combiner(scheduler, (impute("s9", [0.0, None], "other"),
                                          other))
            wait_for_holder(scheduler, "s9")
            for i in range(20):
                scheduler.submit(impute(f"s{i % 3}", [float(i), None], i),
                                 collector)
            threading.Timer(0.2, gate.set).start()
            assert scheduler.drain(timeout=10.0) is True
            assert len(collector.responses) == 20
            assert [r["id"] for r in other.responses] == ["other"]
            holder.join(timeout=5.0)
            assert not holder.is_alive()
        finally:
            gate.set()
            scheduler.stop()

    def test_dead_respond_callback_does_not_kill_the_worker(self):
        """A respond callback that raises neither escapes the combiner nor
        stops it from answering the rest."""
        server = FakeServer()
        scheduler = make_scheduler(server, microbatch_max_rows=1)
        collector = Collector()

        def broken(response):
            raise RuntimeError("client went away")

        try:
            publish_and_combine(
                scheduler,
                (impute("s", [1.0, None], "dead"), broken),
                (impute("s", [2.0, None], "alive"), collector),
            )
            responses = collector.wait_for(1)
            assert responses[0]["id"] == "alive"
        finally:
            scheduler.stop()

    def test_concurrent_combiners_never_overlap_on_a_session(self):
        """Stress: 8 request-response threads (more than cores) share two
        sessions with a tiny switch interval; two threads must never
        execute one session at once, every request answers exactly once,
        and some run on the thread that published them."""
        server = FakeServer()
        running, overlaps, ran_on = {}, [], {}
        handle = server.handle_request

        def exclusive(request):
            key = request["session"]
            with server._lock:
                if running.get(key):
                    overlaps.append(request["id"])
                running[key] = True
            ran_on[request["id"]] = threading.current_thread().name
            time.sleep(0)
            with server._lock:
                running[key] = False
            return handle(request)

        server.handle_request = exclusive
        scheduler = make_scheduler(server, microbatch_max_rows=1)
        answered = Collector()
        per_thread = 40

        def client(index):
            for i in range(per_thread):
                publish_and_combine(scheduler, (
                    impute("ab"[(index + i) % 2], [float(i), None],
                           f"{index}-{i}"),
                    answered,
                ))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(i,),
                                        name=f"client-{i}")
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
            scheduler.stop()
        ids = [r["id"] for r in answered.responses]
        assert overlaps == []
        assert sorted(ids) == sorted(
            f"{i}-{j}" for i in range(8) for j in range(per_thread)
        )
        snapshot = scheduler.snapshot()
        assert snapshot["dispatched"] == 8 * per_thread
        own = sum(1 for request_id, thread in ran_on.items()
                  if thread == f"client-{request_id.split('-')[0]}")
        assert 0 < own <= 8 * per_thread

    def test_snapshot_shape(self):
        server = FakeServer()
        scheduler = make_scheduler(server)
        snapshot = scheduler.snapshot()
        # No pool: nothing reports workers or whether one started.
        assert sorted(snapshot) == [
            "active_sessions", "dispatched", "microbatch", "queue_depth",
            "queued", "rejected_overloaded",
        ]
        assert snapshot["queued"] == {}
        assert snapshot["queue_depth"] == 0
        assert snapshot["dispatched"] == 0
        assert snapshot["microbatch"]["batches"] == 0
        assert snapshot["microbatch"]["avg_fill"] is None
        collector = Collector()
        try:
            scheduler.submit(impute("s", [1.0, None], 0), collector)
            snapshot = scheduler.snapshot()
            assert snapshot["queued"] == {"s": 1}
            assert snapshot["dispatched"] == 0
            scheduler.combine()
            snapshot = scheduler.snapshot()
            assert [r["id"] for r in collector.responses] == [0]
            assert snapshot["dispatched"] == 1
            assert snapshot["queued"] == {}
            assert snapshot["active_sessions"] == []
            # No thread of the scheduler's own ever started.
            assert not any(thread.name.startswith("repro-serve-worker")
                           for thread in threading.enumerate())
        finally:
            scheduler.stop()


class TestCombining:
    """Publish, then hold or wait: who executes what."""

    @staticmethod
    def _record_threads(server):
        ran_on = {}
        handle = server.handle_request

        def recorded(request):
            ran_on[request["id"]] = threading.current_thread().name
            return handle(request)

        server.handle_request = recorded
        return ran_on

    @staticmethod
    def _named(name, scheduler, *pairs):
        thread = threading.Thread(target=publish_and_combine, name=name,
                                  args=(scheduler, *pairs), daemon=True)
        thread.start()
        return thread

    def test_a_turn_ends_once_the_holders_own_requests_are_answered(self):
        """A holds the session while B's requests queue; A executes only
        its own, B takes over and executes its two, and C, queued behind
        B's turn, executes its own."""
        server = FakeServer()
        ran_on = self._record_threads(server)
        gate_a, gate_b = threading.Event(), threading.Event()
        server.gates.update({"a1": gate_a, "b1": gate_b})
        scheduler = make_scheduler(server)
        collector = Collector()

        def stats(request_id):
            return {"v": 1, "id": request_id, "cmd": "stats", "session": "s"}

        threads = []
        try:
            threads.append(self._named("A", scheduler, (stats("a1"),
                                                        collector)))
            wait_until(lambda: "a1" in ran_on, "A to hold the session")
            threads.append(self._named("B", scheduler,
                                       (stats("b1"), collector),
                                       (stats("b2"), collector)))
            wait_until(lambda: scheduler.snapshot()["queued"] == {"s": 2},
                       "B's requests to queue")
            gate_a.set()
            wait_until(lambda: "b1" in ran_on, "B to take over")
            threads.append(self._named("C", scheduler, (stats("c1"),
                                                        collector)))
            wait_until(lambda: scheduler.snapshot()["queued"] == {"s": 2},
                       "C's request to queue behind b2")
            gate_b.set()
            for thread in threads:
                thread.join(timeout=5.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            gate_a.set()
            gate_b.set()
            scheduler.stop()
        assert ran_on == {"a1": "A", "b1": "B", "b2": "B", "c1": "C"}
        assert [r["id"] for r in collector.responses] == [
            "a1", "b1", "b2", "c1"
        ]

    def test_the_holder_executes_earlier_publications_of_others(self):
        """A request published but not yet combined (a reader still
        publishing its buffer) is executed, in order, by the next thread to
        hold its session; its publisher's combine then returns at once."""
        server = FakeServer()
        ran_on = self._record_threads(server)
        scheduler = make_scheduler(server, microbatch_max_rows=1)
        collector = Collector()
        try:
            scheduler.submit(impute("s", [1.0, None], "mine"), collector)
            holder = self._named("holder", scheduler,
                                 (impute("s", [2.0, None], "theirs"),
                                  collector))
            holder.join(timeout=5.0)
            assert not holder.is_alive()
            assert [r["id"] for r in collector.responses] == [
                "mine", "theirs"
            ]
            scheduler.combine()
        finally:
            scheduler.stop()
        assert ran_on == {"mine": "holder", "theirs": "holder"}

