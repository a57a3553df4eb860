"""Unit tests for the dispatch layer: queues, workers, micro-batches.

These drive :class:`~repro.api.scheduling.RequestScheduler` against a
scripted fake server, so ordering, coalescing and backpressure are tested
in isolation from session semantics (which
``test_serve_concurrency.py``/``test_admission.py`` cover end-to-end).
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
    knobs = dict(workers=2, microbatch_window_ms=0.0,
                 microbatch_max_rows=8, max_queued_requests=16)
    knobs.update(overrides)
    return RequestScheduler(server, **knobs)


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
        scheduler = make_scheduler(server, workers=4,
                                   microbatch_max_rows=1,
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
            responses = collector.wait_for(50)
            assert [r["id"] for r in responses] == list(range(50))
        finally:
            scheduler.stop()

    def test_sessions_execute_concurrently(self):
        """A queued session B runs while session A's handler is blocked."""
        server = FakeServer()
        gate = threading.Event()
        server.gates["a"] = gate
        scheduler = make_scheduler(server, workers=2)
        slow, fast = Collector(), Collector()
        try:
            scheduler.submit({"v": 1, "id": "a", "cmd": "stats",
                              "session": "a"}, slow)
            # A's handler stays blocked; B must still be answered.
            scheduler.submit({"v": 1, "id": "b", "cmd": "stats",
                              "session": "b"}, fast)
            fast.wait_for(1, timeout=5.0)
            assert not slow.responses
            gate.set()
            slow.wait_for(1, timeout=5.0)
        finally:
            gate.set()
            scheduler.stop()

    def test_one_worker_per_session_at_a_time(self):
        """Coalescing run state: snapshot never shows a session twice."""
        server = FakeServer()
        scheduler = make_scheduler(server, workers=4, microbatch_max_rows=1,
                                   max_queued_requests=128)
        collector = Collector()
        try:
            for i in range(40):
                scheduler.submit(impute("only", [1.0, None], i), collector)
            collector.wait_for(40)
            assert [r["id"] for r in collector.responses] == list(range(40))
        finally:
            scheduler.stop()


class TestMicroBatching:
    def _queue_behind_gate(self, scheduler, server, requests):
        """Block the worker on a head request so the rest queue up."""
        gate = threading.Event()
        server.gates["head"] = gate
        head = Collector()
        scheduler.submit({"v": 1, "id": "head", "cmd": "stats",
                          "session": "s"}, head)
        # Wait until the worker holds the session (queue drained of head).
        deadline = time.monotonic() + 5.0
        while "s" not in scheduler.snapshot()["active_sessions"]:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        collector = Collector()
        for request in requests:
            scheduler.submit(request, collector)
        gate.set()
        return head, collector

    def test_contiguous_same_pattern_imputes_form_one_batch(self):
        server = FakeServer()
        scheduler = make_scheduler(server, workers=1)
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
        scheduler = make_scheduler(server, workers=1)
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
        scheduler = make_scheduler(server, workers=1, microbatch_max_rows=3)
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
        scheduler = make_scheduler(server, workers=1, microbatch_max_rows=8)
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
        server = FakeServer()
        scheduler = make_scheduler(
            server, workers=1, microbatch_window_ms=500.0,
            microbatch_max_rows=2,
        )
        collector = Collector()
        try:
            scheduler.submit(impute("s", [1.0, None], "first"), collector)
            scheduler.submit(impute("s", [2.0, None], "second"), collector)
            collector.wait_for(2)
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
        scheduler = make_scheduler(server, workers=1)
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
        scheduler = make_scheduler(server, workers=1, max_queued_requests=2)
        collector = Collector()
        try:
            # First submit is taken by the worker (blocked on the gate);
            # wait for it so the queue length is deterministic.
            scheduler.submit({"v": 1, "id": 0, "cmd": "stats",
                              "session": "s"}, collector)
            deadline = time.monotonic() + 5.0
            while "s" not in scheduler.snapshot()["active_sessions"]:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            scheduler.submit(impute("s", [1.0, None], 1), collector)
            scheduler.submit(impute("s", [2.0, None], 2), collector)
            with pytest.raises(ServerOverloadedError):
                scheduler.submit(impute("s", [3.0, None], 3), collector)
            assert scheduler.snapshot()["rejected_overloaded"] == 1
            gate.set()
            responses = collector.wait_for(3)
            assert [r["id"] for r in responses] == [0, 1, 2]
        finally:
            gate.set()
            scheduler.stop()

    def test_stop_answers_queued_requests_with_shutdown_error(self):
        server = FakeServer()
        gate = threading.Event()
        server.gates["head"] = gate
        scheduler = make_scheduler(server, workers=1)
        head, queued = Collector(), Collector()
        scheduler.submit({"v": 1, "id": "head", "cmd": "stats",
                          "session": "s"}, head)
        deadline = time.monotonic() + 5.0
        while "s" not in scheduler.snapshot()["active_sessions"]:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        scheduler.submit(impute("s", [1.0, None], "q1"), queued)
        scheduler.submit(impute("s", [2.0, None], "q2"), queued)
        gate.set()
        scheduler.stop()
        responses = queued.wait_for(2, timeout=1.0)
        for response in responses:
            # Either answered normally before stop won the race, or failed
            # with the typed shutdown error — never dropped.
            assert response["ok"] or response["error"]["code"] == "protocol"
        with pytest.raises(ProtocolError):
            scheduler.submit(impute("s", [1.0, None]), queued)

    def test_stop_during_a_window_wait_answers_once_and_returns(self):
        """A worker holding a head request open for stragglers wakes to an
        emptied queue: it must release the session, not crash on it."""
        server = FakeServer()
        scheduler = make_scheduler(server, workers=1,
                                   microbatch_window_ms=2000.0)
        collector = Collector()
        scheduler.submit(impute("s", [1.0, None], "head"), collector)
        deadline = time.monotonic() + 5.0
        while "s" not in scheduler.snapshot()["active_sessions"]:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        started = time.monotonic()
        scheduler.stop(join_timeout=5.0)
        assert time.monotonic() - started < 1.0
        assert [r["error"]["code"] for r in collector.responses] == [
            "protocol"
        ]
        assert scheduler.snapshot()["active_sessions"] == []
        assert server.handled == []

    def test_drain_waits_for_all_queued_work(self):
        server = FakeServer()
        scheduler = make_scheduler(server, workers=2)
        collector = Collector()
        try:
            for i in range(20):
                scheduler.submit(impute(f"s{i % 3}", [float(i), None], i),
                                 collector)
            assert scheduler.drain(timeout=10.0) is True
            assert len(collector.responses) == 20
        finally:
            scheduler.stop()

    def test_dead_respond_callback_does_not_kill_the_worker(self):
        server = FakeServer()
        scheduler = make_scheduler(server, workers=1)
        collector = Collector()

        def broken(response):
            raise RuntimeError("client went away")

        try:
            scheduler.submit(impute("s", [1.0, None], "dead"), broken)
            scheduler.submit(impute("s", [2.0, None], "alive"), collector)
            responses = collector.wait_for(1)
            assert responses[0]["id"] == "alive"
        finally:
            scheduler.stop()

    def test_inline_and_pooled_runs_never_overlap_on_a_session(self):
        """Stress: 8 request-response threads (more than cores) share two
        sessions with a tiny switch interval; a thread running inline and
        a worker must never execute one session at once, and every request
        answers exactly once."""
        server = FakeServer()
        running, overlaps = {}, []
        handle = server.handle_request

        def exclusive(request):
            key = request["session"]
            with server._lock:
                if running.get(key):
                    overlaps.append(request["id"])
                running[key] = True
            time.sleep(0)
            with server._lock:
                running[key] = False
            return handle(request)

        server.handle_request = exclusive
        scheduler = make_scheduler(server, workers=2)
        answered = Collector()
        per_thread = 40

        def client(index):
            for i in range(per_thread):
                done = threading.Event()

                def respond(response, done=done):
                    answered(response)
                    done.set()

                scheduler.submit(
                    impute("ab"[(index + i) % 2], [float(i), None],
                           f"{index}-{i}"),
                    respond, inline=True,
                )
                assert done.wait(timeout=10)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(i,))
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
        assert 0 < snapshot["inline"] <= 8 * per_thread

    def test_snapshot_shape(self):
        server = FakeServer()
        scheduler = make_scheduler(server, workers=3)
        snapshot = scheduler.snapshot()
        assert snapshot["workers"] == 3
        assert snapshot["started"] is False
        assert snapshot["queued"] == {}
        assert snapshot["queue_depth"] == 0
        assert snapshot["dispatched"] == 0
        assert snapshot["microbatch"]["batches"] == 0
        assert snapshot["microbatch"]["avg_fill"] is None
        collector = Collector()
        try:
            scheduler.submit(impute("s", [1.0, None], 0), collector)
            collector.wait_for(1)
            snapshot = scheduler.snapshot()
            assert snapshot["started"] is True
            assert snapshot["dispatched"] == 1
        finally:
            scheduler.stop()
