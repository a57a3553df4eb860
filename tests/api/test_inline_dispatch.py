"""Inline dispatch: a request-response TCP client runs on its own thread.

The contracts, over real :func:`serve_tcp` sockets:

* a connection that never pipelines runs each session command on the
  connection thread (the scheduler's ``inline`` count), the worker pool
  never starts, and the answers equal ``handle_line``'s;
* a burst sent in one write still queues and coalesces, bit-identically;
* once a connection pipelines it stays on the queue;
* an inline request holds its session exclusively, as a worker does:
  another connection's request to that session queues behind it, other
  sessions answer meanwhile, and ``shutdown`` drains it;
* ``serve_stdio`` always queues.
"""

import io
import json
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.api import SessionServer, encode_rows, serve_stdio, serve_tcp
from repro.data import load_dataset
from repro.reliability import Fault, FaultPlan

IIM_CONFIG = {
    "method": "IIM",
    "mode": "online",
    "params": {"k": 4, "learning": "fixed", "learning_neighbors": 3},
}


@pytest.fixture(scope="module")
def values():
    return load_dataset("sn", size=160).raw


def setup_requests(values, name, n_rows=60):
    return [
        {"v": 1, "cmd": "create", "session": name, "config": IIM_CONFIG},
        {"v": 1, "cmd": "append", "session": name,
         "rows": encode_rows(values[:n_rows])},
    ]


def impute_requests(values, name, count, start=70, blank=1):
    requests = []
    for i in range(count):
        row = [float(cell) for cell in values[start + i]]
        row[blank] = None
        requests.append({"v": 1, "id": i, "cmd": "impute", "session": name,
                         "rows": [row]})
    return requests


def sequential_answers(values, name, requests):
    """What in-process ``handle_line`` answers to the same requests."""
    server = SessionServer()
    for request in setup_requests(values, name):
        assert server.handle_line(json.dumps(request))["ok"]
    answers = [server.handle_line(json.dumps(r)) for r in requests]
    server.close_sessions()
    return answers


class Client:
    """One blocking JSONL connection."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.reader = self.sock.makefile("rb")

    def send(self, *requests):
        """Write every request in one ``sendall``."""
        self.sock.sendall(
            "".join(json.dumps(r) + "\n" for r in requests).encode()
        )

    def recv(self):
        line = self.reader.readline()
        assert line, "the server closed the connection"
        return json.loads(line)

    def call(self, request):
        self.send(request)
        return self.recv()

    def close(self):
        self.reader.close()
        self.sock.close()


@contextmanager
def tcp_server(**kwargs):
    server = SessionServer(microbatch_window_ms=0, **kwargs)
    ready = threading.Event()
    thread = threading.Thread(
        target=serve_tcp, args=("127.0.0.1", 0, server, ready), daemon=True
    )
    thread.start()
    assert ready.wait(timeout=10)
    try:
        yield server
    finally:
        if server.running:
            client = Client(server.tcp_port)
            assert client.call({"v": 1, "cmd": "shutdown"})["ok"]
            client.close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def wait_for_hits(plan, session, count=1, timeout=5.0):
    deadline = time.monotonic() + timeout
    while plan.hits("serve.dispatch", session=session) < count:
        assert time.monotonic() < deadline, "the held request never started"
        time.sleep(0.005)


class TestRequestResponseClients:
    def test_every_request_runs_on_the_connection_thread(self, values):
        requests = setup_requests(values, "s") + impute_requests(
            values, "s", 12
        )
        expected = sequential_answers(values, "s", requests[2:])
        with tcp_server(workers=2) as server:
            client = Client(server.tcp_port)
            answers = [client.call(request) for request in requests]
            snapshot = server.scheduler.snapshot()
            client.close()
        assert all(answer["ok"] for answer in answers), answers
        assert snapshot["inline"] == len(requests)
        assert snapshot["dispatched"] == len(requests)
        assert snapshot["started"] is False
        assert [a["result"] for a in answers[2:]] == [
            e["result"] for e in expected
        ]

    def test_stats_and_health_report_the_inline_count(self, values):
        with tcp_server(workers=2) as server:
            client = Client(server.tcp_port)
            for request in setup_requests(values, "s"):
                assert client.call(request)["ok"]
            health = client.call({"v": 1, "cmd": "health"})["result"]
            stats = client.call({"v": 1, "cmd": "stats", "session": "s"})
            client.close()
        # Control commands answer outside the scheduler; the stats request
        # is counted when it is dispatched, before its handler reads.
        assert health["scheduler"]["inline"] == 2
        assert stats["result"]["server"]["scheduler"]["inline"] == 3


class TestPipeliningClients:
    def test_a_burst_in_one_write_still_coalesces(self, values):
        requests = impute_requests(values, "s", 16)
        expected = sequential_answers(values, "s", requests)
        with tcp_server(workers=2, microbatch_max_rows=16) as server:
            for request in setup_requests(values, "s"):
                assert server.handle_line(json.dumps(request))["ok"]
            client = Client(server.tcp_port)
            client.send(*requests)
            answers = [client.recv() for _ in requests]
            snapshot = server.scheduler.snapshot()
            client.close()
        assert [a["id"] for a in answers] == list(range(len(requests)))
        assert [a["result"]["rows"] for a in answers] == [
            e["result"]["rows"] for e in expected
        ]
        assert snapshot["started"] is True
        assert snapshot["microbatch"]["batches"] >= 1
        assert snapshot["microbatch"]["rows_coalesced"] > 1

    def test_a_connection_that_pipelined_stays_on_the_queue(self, values):
        burst = impute_requests(values, "s", 8)
        later = impute_requests(values, "s", 6, start=90)
        with tcp_server(workers=2) as server:
            for request in setup_requests(values, "s"):
                assert server.handle_line(json.dumps(request))["ok"]
            client = Client(server.tcp_port)
            client.send(*burst)
            assert all(client.recv()["ok"] for _ in burst)
            before = server.scheduler.snapshot()
            answers = [client.call(request) for request in later]
            after = server.scheduler.snapshot()
            client.close()
        assert all(answer["ok"] for answer in answers)
        assert after["inline"] == before["inline"]
        assert after["dispatched"] == before["dispatched"] + len(later)


def record_handling(server):
    """Time every ``handle_request`` call, keyed by request id."""
    spans = {}
    handle = server.handle_request

    def recorded(request):
        started = time.monotonic()
        try:
            return handle(request)
        finally:
            spans[request.get("id")] = (started, time.monotonic())

    server.handle_request = recorded
    return spans


def one_impute(values, name, request_id, start=70):
    request = impute_requests(values, name, 1, start=start)[0]
    request["id"] = request_id
    return request


class TestSessionExclusivity:
    def test_a_held_inline_request_owns_its_session(self, values):
        plan = FaultPlan([
            Fault("serve.dispatch", "slow", delay=2.0, hit=1, session="s"),
        ])
        with tcp_server(workers=2) as server:
            for name in ("s", "t"):
                for request in setup_requests(values, name):
                    assert server.handle_line(json.dumps(request))["ok"]
            server.fault_injector = plan
            spans = record_handling(server)
            held, queued, other = (Client(server.tcp_port) for _ in range(3))
            held.send(one_impute(values, "s", "held"))
            wait_for_hits(plan, "s")
            inline_before = server.scheduler.snapshot()["inline"]

            queued.send(one_impute(values, "s", "queued", start=71))
            deadline = time.monotonic() + 5.0
            while server.scheduler.snapshot()["queued"].get("s") != 1:
                assert time.monotonic() < deadline, "the request never queued"
                time.sleep(0.005)
            answer = other.call(one_impute(values, "t", "other", start=72))
            assert answer["ok"], answer
            assert "held" not in spans, "lengthen the injected delay"
            assert server.scheduler.snapshot()["inline"] == inline_before + 1

            assert held.recv()["ok"]
            assert queued.recv()["ok"]
            snapshot = server.scheduler.snapshot()
            for client in (held, queued, other):
                client.close()
        # The other session ran while the held request did; the queued one
        # started only once the held one had finished.
        assert spans["other"][1] < spans["held"][1] <= spans["queued"][0]
        assert snapshot["inline"] == inline_before + 1
        assert snapshot["started"] is True  # the queued request's worker

    def test_shutdown_drains_an_inline_request(self, values):
        plan = FaultPlan([
            Fault("serve.dispatch", "slow", delay=0.5, hit=1, session="s"),
        ])
        with tcp_server(workers=2) as server:
            for request in setup_requests(values, "s"):
                assert server.handle_line(json.dumps(request))["ok"]
            server.fault_injector = plan
            spans = record_handling(server)
            held, control = Client(server.tcp_port), Client(server.tcp_port)
            held.send(one_impute(values, "s", "held"))
            wait_for_hits(plan, "s")
            stopped = control.call({"v": 1, "id": "stop", "cmd": "shutdown"})
            held_response = held.recv()
            held.close()
            control.close()
        assert stopped["ok"], stopped
        assert held_response["ok"], held_response
        assert spans["held"][1] <= spans["stop"][0]


    def test_close_sessions_waits_for_an_inline_request(self, values):
        """Stopping the scheduler waits for an inline request, as it joins
        a worker, before the sessions it runs in are closed."""
        plan = FaultPlan([
            Fault("serve.dispatch", "slow", delay=0.5, hit=1, session="s"),
        ])
        with tcp_server(workers=2) as server:
            for request in setup_requests(values, "s"):
                assert server.handle_line(json.dumps(request))["ok"]
            server.fault_injector = plan
            spans = record_handling(server)
            held = Client(server.tcp_port)
            held.send(one_impute(values, "s", "held"))
            wait_for_hits(plan, "s")
            server.close_sessions()
            closed_at = time.monotonic()
            held_response = held.recv()
            held.close()
        assert held_response["ok"], held_response
        assert spans["held"][1] <= closed_at


def test_serve_stdio_still_queues(values):
    requests = setup_requests(values, "s") + impute_requests(values, "s", 4)
    stdin = io.StringIO("".join(json.dumps(r) + "\n" for r in requests))
    stdout = io.StringIO()
    server = SessionServer(workers=2)
    assert serve_stdio(stdin, stdout, server) == 0
    answers = [json.loads(line) for line in stdout.getvalue().splitlines()]
    snapshot = server.scheduler.snapshot()
    assert len(answers) == len(requests)
    assert all(answer["ok"] for answer in answers)
    assert snapshot["inline"] == 0
    assert snapshot["dispatched"] == len(requests)
    assert snapshot["started"] is True
