"""Flat combining over real :func:`serve_tcp` sockets.

Every session command runs on a thread that asked for it: a connection's
reader publishes the lines its buffer holds, then holds their session or
waits while another reader holds it.  The contracts:

* a connection that waits for each reply has every command run on the
  thread that read it, and the answers equal ``handle_line``'s;
* a burst sent in one write coalesces, bit-identically, on its reader;
* a connection that pipelined runs its later requests itself again;
* a held request owns its session: another connection's request to it
  queues, and its own reader executes it once the holder's turn ends;
  other sessions answer meanwhile, and ``shutdown`` drains it;
* four connections pipelining into one session each get their answers in
  order, equal to ``handle_line``'s, while no two handler calls of the
  session overlap and no worker thread exists;
* a 300-line pipeline in one write answers 300 ``ok`` at default knobs;
* a ``shutdown`` written after session commands is answered after them;
* ``handle_line`` takes ``submit_line``'s path, and ``serve_stdio`` runs
  each line on its reader thread: pipelined lines neither overlap nor
  coalesce.
"""

import io
import json
import socket
import threading
import time
from contextlib import contextmanager

import numpy as np
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


def record_threads(server):
    """Which thread read (``submit_line``) and which executed
    (``handle_request``) each request, keyed by request id."""
    read, ran = {}, {}
    submit, handle = server.submit_line, server.handle_request

    def submitted(line, respond):
        read[json.loads(line).get("id")] = threading.current_thread().name
        return submit(line, respond)

    def handled(request):
        ran[request.get("id")] = threading.current_thread().name
        return handle(request)

    server.submit_line = submitted
    server.handle_request = handled
    return read, ran


def numbered(requests, prefix):
    for i, request in enumerate(requests):
        request["id"] = f"{prefix}{i}"
    return requests


def wait_for_hits(plan, session, count=1, timeout=5.0):
    deadline = time.monotonic() + timeout
    while plan.hits("serve.dispatch", session=session) < count:
        assert time.monotonic() < deadline, "the held request never started"
        time.sleep(0.005)


class TestRequestResponseClients:
    def test_every_request_runs_on_the_connection_thread(self, values):
        requests = numbered(
            setup_requests(values, "s") + impute_requests(values, "s", 12),
            "r",
        )
        expected = sequential_answers(values, "s", requests[2:])
        with tcp_server() as server:
            read, ran = record_threads(server)
            client = Client(server.tcp_port)
            answers = [client.call(request) for request in requests]
            snapshot = server.scheduler.snapshot()
            read, ran = dict(read), dict(ran)  # before the closing shutdown
            client.close()
        assert all(answer["ok"] for answer in answers), answers
        assert snapshot["dispatched"] == len(requests)
        # One reader thread read every line and executed every command.
        assert len(set(read.values())) == 1
        assert ran == read
        assert [a["result"] for a in answers[2:]] == [
            e["result"] for e in expected
        ]

    def test_stats_and_health_report_the_dispatch_count(self, values):
        with tcp_server() as server:
            client = Client(server.tcp_port)
            for request in setup_requests(values, "s"):
                assert client.call(request)["ok"]
            health = client.call({"v": 1, "cmd": "health"})["result"]
            stats = client.call({"v": 1, "cmd": "stats", "session": "s"})
            after = client.call({"v": 1, "cmd": "health"})["result"]
            client.close()
        # Control commands answer outside the scheduler; the stats request
        # is counted once it has answered, after its handler read.
        assert health["scheduler"]["dispatched"] == 2
        assert stats["result"]["server"]["scheduler"]["dispatched"] == 2
        assert after["scheduler"]["dispatched"] == 3
        for section in (health["scheduler"],
                        stats["result"]["server"]["scheduler"]):
            assert not {"inline", "workers", "started"} & set(section)
        assert "serve_workers" not in health["config"]


class TestPipeliningClients:
    def test_a_burst_in_one_write_still_coalesces(self, values):
        requests = impute_requests(values, "s", 16)
        expected = sequential_answers(values, "s", requests)
        with tcp_server(microbatch_max_rows=16) as server:
            for request in setup_requests(values, "s"):
                assert server.handle_line(json.dumps(request))["ok"]
            read, ran = record_threads(server)
            client = Client(server.tcp_port)
            client.send(*requests)
            answers = [client.recv() for _ in requests]
            snapshot = server.scheduler.snapshot()
            read, ran = dict(read), dict(ran)
            client.close()
        assert [a["id"] for a in answers] == list(range(len(requests)))
        assert [a["result"]["rows"] for a in answers] == [
            e["result"]["rows"] for e in expected
        ]
        assert snapshot["microbatch"]["batches"] >= 1
        assert snapshot["microbatch"]["rows_coalesced"] > 1
        # Its reader executed the batches itself: nothing was handed off.
        assert len(set(read.values())) == 1
        assert set(ran.values()) == set(read.values())

    def test_a_connection_that_pipelined_runs_its_later_requests_itself(
        self, values,
    ):
        burst = impute_requests(values, "s", 8)
        later = numbered(impute_requests(values, "s", 6, start=90), "later")
        with tcp_server() as server:
            for request in setup_requests(values, "s"):
                assert server.handle_line(json.dumps(request))["ok"]
            client = Client(server.tcp_port)
            client.send(*burst)
            assert all(client.recv()["ok"] for _ in burst)
            before = server.scheduler.snapshot()
            read, ran = record_threads(server)
            answers = [client.call(request) for request in later]
            after = server.scheduler.snapshot()
            read, ran = dict(read), dict(ran)
            client.close()
        assert all(answer["ok"] for answer in answers)
        assert after["dispatched"] == before["dispatched"] + len(later)
        assert len(set(read.values())) == 1
        assert ran == read


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
        with tcp_server() as server:
            for name in ("s", "t"):
                for request in setup_requests(values, name):
                    assert server.handle_line(json.dumps(request))["ok"]
            server.fault_injector = plan
            read, ran = record_threads(server)
            spans = record_handling(server)
            held, queued, other = (Client(server.tcp_port) for _ in range(3))
            held.send(one_impute(values, "s", "held"))
            wait_for_hits(plan, "s")

            queued.send(one_impute(values, "s", "queued", start=71))
            deadline = time.monotonic() + 5.0
            while server.scheduler.snapshot()["queued"].get("s") != 1:
                assert time.monotonic() < deadline, "the request never queued"
                time.sleep(0.005)
            answer = other.call(one_impute(values, "t", "other", start=72))
            assert answer["ok"], answer
            assert "held" not in spans, "lengthen the injected delay"

            assert held.recv()["ok"]
            assert queued.recv()["ok"]
            read, ran = dict(read), dict(ran)
            for client in (held, queued, other):
                client.close()
        # The other session ran while the held request did; the queued one
        # started only once the held one had finished.
        assert spans["other"][1] < spans["held"][1] <= spans["queued"][0]
        # Three readers, each executing its own request: the held one's
        # turn ended with it, and the queued one's reader took over.
        assert len(set(read.values())) == 3
        assert ran == read

    def test_shutdown_drains_an_inline_request(self, values):
        plan = FaultPlan([
            Fault("serve.dispatch", "slow", delay=0.5, hit=1, session="s"),
        ])
        with tcp_server() as server:
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
        """Stopping the scheduler waits for a request executing on its
        reader thread before the sessions it runs in are closed."""
        plan = FaultPlan([
            Fault("serve.dispatch", "slow", delay=0.5, hit=1, session="s"),
        ])
        with tcp_server() as server:
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


def pipeline(values, name, count, blank=1, prefix=""):
    """``count`` single-row imputes cycling through rows 70..159."""
    requests = []
    for i in range(count):
        row = [float(cell) for cell in values[70 + i % 90]]
        row[blank] = None
        requests.append({"v": 1, "id": f"{prefix}{i}", "cmd": "impute",
                         "session": name, "rows": [row]})
    return requests


class TestCombiningContract:
    def test_four_connections_pipelining_into_one_session(self, values):
        width = values.shape[1]
        pipelines = [
            pipeline(values, "shared", 60, blank=k % width, prefix=f"c{k}-")
            for k in range(4)
        ]
        expected = sequential_answers(
            values, "shared", [r for p in pipelines for r in p]
        )
        want = {e["id"]: e["result"]["rows"] for e in expected}
        calls, worker_threads = [], []
        with tcp_server() as server:
            for request in setup_requests(values, "shared"):
                assert server.handle_line(json.dumps(request))["ok"]
            handle = server.handle_request

            def timed(request):
                started = time.monotonic()
                try:
                    return handle(request)
                finally:
                    calls.append((started, time.monotonic()))

            server.handle_request = timed
            clients = [Client(server.tcp_port) for _ in pipelines]
            answers = [None] * len(clients)
            start = threading.Barrier(len(clients))

            def run(index):
                start.wait()
                clients[index].send(*pipelines[index])
                worker_threads.extend(
                    t.name for t in threading.enumerate()
                    if t.name.startswith("repro-serve-worker")
                )
                answers[index] = [clients[index].recv()
                                  for _ in pipelines[index]]

            threads = [threading.Thread(target=run, args=(index,))
                       for index in range(len(clients))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            snapshot = server.scheduler.snapshot()
            calls = list(calls)
            for client in clients:
                client.close()
        assert not any(thread.is_alive() for thread in threads)
        assert worker_threads == []
        for sent, got in zip(pipelines, answers):
            assert [a["id"] for a in got] == [r["id"] for r in sent]
            assert all(a["ok"] for a in got), got
            np.testing.assert_allclose(
                np.asarray([a["result"]["rows"] for a in got], dtype=float),
                np.asarray([want[r["id"]] for r in sent], dtype=float),
                rtol=1e-9, atol=1e-12,
            )
        calls.sort()
        assert all(a[1] <= b[0] for a, b in zip(calls, calls[1:])), (
            "two handler calls of one session overlapped"
        )
        assert snapshot["dispatched"] == 2 + 4 * 60  # with create, append
        assert snapshot["microbatch"]["batches"] >= 1

    def test_a_deep_pipeline_in_one_write_answers_every_request(self, values):
        requests = pipeline(values, "s", 300)
        with tcp_server() as server:
            for request in setup_requests(values, "s"):
                assert server.handle_line(json.dumps(request))["ok"]
            client = Client(server.tcp_port)
            client.send(*requests)
            answers = [client.recv() for _ in requests]
            snapshot = server.scheduler.snapshot()
            client.close()
        assert [a["id"] for a in answers] == [r["id"] for r in requests]
        assert all(a["ok"] for a in answers), [
            a["error"] for a in answers if not a["ok"]
        ][:3]
        assert snapshot["rejected_overloaded"] == 0

    def test_a_shutdown_in_a_burst_is_answered_after_the_burst(self, values):
        requests = pipeline(values, "s", 10)
        shutdown = {"v": 1, "id": "stop", "cmd": "shutdown"}
        with tcp_server(microbatch_max_rows=1) as server:
            for request in setup_requests(values, "s"):
                assert server.handle_line(json.dumps(request))["ok"]
            spans = record_handling(server)
            client = Client(server.tcp_port)
            client.send(*requests, shutdown)
            answers = [client.recv() for _ in range(len(requests) + 1)]
            client.close()
        assert [a["id"] for a in answers] == [
            r["id"] for r in requests
        ] + ["stop"]
        assert all(a["ok"] for a in answers), answers
        assert max(end for _, end in (
            spans[r["id"]] for r in requests
        )) <= spans["stop"][0]


def test_handle_line_takes_the_submit_line_path(values):
    """In-process lines publish on the scheduler and combine, as the
    transports' lines do: one execution path."""
    server = SessionServer()
    published = []
    submit = server.scheduler.submit

    def spy(request, respond):
        published.append(request["cmd"])
        submit(request, respond)

    server.scheduler.submit = spy
    for request in setup_requests(values, "s"):
        assert server.handle_line(json.dumps(request))["ok"]
    assert server.handle_line('{"v": 1, "cmd": "ping"}')["ok"]
    snapshot = server.scheduler.snapshot()
    server.close_sessions()
    assert published == ["create", "append"]
    assert snapshot["dispatched"] == 2


def test_serve_stdio_runs_each_line_on_its_reader_thread(values):
    requests = numbered(
        setup_requests(values, "s") + impute_requests(values, "s", 4), "r"
    )
    stdin = io.StringIO("".join(json.dumps(r) + "\n" for r in requests))
    stdout = io.StringIO()
    server = SessionServer(microbatch_max_rows=16)
    read, ran = record_threads(server)
    spans = record_handling(server)
    assert serve_stdio(stdin, stdout, server) == 0
    answers = [json.loads(line) for line in stdout.getvalue().splitlines()]
    snapshot = server.scheduler.snapshot()
    assert len(answers) == len(requests)
    assert all(answer["ok"] for answer in answers)
    assert snapshot["dispatched"] == len(requests)
    # Pipelined on stdin, yet one line at a time: no batch, no overlap.
    assert snapshot["microbatch"]["batches"] == 0
    assert ran == read == {
        r["id"]: threading.current_thread().name for r in requests
    }
    intervals = [spans[r["id"]] for r in requests]
    assert all(a[1] <= b[0] for a, b in zip(intervals, intervals[1:]))
