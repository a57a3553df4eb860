"""Serve-loop containment tests: quarantine, deadlines, bounds, recovery.

The serve loop must contain every failure to the session (or request) that
caused it: a half-applied mutation quarantines *one* session while the rest
keep serving, a slow request answers a typed ``deadline`` error, an
over-long line answers ``protocol`` without buffering unbounded bytes, a
client vanishing mid-line cannot take the handler down, and a server that
died with a WAL recovers over the wire via ``restore``.
"""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.api import SessionServer, encode_rows, serve_tcp
from repro.api.serve import serve_stdio
from repro.data import load_dataset
from repro.reliability import Fault, FaultPlan

def ask(server, **request):
    request.setdefault("v", 1)
    return server.handle_line(json.dumps(request))


def ok(server, **request):
    response = ask(server, **request)
    assert response["ok"], response
    return response["result"]


def fail(server, **request):
    response = ask(server, **request)
    assert not response["ok"], response
    return response["error"]


IIM_CONFIG = {
    "method": "IIM",
    "mode": "online",
    "params": {"k": 4, "learning": "fixed", "learning_neighbors": 3},
}


def create_online(server, values, name="s", n_rows=60):
    ok(server, cmd="create", session=name, config=IIM_CONFIG)
    ok(server, cmd="append", session=name, rows=encode_rows(values[:n_rows]))


@pytest.fixture(scope="module")
def values():
    return load_dataset("sn", size=120).raw


def _query(values, row=70):
    query = [float(cell) for cell in values[row]]
    query[1] = None
    return query


class TestQuarantine:
    def test_half_applied_mutate_quarantines_only_that_session(
        self, values
    ):
        server = SessionServer()
        create_online(server, values, name="bad")
        create_online(server, values, name="good")

        # Op 1 applies, op 2 is rejected by the engine: the batch is torn.
        error = fail(server, cmd="mutate", session="bad", ops=[
            {"op": "append", "rows": encode_rows(values[60:64])},
            {"op": "delete", "indices": [10_000]},
        ])
        assert error["code"] == "quarantined"
        assert "mid-mutation" in error["message"]

        # Every further command on the torn session answers `quarantined`...
        for request in (
            {"cmd": "impute", "session": "bad", "rows": [_query(values)]},
            {"cmd": "append", "session": "bad", "rows": encode_rows(values[:2])},
            {"cmd": "stats", "session": "bad"},
        ):
            assert fail(server, **request)["code"] == "quarantined"

        # ...while the untouched session keeps serving.
        result = ok(server, cmd="impute", session="good", rows=[_query(values)])
        assert all(cell is not None for cell in result["rows"][0])

        health = ok(server, cmd="health")
        assert health["degraded"] == ["bad"]
        assert health["sessions"]["bad"]["state"] == "degraded"
        assert health["sessions"]["good"]["state"] == "ok"

        # Closing the quarantined session clears the mark for its name.
        ok(server, cmd="close", session="bad")
        assert ok(server, cmd="health")["degraded"] == []
        create_online(server, values, name="bad", n_rows=20)
        ok(server, cmd="impute", session="bad", rows=[_query(values)])

    def test_clean_rejection_before_any_op_does_not_quarantine(self, values):
        server = SessionServer()
        create_online(server, values)
        error = fail(server, cmd="delete", session="s", indices=[10_000])
        assert error["code"] == "configuration"
        assert ok(server, cmd="health")["degraded"] == []
        ok(server, cmd="impute", session="s", rows=[_query(values)])

    @pytest.mark.parametrize("template", [
        '{"cmd": "update", "session": "s", "index": 1, "row": ROW}',
        '{"cmd": "mutate", "session": "s", '
        '"ops": [{"op": "update", "index": 1, "row": ROW}]}',
        '{"cmd": "query", "session": "s", "q": "UPDATE 1 SET A2 = CELL;"}',
    ], ids=["update", "mutate", "query"])
    @pytest.mark.parametrize("cell", ["1e999", "-1e999"], ids=["inf", "-inf"])
    def test_infinite_update_is_a_clean_rejection(
        self, values, tmp_path, template, cell
    ):
        server = SessionServer(wal_root=tmp_path)
        create_online(server, values)
        session = server.sessions["s"]
        store, last_seq = session.engine.store.matrix(), session.wal.last_seq
        cells = [json.dumps(float(v)) for v in values[80]]
        cells[1] = cell
        line = template.replace("ROW", f"[{', '.join(cells)}]")
        line = line.replace("CELL", cell)
        response = server.handle_line('{"v": 1, ' + line[1:])
        assert not response["ok"] and response["error"]["code"] == "data"
        assert "infinite" in response["error"]["message"]
        np.testing.assert_array_equal(session.engine.store.matrix(), store)
        assert session.wal.last_seq == last_seq
        assert ok(server, cmd="health")["degraded"] == []
        result = ok(server, cmd="impute", session="s", rows=[_query(values)])
        assert all(cell is not None for cell in result["rows"][0])
        server.close_sessions()

    def test_wal_write_failure_quarantines_durable_session(
        self, values, tmp_path
    ):
        # The 4th WAL frame dies with an I/O error: the engine applied the
        # op but its durability record did not land, so the in-memory and
        # on-disk views disagree — quarantine.
        plan = FaultPlan([Fault("wal.frame", "io_error", hit=4)])
        server = SessionServer(wal_root=tmp_path, fault_injector=plan)
        create_online(server, values, name="durable")  # frames 1 (fit) ...
        ok(server, cmd="append", session="durable",
           rows=encode_rows(values[60:62]))  # frame 2
        create_online(server, values, name="other")  # frame 3 (its fit)
        error = fail(server, cmd="append", session="durable",
                     rows=encode_rows(values[62:64]))  # frame 4 dies
        assert error["code"] == "quarantined"
        assert "OSError" in error["message"]
        # Containment: the sibling durable session still accepts mutations.
        ok(server, cmd="append", session="other", rows=encode_rows(values[64:66]))
        server.close_sessions()


class TestDeadline:
    def test_slow_request_answers_deadline_error(self):
        plan = FaultPlan([Fault("serve.dispatch", "slow", delay=0.4, hit=1)])
        server = SessionServer(deadline_seconds=0.05, fault_injector=plan)
        error = fail(server, cmd="ping")
        assert error["code"] == "deadline"
        assert "0.05" in error["message"]
        # The overrunning worker finishes in the background holding the
        # lock; once it drains, the loop serves again.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            response = ask(server, cmd="ping")
            if response["ok"]:
                break
            time.sleep(0.05)
        assert response["ok"], response

    def test_fast_requests_unaffected_by_deadline(self, values):
        server = SessionServer(deadline_seconds=5.0)
        create_online(server, values, n_rows=30)
        result = ok(server, cmd="impute", session="s", rows=[_query(values)])
        assert all(cell is not None for cell in result["rows"][0])


class TestRequestBounds:
    def test_oversized_line_answers_protocol_error(self, values):
        server = SessionServer(max_request_bytes=200)
        big = json.dumps({
            "v": 1, "cmd": "append", "session": "s",
            "rows": encode_rows(values[:40]),
        })
        assert len(big.encode()) > 200
        response = server.handle_line(big)
        assert response["error"]["code"] == "protocol"
        assert "max_request_bytes" in response["error"]["message"]
        assert ask(server, cmd="ping")["ok"]

    def test_stdio_drains_oversized_line_and_keeps_serving(self):
        import io

        server = SessionServer(max_request_bytes=64)
        oversized = '{"v": 1, "cmd": "ping", "pad": "' + "x" * 500 + '"}'
        stdin = io.StringIO(oversized + "\n" + '{"v": 1, "cmd": "ping"}\n')
        stdout = io.StringIO()
        serve_stdio(stdin, stdout, server=server)
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert len(responses) == 2
        assert responses[0]["error"]["code"] == "protocol"
        assert responses[1]["result"]["pong"] is True


def _tcp_server(**kwargs):
    server = SessionServer(**kwargs)
    ready = threading.Event()
    thread = threading.Thread(
        target=serve_tcp, args=("127.0.0.1", 0, server, ready), daemon=True
    )
    thread.start()
    assert ready.wait(10)
    return server, thread


def _tcp_ask(port, request):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
        conn.sendall((json.dumps(request) + "\n").encode())
        return json.loads(conn.makefile().readline())


class TestTcpHardening:
    def test_midline_disconnect_leaves_server_serving(self):
        server, thread = _tcp_server()
        try:
            # A client dies mid-line: the torn frame is discarded quietly.
            with socket.create_connection(
                ("127.0.0.1", server.tcp_port), timeout=10
            ) as conn:
                conn.sendall(b'{"v": 1, "cmd": "pi')
            response = _tcp_ask(server.tcp_port, {"v": 1, "cmd": "ping"})
            assert response["result"]["pong"] is True
        finally:
            _tcp_ask(server.tcp_port, {"v": 1, "cmd": "shutdown"})
            thread.join(timeout=10)

    def test_oversized_tcp_line_answers_error_and_connection_survives(self):
        server, thread = _tcp_server(max_request_bytes=64)
        try:
            with socket.create_connection(
                ("127.0.0.1", server.tcp_port), timeout=10
            ) as conn:
                reader = conn.makefile()
                conn.sendall(b'{"v": 1, "pad": "' + b"x" * 400 + b'"}\n')
                response = json.loads(reader.readline())
                assert response["error"]["code"] == "protocol"
                assert "max_request_bytes" in response["error"]["message"]
                conn.sendall(b'{"v": 1, "cmd": "ping"}\n')
                assert json.loads(reader.readline())["result"]["pong"] is True
        finally:
            _tcp_ask(server.tcp_port, {"v": 1, "cmd": "shutdown"})
            thread.join(timeout=10)

    def test_join_timeout_reports_wedged_accept_loop(self, monkeypatch):
        from repro.api import serve as serve_mod

        release = threading.Event()
        original = serve_mod._ThreadingTCPServer.serve_forever

        def wedged(self, poll_interval=0.5):
            original(self, poll_interval)
            release.wait(10)  # pretend the loop cannot exit

        monkeypatch.setattr(serve_mod._ThreadingTCPServer, "serve_forever", wedged)
        server = SessionServer()
        ready = threading.Event()
        outcome = {}

        def run():
            try:
                serve_tcp("127.0.0.1", 0, server, ready, join_timeout=0.1)
            except RuntimeError as exc:
                outcome["error"] = str(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(10)
        try:
            _tcp_ask(server.tcp_port, {"v": 1, "cmd": "shutdown"})
            thread.join(timeout=10)
            assert "still alive" in outcome.get("error", "")
        finally:
            release.set()


class TestHealth:
    def test_health_reports_wal_lag_and_checkpoint_age(self, values, tmp_path):
        server = SessionServer(
            artifact_root=tmp_path / "artifacts", wal_root=tmp_path / "wal"
        )
        result = ok(server, cmd="create", session="s", config=IIM_CONFIG)
        assert result["durable"] is True
        ok(server, cmd="append", session="s", rows=encode_rows(values[:40]))

        entry = ok(server, cmd="health")["sessions"]["s"]
        assert entry["state"] == "ok"
        assert entry["wal"]["sync"] == "batch"
        assert entry["wal"]["lag_records"] == 1  # the fit append
        assert entry["last_checkpoint_age_seconds"] is None

        ok(server, cmd="save", session="s", path="ckpt")
        entry = ok(server, cmd="health")["sessions"]["s"]
        assert entry["wal"]["lag_records"] == 0  # checkpoint truncated it
        assert entry["last_checkpoint_age_seconds"] >= 0.0

        health = ok(server, cmd="health")
        assert health["status"] == "serving"
        assert health["uptime_seconds"] >= 0.0
        ok(server, cmd="shutdown")

    def test_sessions_without_wal_report_no_wal_entry(self, values):
        server = SessionServer()
        create_online(server, values, n_rows=20)
        entry = ok(server, cmd="health")["sessions"]["s"]
        assert "wal" not in entry
        assert ok(server, cmd="sessions")["sessions"][0]["durable"] is False


class TestWireRecovery:
    def test_crashed_server_recovers_over_the_wire(self, values, tmp_path):
        """Kill a durable server mid-stream; a fresh one replays the WAL."""
        wal_root = tmp_path / "wal"
        crashed = SessionServer(
            artifact_root=tmp_path / "artifacts", wal_root=wal_root
        )
        ok(crashed, cmd="create", session="s", config=IIM_CONFIG)
        ok(crashed, cmd="append", session="s", rows=encode_rows(values[:60]))
        ok(crashed, cmd="save", session="s", path="ckpt")
        ok(crashed, cmd="append", session="s", rows=encode_rows(values[60:66]))
        ok(crashed, cmd="update", session="s", index=3,
           row=[float(cell) for cell in values[80]])
        query = _query(values)
        want = ok(crashed, cmd="impute", session="s", rows=[query])["rows"][0]
        # The server "dies" here: no close, no shutdown — the WAL's batch
        # sync already flushed every accepted mutation.

        server = SessionServer(
            artifact_root=tmp_path / "artifacts", wal_root=wal_root
        )
        result = ok(server, cmd="restore", session="s", path="ckpt")
        crashed.close_sessions()  # its handles only had to outlive recovery
        assert result["durable"] is True
        assert result["recovered"]["replayed_ops"] == 2
        assert result["recovered"]["torn_tail"] is None
        got = ok(server, cmd="impute", session="s", rows=[query])["rows"][0]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

        # The recovered session is durable again: mutations keep logging.
        ok(server, cmd="append", session="s", rows=encode_rows(values[66:68]))
        assert ok(server, cmd="health")["sessions"]["s"]["wal"]["lag_records"] > 0
        ok(server, cmd="shutdown")

    def test_create_refuses_to_shadow_an_existing_wal(self, values, tmp_path):
        wal_root = tmp_path / "wal"
        crashed = SessionServer(wal_root=wal_root)
        create_online(crashed, values, n_rows=30)

        server = SessionServer(wal_root=wal_root)
        error = fail(server, cmd="create", session="s", config=IIM_CONFIG)
        assert error["code"] == "protocol"
        assert "restore" in error["message"]
        # `restore` without a checkpoint is impossible here (the WAL holds
        # everything), so wire clients recover via WAL-only restore too:
        # remove the table entry path and go through recover_session.
        from repro.api import recover_session

        recovered, report = recover_session(wal_root / "s", reattach=False)
        assert report["replayed_ops"] == 1
        assert recovered.engine.store_relation().raw.shape[0] == 30
        crashed.close_sessions()
