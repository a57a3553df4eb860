"""Tests for the JSONL serve loop: envelope, commands, transports."""

import io
import json
import socket
import threading

import numpy as np
import pytest

from repro.api import SessionServer, encode_rows, serve_stdio, serve_tcp
from repro.data import load_dataset


@pytest.fixture(scope="module")
def values():
    return load_dataset("sn", size=100).raw


@pytest.fixture
def server():
    return SessionServer()


def ask(server, **request):
    request.setdefault("v", 1)
    response = server.handle_line(json.dumps(request))
    return response


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


class TestEnvelope:
    def test_malformed_json_answers_protocol_error(self, server):
        response = server.handle_line("this is not json")
        assert response["ok"] is False
        assert response["error"]["code"] == "protocol"

    def test_blank_lines_are_skipped(self, server):
        assert server.handle_line("   \n") is None

    def test_id_is_echoed(self, server):
        response = ask(server, id="client-7", cmd="ping")
        assert response["id"] == "client-7"
        assert response["result"]["pong"] is True

    def test_version_mismatch_rejected(self, server):
        error = fail(server, v=99, cmd="ping")
        assert error["code"] == "protocol"
        assert "version" in error["message"]

    def test_unknown_command_lists_available(self, server):
        error = fail(server, cmd="frobnicate")
        assert error["code"] == "protocol"
        assert "impute" in error["message"]

    def test_non_object_request_rejected(self, server):
        assert server.handle_line("[1, 2, 3]")["error"]["code"] == "protocol"


class TestSessionCommands:
    def test_create_append_impute_stats_save_restore(self, server, values, tmp_path):
        result = ok(server, cmd="create", session="s", config=IIM_CONFIG)
        assert result["kind"] == "online"
        assert result["capabilities"]["supports_mutation"] is True

        ok(server, cmd="append", session="s", rows=encode_rows(values[:60]))
        query = [float(cell) for cell in values[70]]
        query[1] = None
        result = ok(server, cmd="impute", session="s", rows=[query])
        assert result["imputed_cells"] == 1
        imputed = result["rows"][0]
        assert all(cell is not None for cell in imputed)

        stats = ok(server, cmd="stats", session="s")
        assert stats["n_tuples"] == 60
        assert stats["counters"]["impute_batches"] == 1
        assert stats["memory"]["store_bytes"] >= 60 * values.shape[1] * 8

        path = str(tmp_path / "artifact")
        assert ok(server, cmd="save", session="s", path=path)["path"] == path
        ok(server, cmd="close", session="s")
        restored = ok(server, cmd="restore", session="s2", path=path)
        assert restored["kind"] == "online"
        again = ok(server, cmd="impute", session="s2", rows=[query])
        assert again["rows"][0] == imputed

    def test_full_lifecycle_matches_direct_session(self, server, values):
        """The wire path reproduces what in-process sessions compute."""
        from repro.api import ImputeRequest, MutationOp, OnlineSession

        create_online(server, values)
        ok(server, cmd="update", session="s",
           index=3, row=[float(cell) for cell in values[80]])
        ok(server, cmd="delete", session="s", indices=[0, 5])
        ok(server, cmd="mutate", session="s", ops=[
            {"op": "append", "rows": encode_rows(values[60:70])},
        ])
        query = [float(cell) for cell in values[90]]
        query[0] = None
        wire_result = ok(server, cmd="impute", session="s", rows=[query])

        direct = OnlineSession(k=4, learning="fixed", learning_neighbors=3)
        direct.fit(values[:60])
        direct.mutate([
            MutationOp.update(3, values[80]),
            MutationOp.delete([0, 5]),
            MutationOp.append(values[60:70]),
        ])
        query_values = values[90].copy()
        query_values[0] = np.nan
        expected = direct.impute(ImputeRequest(query_values))
        np.testing.assert_allclose(
            np.asarray(wire_result["rows"], dtype=float), expected, rtol=1e-9
        )

    def test_batch_sessions_serve_table2_methods(self, server, values):
        result = ok(server, cmd="create", session="b",
                    config={"method": "Mean"})
        assert result["kind"] == "batch"
        ok(server, cmd="fit", session="b", rows=encode_rows(values[:50]))
        result = ok(server, cmd="impute", session="b",
                    rows=[[None, float(values[0, 1])]])
        assert result["rows"][0][0] == pytest.approx(values[:50, 0].mean())

    def test_methods_command_lists_capabilities(self, server):
        result = ok(server, cmd="methods")
        by_name = {entry["method"]: entry["capabilities"] for entry in result["methods"]}
        assert len(by_name) == 14
        assert by_name["IIM"]["supports_mutation"] is True
        assert by_name["kNN"]["supports_mutation"] is False

    def test_sessions_command(self, server, values):
        assert ok(server, cmd="sessions")["sessions"] == []
        create_online(server, values, name="alpha")
        listed = ok(server, cmd="sessions")["sessions"]
        assert [entry["session"] for entry in listed] == ["alpha"]


class TestServeErrors:
    def test_unknown_session_is_protocol_error(self, server):
        error = fail(server, cmd="impute", session="ghost", rows=[[None, 1.0]])
        assert error["code"] == "protocol"
        assert "ghost" in error["message"]

    def test_duplicate_create_rejected(self, server, values):
        create_online(server, values)
        error = fail(server, cmd="create", session="s", config=IIM_CONFIG)
        assert error["code"] == "protocol"

    def test_mutation_on_batch_session_maps_to_unsupported(self, server, values):
        ok(server, cmd="create", session="b", config={"method": "Mean"})
        error = fail(server, cmd="append", session="b",
                     rows=encode_rows(values[:5]))
        assert error["code"] == "unsupported"

    def test_impute_on_empty_store_maps_to_not_fitted(self, server):
        ok(server, cmd="create", session="s", config=IIM_CONFIG)
        error = fail(server, cmd="impute", session="s", rows=[[None, 1.0]])
        assert error["code"] == "not_fitted"

    def test_bad_config_maps_to_configuration(self, server):
        error = fail(server, cmd="create", session="s",
                     config={"method": "IIM", "params": {"kk": 3}})
        assert error["code"] == "configuration"
        assert "kk" in error["message"]

    def test_error_does_not_kill_the_loop(self, server, values):
        fail(server, cmd="frobnicate")
        create_online(server, values)
        assert server.running

    def test_artifact_paths_confined_to_the_root(self, values, tmp_path):
        from repro.api import SessionServer

        confined = SessionServer(artifact_root=tmp_path)
        create_online(confined, values)
        ok(confined, cmd="save", session="s", path="inside/artifact")
        assert (tmp_path / "inside" / "artifact" / "manifest.json").exists()
        restored = ok(
            confined, cmd="restore", session="s2", path="inside/artifact"
        )
        assert restored["kind"] == "online"

        for escape in ("../outside", "/etc/elsewhere", "a/../../outside"):
            error = fail(confined, cmd="save", session="s", path=escape)
            assert error["code"] == "protocol", escape
            assert "artifact root" in error["message"]
            error = fail(confined, cmd="restore", session="s3", path=escape)
            assert error["code"] == "protocol", escape

    def test_fit_reports_submitted_and_complete_counts(self, server, values):
        ok(server, cmd="create", session="s", config=IIM_CONFIG)
        rows = encode_rows(values[:4])
        rows[1][0] = None  # one incomplete row is dropped by fit
        result = ok(server, cmd="fit", session="s", rows=rows)
        assert result["n_rows"] == 4
        assert result["n_complete"] == 3
        assert ok(server, cmd="stats", session="s")["n_tuples"] == 3


class TestStdioTransport:
    def test_scripted_session(self, values):
        lines = [
            json.dumps({"v": 1, "id": 1, "cmd": "create", "session": "s",
                        "config": IIM_CONFIG}),
            json.dumps({"v": 1, "id": 2, "cmd": "append", "session": "s",
                        "rows": encode_rows(values[:40])}),
            "",  # blank lines are ignored
            json.dumps({"v": 1, "id": 3, "cmd": "stats", "session": "s"}),
            json.dumps({"v": 1, "id": 4, "cmd": "shutdown"}),
            json.dumps({"v": 1, "id": 5, "cmd": "ping"}),  # after shutdown
        ]
        stdout = io.StringIO()
        code = serve_stdio(io.StringIO("\n".join(lines) + "\n"), stdout)
        assert code == 0
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        # The ping after shutdown is never served.
        assert [response["id"] for response in responses] == [1, 2, 3, 4]
        assert all(response["ok"] for response in responses)
        assert responses[2]["result"]["n_tuples"] == 40


class TestTcpTransport:
    def test_round_trip_over_a_socket(self, values):
        server = SessionServer()
        ready = threading.Event()
        thread = threading.Thread(
            target=serve_tcp, args=("127.0.0.1", 0, server, ready), daemon=True
        )
        thread.start()
        assert ready.wait(timeout=10)

        with socket.create_connection(("127.0.0.1", server.tcp_port), timeout=10) as conn:
            stream = conn.makefile("rw", encoding="utf-8")
            def ask_tcp(**request):
                request.setdefault("v", 1)
                stream.write(json.dumps(request) + "\n")
                stream.flush()
                return json.loads(stream.readline())

            response = ask_tcp(cmd="create", session="s", config=IIM_CONFIG)
            assert response["ok"], response
            response = ask_tcp(cmd="append", session="s",
                               rows=encode_rows(values[:30]))
            assert response["ok"], response
            query = [float(cell) for cell in values[40]]
            query[0] = None
            response = ask_tcp(cmd="impute", session="s", rows=[query])
            assert response["ok"], response
            assert response["result"]["rows"][0][0] is not None
            response = ask_tcp(cmd="shutdown")
            assert response["ok"], response
        thread.join(timeout=10)
        assert not thread.is_alive()
