"""Admission-control tests: quotas, backpressure and token auth.

Every rejection is a *typed* wire error (``quota`` / ``overloaded`` /
``auth``) raised before any session state changes, so a client that trips
a limit can correct itself and resubmit without wondering what happened
server-side.
"""

import json
import threading
import time

import pytest

from repro.api import SessionServer, encode_rows
from repro.data import load_dataset

IIM_CONFIG = {
    "method": "IIM",
    "mode": "online",
    "params": {"k": 4, "learning": "fixed", "learning_neighbors": 3},
}


@pytest.fixture(scope="module")
def values():
    return load_dataset("sn", size=120).raw


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


def query_row(values, index):
    row = [float(cell) for cell in values[index]]
    row[1] = None
    return row


class TestRowQuota:
    def test_oversized_impute_and_mutations_answer_quota(self, values):
        server = SessionServer(max_rows_per_request=4)
        ok(server, cmd="create", session="s", config=IIM_CONFIG)
        ok(server, cmd="append", session="s", rows=encode_rows(values[:4]))

        five = encode_rows(values[10:15])
        for request in (
            dict(cmd="append", session="s", rows=five),
            dict(cmd="fit", session="s", rows=five),
            dict(cmd="impute", session="s",
                 rows=[query_row(values, 20 + i) for i in range(5)]),
            dict(cmd="mutate", session="s",
                 ops=[{"op": "append", "rows": five}]),
        ):
            error = fail(server, **request)
            assert error["code"] == "quota", request["cmd"]
            assert "per-request quota" in error["message"]

        # The rejections changed nothing: the store still has 4 tuples
        # and requests at the quota still succeed.
        assert ok(server, cmd="stats", session="s")["n_tuples"] == 4
        ok(server, cmd="append", session="s", rows=encode_rows(values[4:8]))
        result = ok(server, cmd="impute", session="s",
                    rows=[query_row(values, 20 + i) for i in range(4)])
        assert len(result["rows"]) == 4
        server.close_sessions()

    def test_config_reports_the_quota(self):
        server = SessionServer(max_rows_per_request=4, max_sessions=2)
        config = ok(server, cmd="health")["config"]
        assert config["max_rows_per_request"] == 4
        assert config["max_sessions"] == 2
        assert config["auth"] is False
        server.close_sessions()


class TestSessionQuota:
    def test_max_sessions_bounds_create_and_frees_on_close(self, values):
        server = SessionServer(max_sessions=2)
        ok(server, cmd="create", session="a", config=IIM_CONFIG)
        ok(server, cmd="create", session="b", config=IIM_CONFIG)
        error = fail(server, cmd="create", session="c", config=IIM_CONFIG)
        assert error["code"] == "quota"
        assert "max_sessions" in error["message"]
        # The rejected session never joined the table.
        names = [
            entry["session"]
            for entry in ok(server, cmd="sessions")["sessions"]
        ]
        assert sorted(names) == ["a", "b"]

        ok(server, cmd="close", session="a")
        ok(server, cmd="create", session="c", config=IIM_CONFIG)
        server.close_sessions()

    def test_restore_counts_against_the_quota(self, values, tmp_path):
        server = SessionServer(max_sessions=1)
        ok(server, cmd="create", session="a", config=IIM_CONFIG)
        ok(server, cmd="append", session="a", rows=encode_rows(values[:20]))
        path = str(tmp_path / "artifact")
        ok(server, cmd="save", session="a", path=path)
        error = fail(server, cmd="restore", session="b", path=path)
        assert error["code"] == "quota"
        server.close_sessions()


class TestBackpressure:
    def test_full_queue_answers_overloaded_inline(self, values):
        """The rejection answers on the submitting thread at once; the
        slow request and the one queued behind it, each sent from a thread
        of its own as a connection's reader would, both answer."""
        server = SessionServer(max_queued_requests=1)
        ok(server, cmd="create", session="s", config=IIM_CONFIG)
        ok(server, cmd="append", session="s", rows=encode_rows(values[:30]))

        from repro.reliability import Fault, FaultPlan
        plan = FaultPlan([Fault("serve.dispatch", "slow", delay=0.8, hit=1)])
        server.fault_injector = plan

        line = json.dumps({"v": 1, "cmd": "impute", "session": "s",
                           "rows": [query_row(values, 40)]})
        responses = []

        def reader():
            responses.append(server.handle_line(line))

        first = threading.Thread(target=reader)
        first.start()
        # Wait until the first request holds the session, so the queue
        # length below is deterministic.
        deadline = time.monotonic() + 5.0
        while plan.hits("serve.dispatch") < 1:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        second = threading.Thread(target=reader)  # fills the queue
        second.start()
        while server.scheduler.snapshot()["queue_depth"] < 1:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        rejected = []
        assert server.submit_line(line, rejected.append)
        assert rejected[0]["ok"] is False
        assert rejected[0]["error"]["code"] == "overloaded"
        assert "back off" in rejected[0]["error"]["message"]

        first.join(timeout=10)
        second.join(timeout=10)
        assert not first.is_alive() and not second.is_alive()
        assert len(responses) == 2
        assert all(r["ok"] for r in responses)
        assert server.scheduler.snapshot()["rejected_overloaded"] == 1
        server.close_sessions()


class TestTokenAuth:
    def test_requests_without_the_token_answer_auth(self, values):
        server = SessionServer(auth_token="sesame")
        for request in (
            dict(cmd="ping"),
            dict(cmd="create", session="s", config=IIM_CONFIG),
        ):
            error = fail(server, **request)
            assert error["code"] == "auth", request
            error = fail(server, token="wrong", **request)
            assert error["code"] == "auth", request

        result = ok(server, cmd="ping", token="sesame")
        assert result["pong"] is True
        ok(server, cmd="create", session="s", config=IIM_CONFIG,
           token="sesame")
        # The config block advertises that auth is on — never the secret.
        health = ok(server, cmd="health", token="sesame")
        assert health["config"]["auth"] is True
        assert "sesame" not in json.dumps(health)
        server.close_sessions()

    def test_coalesced_imputes_carry_the_members_token(self, values):
        """Coalesced imputes under auth answer: every member was admitted
        when it was enqueued, so the synthetic micro-batch needs no token."""
        server = SessionServer(auth_token="sesame", microbatch_max_rows=8)
        ok(server, cmd="create", session="s", config=IIM_CONFIG,
           token="sesame")
        ok(server, cmd="append", session="s", rows=encode_rows(values[:30]),
           token="sesame")
        responses = []
        for i in range(6):
            line = json.dumps({"v": 1, "id": i, "cmd": "impute",
                               "session": "s", "token": "sesame",
                               "rows": [query_row(values, 40 + i)]})
            assert server.submit_line(line, responses.append)
        # Published together, then combined: one coalesced batch.
        server.scheduler.combine()
        assert [r["id"] for r in responses] == list(range(6))
        assert all(r["ok"] for r in responses), responses
        assert server.scheduler.snapshot()["microbatch"]["batches"] == 1
        server.close_sessions()

    def test_both_entry_points_authenticate_before_the_version_check(self):
        """A line earns the same answer through handle_line and submit_line:
        the shared envelope checks the token before anything else."""
        server = SessionServer(auth_token="sesame")

        def submitted(line):
            answered = []
            assert server.submit_line(line, answered.append)
            return answered[0]

        for entry in (server.handle_line, submitted):
            error = entry('{"v": 2, "cmd": "ping"}')["error"]
            assert error["code"] == "auth", entry
            error = entry('{"v": 2, "cmd": "ping", "token": "sesame"}')["error"]
            assert error["code"] == "protocol", entry
            assert "version 2" in error["message"], entry
        server.close_sessions()

    def test_submit_line_rejects_before_enqueueing(self):
        server = SessionServer(auth_token="sesame")
        responses = []
        line = json.dumps({"v": 1, "cmd": "stats", "session": "s"})
        assert server.submit_line(line, responses.append)
        assert responses[0]["ok"] is False
        assert responses[0]["error"]["code"] == "auth"
        # Nothing reached the scheduler: the rejection answered inline.
        snapshot = server.scheduler.snapshot()
        assert snapshot["queued"] == {} and snapshot["dispatched"] == 0
        server.close_sessions()


class TestStatsAndHealthSurfaces:
    def test_scheduler_sections_and_microbatch_counters(self, values):
        server = SessionServer(microbatch_max_rows=8)
        ok(server, cmd="create", session="s", config=IIM_CONFIG)
        ok(server, cmd="append", session="s", rows=encode_rows(values[:30]))

        collector = []
        for i in range(6):
            line = json.dumps({"v": 1, "id": i, "cmd": "impute",
                               "session": "s",
                               "rows": [query_row(values, 40 + i)]})
            assert server.submit_line(line, collector.append)
        server.scheduler.combine()
        assert len(collector) == 6
        assert all(r["ok"] for r in collector)

        stats = ok(server, cmd="stats", session="s")
        scheduler = stats["server"]["scheduler"]
        assert not {"workers", "started", "inline"} & set(scheduler)
        assert scheduler["dispatched"] >= 6
        microbatch = scheduler["microbatch"]
        assert microbatch["max_rows"] == 8
        if microbatch["batches"]:
            assert microbatch["rows_coalesced"] >= microbatch["batches"]
            assert microbatch["avg_fill"] >= 1.0

        health = ok(server, cmd="health")
        assert health["scheduler"]["queue_depth"] == 0
        assert health["degraded"] == []
        assert health["abandoned"] == {}
        config = health["config"]
        for knob in ("microbatch_window_ms",
                     "microbatch_max_rows", "max_rows_per_request",
                     "max_sessions", "max_queued_requests", "auth"):
            assert knob in config, knob
        assert "serve_workers" not in config
        server.close_sessions()
