"""Observability through the serve loop: trace IDs, metrics, spans, faults."""

import json
import re

import pytest

from repro import config, obs
from repro.__main__ import main as repro_main
from repro.api import SessionServer, encode_rows
from repro.data import load_dataset
from repro.obs.tracing import TRACE_SEGMENT_SUFFIX
from repro.reliability import Fault, FaultPlan


@pytest.fixture(scope="module")
def values():
    return load_dataset("sn", size=100).raw


@pytest.fixture(autouse=True)
def clean_observability():
    """Full span capture against a clean slate; knobs restored afterwards."""
    tracer = obs.get_tracer()
    previous_enabled = config.get("obs_enabled")
    previous_sample = config.get("trace_sample")
    previous_pinned = tracer._sample
    previous_sink = tracer.sink
    config.set("obs_enabled", True)
    config.set("trace_sample", 1.0)
    tracer._sample = None  # defer to the knob set above
    obs.reset_observability()
    yield
    tracer._sample = previous_pinned
    tracer.sink = previous_sink
    config.set("obs_enabled", previous_enabled)
    config.set("trace_sample", previous_sample)
    obs.reset_observability()


def ask(server, **request):
    request.setdefault("v", 1)
    return server.handle_line(json.dumps(request))


def ok(server, **request):
    response = ask(server, **request)
    assert response["ok"], response
    return response["result"]


IIM_CONFIG = {
    "method": "IIM",
    "mode": "online",
    "params": {"k": 4, "learning": "fixed", "learning_neighbors": 3},
}


def create_online(server, values, name="s", n_rows=60):
    ok(server, cmd="create", session=name, config=IIM_CONFIG)
    ok(server, cmd="append", session=name, rows=encode_rows(values[:n_rows]))


def impute_one(server, values, name="s", row=70, column=1):
    query = [float(cell) for cell in values[row]]
    query[column] = None
    return ok(server, cmd="impute", session=name, rows=[query])


class TestTraceEcho:
    def test_every_response_carries_a_unique_trace_id(self):
        server = SessionServer()
        first = ask(server, cmd="ping")
        second = ask(server, cmd="ping")
        assert first["trace"] and second["trace"]
        assert first["trace"] != second["trace"]

    def test_error_responses_echo_the_trace_in_the_payload_too(self):
        server = SessionServer()
        response = ask(server, cmd="impute", session="ghost", rows=[[1.0]])
        assert response["ok"] is False
        assert response["trace"] == response["error"]["trace"]

    def test_malformed_lines_still_get_a_trace_id(self):
        server = SessionServer()
        response = server.handle_line("this is not json")
        assert response["error"]["code"] == "protocol"
        assert response["trace"]

    def test_trace_ids_issue_even_when_obs_is_disabled(self):
        config.set("obs_enabled", False)
        server = SessionServer()
        assert ask(server, cmd="ping")["trace"]


class TestRequestMetrics:
    def test_per_command_latency_and_status_counts(self, values):
        server = SessionServer()
        create_online(server, values)
        impute_one(server, values)
        ok(server, cmd="ping")
        ask(server, cmd="impute", session="ghost", rows=[[1.0]])  # error

        assert obs.REQUESTS_TOTAL.value(cmd="ping", status="ok") == 1
        assert obs.REQUESTS_TOTAL.value(cmd="create", status="ok") == 1
        assert obs.REQUESTS_TOTAL.value(cmd="impute", status="ok") == 1
        assert obs.REQUESTS_TOTAL.value(cmd="impute", status="protocol") == 1
        # Latency histograms: one sample per request, errors included.
        assert obs.REQUEST_SECONDS.summary(cmd="impute")["count"] == 2
        assert obs.REQUEST_SECONDS.summary(cmd="ping")["count"] == 1
        assert obs.REQUEST_SECONDS.summary(cmd="ping")["sum"] > 0.0

    def test_unknown_commands_do_not_become_labels(self):
        server = SessionServer()
        ask(server, cmd="frobnicate")
        ask(server, cmd=["not", "hashable"])
        server.handle_line("garbage")
        assert obs.REQUESTS_TOTAL.value(cmd="unknown", status="protocol") == 3
        families = obs.get_registry().snapshot()
        labels = [
            series["labels"]["cmd"]
            for series in families["counters"]["repro_requests_total"]["series"]
        ]
        assert set(labels) == {"unknown"}

    def test_disabled_obs_records_nothing(self):
        config.set("obs_enabled", False)
        server = SessionServer()
        ok(server, cmd="ping")
        assert obs.REQUESTS_TOTAL.value(cmd="ping", status="ok") == 0

    def test_imputed_cells_counted_by_kind(self, values):
        server = SessionServer()
        create_online(server, values)
        impute_one(server, values)
        assert obs.IMPUTED_CELLS_TOTAL.value(kind="online") == 1

    def test_sessions_open_gauge_tracks_the_table(self, values):
        server = SessionServer()
        ok(server, cmd="create", session="a", config={"method": "Mean"})
        ok(server, cmd="create", session="b", config={"method": "Mean"})
        assert obs.SESSIONS_OPEN.value() == 2
        ok(server, cmd="close", session="a")
        assert obs.SESSIONS_OPEN.value() == 1


class TestEngineSpans:
    def test_impute_trace_nests_engine_phases_under_the_request(self, values):
        server = SessionServer()
        create_online(server, values)
        impute_one(server, values)
        traces = {t["root"]: t for t in server.tracer.recent()}

        append_trace = traces["serve.append"]
        names = [s["name"] for s in append_trace["spans"]]
        assert "engine.append" in names

        impute_trace = traces["serve.impute"]
        spans = {s["name"]: s for s in impute_trace["spans"]}
        root = spans["serve.impute"]
        assert root["parent_id"] is None
        assert root["attrs"] == {"session": "s"}
        kernel = spans["engine.impute_kernel"]
        assert kernel["parent_id"] == root["span_id"]
        # Summed child durations cannot exceed the request span they nest in.
        children = [
            s for s in impute_trace["spans"]
            if s["parent_id"] == root["span_id"]
        ]
        assert children
        assert sum(s["duration_seconds"] for s in children) <= (
            root["duration_seconds"] + 1e-6
        )

    def test_engine_phase_histograms_fill(self, values):
        server = SessionServer()
        create_online(server, values)
        impute_one(server, values)
        assert obs.ENGINE_PHASE_SECONDS.summary(phase="append")["count"] >= 1
        assert (
            obs.ENGINE_PHASE_SECONDS.summary(phase="impute_kernel")["count"]
            == 1
        )

    def test_unsampled_requests_still_record_metrics(self, values):
        config.set("trace_sample", 0.0)
        server = SessionServer()
        create_online(server, values)
        impute_one(server, values)
        assert server.tracer.recent() == []
        assert obs.REQUEST_SECONDS.summary(cmd="impute")["count"] == 1
        assert obs.ENGINE_PHASE_SECONDS.summary(phase="impute_kernel")["count"] == 1


class TestReliabilityMetrics:
    def test_wal_sync_and_bytes(self, values, tmp_path):
        server = SessionServer(wal_root=tmp_path, wal_sync="always")
        create_online(server, values)
        assert obs.WAL_BYTES_TOTAL.value() > 0
        assert obs.WAL_SYNC_SECONDS.summary(policy="always")["count"] >= 1
        server.close_sessions()

    def test_artifact_io_durations_and_bytes(self, values, tmp_path):
        server = SessionServer()
        create_online(server, values)
        ok(server, cmd="save", session="s", path=str(tmp_path / "artifact"))
        assert obs.ARTIFACT_IO_SECONDS.summary(op="write")["count"] == 1
        assert obs.ARTIFACT_BYTES_TOTAL.value(op="write") > 0
        ok(server, cmd="close", session="s")
        ok(server, cmd="restore", session="s2",
           path=str(tmp_path / "artifact"))
        assert obs.ARTIFACT_IO_SECONDS.summary(op="read")["count"] >= 1
        assert obs.ARTIFACT_BYTES_TOTAL.value(op="read") > 0

    def test_store_mutations_counted_by_op(self, values):
        server = SessionServer()
        create_online(server, values)
        ok(server, cmd="delete", session="s", indices=[0, 1])
        ok(server, cmd="update", session="s",
           index=0, row=[float(cell) for cell in values[80]])
        assert obs.STORE_ROWS_TOTAL.value(op="append") == 60
        assert obs.STORE_ROWS_TOTAL.value(op="delete") == 2
        assert obs.STORE_ROWS_TOTAL.value(op="update") == 1

    def test_fault_activations_are_typed_counters(self, values):
        plan = FaultPlan([Fault("serve.dispatch", "io_error", hit=2)])
        server = SessionServer(fault_injector=plan)
        ok(server, cmd="ping")
        response = ask(server, cmd="ping")
        assert response["ok"] is False
        assert (
            obs.FAULT_ACTIVATIONS_TOTAL.value(
                site="serve.dispatch", kind="io_error"
            )
            == 1
        )


_PROMETHEUS_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r" -?[0-9.e+-]+(inf)?$"
)


class TestMetricsCommand:
    def test_json_snapshot(self, values):
        server = SessionServer()
        ok(server, cmd="ping")
        result = ok(server, cmd="metrics")
        assert result["format"] == "json"
        counters = result["metrics"]["counters"]
        (series,) = [
            s for s in counters["repro_requests_total"]["series"]
            if s["labels"]["cmd"] == "ping"
        ]
        assert series["value"] == 1.0

    def test_prometheus_text_passes_the_grammar(self, values):
        server = SessionServer()
        create_online(server, values)
        impute_one(server, values)
        result = ok(server, cmd="metrics", format="prometheus")
        assert result["content_type"].startswith("text/plain")
        text = result["text"]
        assert "# TYPE repro_request_seconds histogram" in text
        assert 'repro_request_seconds_bucket{cmd="impute",le="+Inf"} 1' in text
        for line in text.rstrip("\n").split("\n"):
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert _PROMETHEUS_LINE.match(line), line

    def test_unknown_format_rejected(self):
        server = SessionServer()
        response = ask(server, cmd="metrics", format="xml")
        assert response["error"]["code"] == "protocol"


class TestTracesCommand:
    def test_returns_recent_traces_newest_last(self):
        server = SessionServer()
        ok(server, cmd="ping")
        ok(server, cmd="sessions")
        result = ok(server, cmd="traces", limit=2)
        roots = [t["root"] for t in result["traces"]]
        # The `traces` request itself has not finished, so it is absent.
        assert roots == ["serve.ping", "serve.sessions"]

    def test_limit_validated(self):
        server = SessionServer()
        for bad in (-1, True, "many"):
            response = ask(server, cmd="traces", limit=bad)
            assert response["error"]["code"] == "protocol"


class TestServerSelfDescription:
    def test_stats_reports_uptime_and_resolved_config(self, values):
        server = SessionServer()
        create_online(server, values)
        stats = ok(server, cmd="stats", session="s")
        assert stats["server"]["uptime_seconds"] >= 0.0
        server_config = stats["server"]["config"]
        assert server_config["obs_enabled"] is True
        assert server_config["trace_sample"] == 1.0
        assert server_config["wal_sync"] == config.get("wal_sync")
        assert server_config["trace_log"] is None

    def test_health_reports_the_same_config(self):
        server = SessionServer()
        health = ok(server, cmd="health")
        assert health["uptime_seconds"] >= 0.0
        assert health["config"]["obs_enabled"] is True


class TestTraceSink:
    def test_serve_flags_persist_traces_to_rotated_jsonl(self, tmp_path):
        server = SessionServer(
            trace_log=tmp_path / "traces", trace_sample=1.0
        )
        ok(server, cmd="ping")
        ok(server, cmd="ping")
        server.close_sessions()
        (segment,) = sorted(
            (tmp_path / "traces").glob("*" + TRACE_SEGMENT_SUFFIX)
        )
        records = [
            json.loads(line) for line in segment.read_text().splitlines()
        ]
        assert [r["root"] for r in records] == ["serve.ping", "serve.ping"]
        assert all(r["spans"][0]["status"] == "ok" for r in records)


class TestMetricsDumpCli:
    def test_json_dump(self, capsys):
        server = SessionServer()
        ok(server, cmd="ping")
        assert repro_main(["metrics-dump"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert "repro_requests_total" in snapshot["counters"]

    def test_prometheus_dump(self, capsys):
        assert repro_main(["metrics-dump", "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_requests_total counter" in out
