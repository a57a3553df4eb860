"""Tracer unit coverage: nesting, sampling, the ring, the JSONL sink."""

import json

import pytest

from repro import config
from repro.exceptions import ConfigurationError
from repro.obs import JsonlTraceSink, Tracer
from repro.obs.tracing import TRACE_SEGMENT_SUFFIX


@pytest.fixture
def tracer():
    return Tracer(sample=1.0)


class TestTraceIds:
    def test_ids_are_unique_and_ordered(self, tracer):
        first, second = tracer.new_trace_id(), tracer.new_trace_id()
        assert first != second
        prefix, counter = first.split("-")
        assert len(prefix) == 8
        assert int(counter, 16) + 1 == int(second.split("-")[1], 16)

    def test_current_trace_id_tracks_the_open_root(self, tracer):
        assert tracer.current_trace_id is None
        with tracer.trace("serve.ping", trace_id="abc-1"):
            assert tracer.current_trace_id == "abc-1"
        assert tracer.current_trace_id is None


class TestNesting:
    def test_parent_child_links_and_offsets(self, tracer):
        with tracer.trace("serve.impute", session="s"):
            with tracer.trace_span("engine.append"):
                pass
            with tracer.trace_span("engine.impute_kernel", rows=3):
                with tracer.trace_span("engine.cost_rebuild"):
                    pass
        (trace,) = tracer.recent()
        assert trace["root"] == "serve.impute"
        spans = {span["name"]: span for span in trace["spans"]}
        root = spans["serve.impute"]
        assert root["parent_id"] is None
        assert root["attrs"] == {"session": "s"}
        assert spans["engine.append"]["parent_id"] == root["span_id"]
        kernel = spans["engine.impute_kernel"]
        assert kernel["parent_id"] == root["span_id"]
        assert kernel["attrs"] == {"rows": 3}
        assert spans["engine.cost_rebuild"]["parent_id"] == kernel["span_id"]
        # Children close before the root, so the root's end bounds every
        # child's offset + duration (offsets are relative to trace start,
        # which slightly precedes the root span's own start).
        root_end = root["start_offset_seconds"] + root["duration_seconds"]
        for span in trace["spans"]:
            assert span["start_offset_seconds"] >= 0.0
            assert (
                span["start_offset_seconds"] + span["duration_seconds"]
                <= root_end + 1e-6
            )

    def test_span_outside_a_trace_is_a_noop(self, tracer):
        with tracer.trace_span("orphan"):
            pass
        assert tracer.recent() == []

    def test_root_inside_a_root_nests(self, tracer):
        with tracer.trace("outer"):
            with tracer.trace("inner"):
                pass
        (trace,) = tracer.recent()
        assert trace["root"] == "outer"
        names = [span["name"] for span in trace["spans"]]
        assert sorted(names) == ["inner", "outer"]

    def test_exception_marks_the_span_and_propagates(self, tracer):
        with pytest.raises(ValueError):
            with tracer.trace("serve.impute"):
                raise ValueError("boom")
        (trace,) = tracer.recent()
        (span,) = trace["spans"]
        assert span["status"] == "error:ValueError"

    def test_non_scalar_attrs_are_dropped_from_the_record(self, tracer):
        with tracer.trace("root", ok="yes", bad=[1, 2], none=None):
            pass
        (trace,) = tracer.recent()
        assert trace["spans"][0]["attrs"] == {"ok": "yes", "none": None}


class TestRing:
    def test_ring_is_bounded_and_keeps_the_newest(self):
        tracer = Tracer(ring_capacity=4, sample=1.0)
        for i in range(10):
            with tracer.trace(f"root-{i}"):
                pass
        roots = [trace["root"] for trace in tracer.recent()]
        assert roots == ["root-6", "root-7", "root-8", "root-9"]

    def test_recent_limit(self, tracer):
        for i in range(5):
            with tracer.trace(f"root-{i}"):
                pass
        assert [t["root"] for t in tracer.recent(2)] == ["root-3", "root-4"]
        assert tracer.recent(0) == []

    def test_reset_drops_the_ring(self, tracer):
        with tracer.trace("root"):
            pass
        tracer.reset()
        assert tracer.recent() == []

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            Tracer(ring_capacity=0)


class TestSampling:
    def test_sample_zero_captures_nothing(self):
        tracer = Tracer(sample=0.0)
        for _ in range(20):
            with tracer.trace("root"):
                pass
        assert tracer.recent() == []

    def test_unpinned_tracer_follows_the_config_knob(self):
        tracer = Tracer()
        config.set("trace_sample", 0.0)
        with tracer.trace("unsampled"):
            pass
        assert tracer.recent() == []
        config.set("trace_sample", 1.0)
        assert tracer.sample == 1.0
        with tracer.trace("sampled"):
            pass
        assert [t["root"] for t in tracer.recent()] == ["sampled"]

    def test_disabled_obs_short_circuits_tracing(self, tracer):
        config.set("obs_enabled", False)
        with tracer.trace("root"):
            pass
        assert tracer.recent() == []

    def test_configure_validates_the_rate(self, tracer):
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            tracer.configure(sample=1.5)


class TestJsonlSink:
    def test_traces_append_one_json_line_each(self, tmp_path, tracer):
        sink = JsonlTraceSink(tmp_path / "traces")
        tracer.configure(sink=sink)
        with tracer.trace("serve.ping", trace_id="t-1"):
            pass
        sink.close()
        (segment,) = sink.segments()
        assert segment.name == "00000001" + TRACE_SEGMENT_SUFFIX
        (line,) = segment.read_text().splitlines()
        record = json.loads(line)
        assert record["trace_id"] == "t-1"
        assert record["root"] == "serve.ping"
        assert record["spans"][0]["status"] == "ok"

    def test_segments_rotate_at_the_record_cap(self, tmp_path, tracer):
        sink = JsonlTraceSink(tmp_path / "traces", max_records_per_segment=3)
        tracer.configure(sink=sink)
        for i in range(7):
            with tracer.trace(f"root-{i}"):
                pass
        sink.close()
        segments = sink.segments()
        assert [s.name for s in segments] == [
            "00000001" + TRACE_SEGMENT_SUFFIX,
            "00000002" + TRACE_SEGMENT_SUFFIX,
            "00000003" + TRACE_SEGMENT_SUFFIX,
        ]
        counts = [len(s.read_text().splitlines()) for s in segments]
        assert counts == [3, 3, 1]

    def test_reopening_continues_the_segment_sequence(self, tmp_path):
        directory = tmp_path / "traces"
        JsonlTraceSink(directory).close()
        sink = JsonlTraceSink(directory)
        sink.close()
        assert sink.segments()[-1].name == "00000002" + TRACE_SEGMENT_SUFFIX

    def test_write_after_close_is_a_noop(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "traces")
        sink.close()
        sink.write({"trace_id": "t"})  # must not raise

    def test_segment_cap_validated(self, tmp_path):
        with pytest.raises(ConfigurationError, match="segment size"):
            JsonlTraceSink(tmp_path / "traces", max_records_per_segment=0)

    def test_context_manager_closes(self, tmp_path):
        with JsonlTraceSink(tmp_path / "traces") as sink:
            pass
        assert sink._handle is None
