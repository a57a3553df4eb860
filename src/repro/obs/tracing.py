"""Request tracing: nested spans, a bounded ring, an optional JSONL sink.

A *trace* is one request's tree of timed spans.  The serve loop opens the
root span (named after the command, carrying the request's trace ID); the
engine opens child spans around its phases via
:func:`repro.obs.engine_phase`.  Nesting is tracked per *thread* — the
serve loop runs each handler body in exactly one thread (the transport
thread, or the deadline worker), so a thread-local span stack gives
correct parent/child links without any cross-thread bookkeeping.

Completed traces are JSON-safe dicts::

    {"trace_id": "4f2a9c1b-00000007", "root": "serve.impute",
     "duration_seconds": 0.0123,
     "spans": [{"span_id": 1, "parent_id": null, "name": "serve.impute",
                "start_offset_seconds": 0.0, "duration_seconds": 0.0123,
                "status": "ok", "attrs": {"session": "s"}}, ...]}

kept in a bounded in-memory ring (:meth:`Tracer.recent`, the ``traces``
serve command) and — when a sink is attached — appended to rotated JSONL
segment files, one trace per line, mirroring the WAL's segment naming so
operators meet one directory layout everywhere.

Sampling: the decision is taken once, when the root opens.  An unsampled
request still gets a trace ID (IDs are cheap and clients rely on the echo)
but no span is assembled for it, so ``--trace-sample 0.01`` keeps the ring
and sink useful under load without taxing every request.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Union

from .. import config
from ..exceptions import ConfigurationError

__all__ = ["Tracer", "Span", "JsonlTraceSink", "TRACE_SEGMENT_SUFFIX"]

#: Suffix of one rotated trace-sink segment (``00000001.trace.jsonl``).
TRACE_SEGMENT_SUFFIX = ".trace.jsonl"

#: Completed traces the in-memory ring retains.
DEFAULT_RING_CAPACITY = 64


class Span:
    """One timed operation inside a trace (mutable while open)."""

    __slots__ = (
        "name", "span_id", "parent_id", "attrs", "start",
    )

    def __init__(self, name: str, span_id: int, parent_id: Optional[int],
                 attrs: Dict[str, object], start: float):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.start = start


class _ActiveTrace:
    __slots__ = ("trace_id", "root_name", "start", "spans", "stack", "next_id")

    def __init__(self, trace_id: str, root_name: str, start: float):
        self.trace_id = trace_id
        self.root_name = root_name
        self.start = start
        # Finished spans as compact tuples; dicts are built lazily at read
        # time (see _span_record) to keep the per-request path allocation
        # light.  Tuple layout:
        #   (span_id, parent_id, name, start_offset, duration, error, attrs)
        self.spans: List[tuple] = []
        self.stack: List[Span] = []
        self.next_id = 1


def _span_record(entry: tuple) -> Dict[str, object]:
    """Materialize one finished-span tuple into its JSON-shaped record."""
    span_id, parent_id, name, offset, duration, error, attrs = entry
    record = {
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "start_offset_seconds": round(offset, 9),
        "duration_seconds": round(duration, 9),
        "status": "ok" if error is None else f"error:{error}",
    }
    if attrs:
        record["attrs"] = {
            key: value for key, value in attrs.items()
            if isinstance(value, (str, int, float, bool)) or value is None
        }
    return record


def _trace_record(raw: Dict[str, object]) -> Dict[str, object]:
    """Materialize one ring entry (compact spans) into the public shape."""
    return {
        "trace_id": raw["trace_id"],
        "root": raw["root"],
        "duration_seconds": round(raw["duration_seconds"], 9),
        "spans": [_span_record(entry) for entry in raw["spans"]],
    }


class _RootSpan:
    """Context manager for one request's root span (returned by ``trace``)."""

    __slots__ = ("_tracer", "_name", "_trace_id", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, trace_id: str,
                 attrs: Dict[str, object]):
        self._tracer = tracer
        self._name = name
        self._trace_id = trace_id
        self._attrs = attrs
        self._span: Optional[Span] = None

    def __enter__(self) -> "_RootSpan":
        local = self._tracer._local
        active = _ActiveTrace(
            self._trace_id, self._name, time.perf_counter()
        )
        local.active = active
        self._span = self._tracer._push(self._name, self._attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        assert self._span is not None
        duration = tracer._pop(self._span, exc_type)
        active = tracer._local.active
        tracer._local.active = None
        tracer._finish({
            "trace_id": active.trace_id,
            "root": active.root_name,
            "duration_seconds": duration,
            "spans": active.spans,
        })
        return False


class _ChildSpan:
    """Context manager for one nested span (returned by ``trace_span``)."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Optional[Span] = None

    def __enter__(self) -> "_ChildSpan":
        self._span = self._tracer._push(self._name, self._attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._span is not None:
            self._tracer._pop(self._span, exc_type)
        return False


class _NullSpan:
    """The no-op span: what you get when tracing is off or unsampled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Per-thread span stacks feeding a bounded ring and an optional sink."""

    def __init__(self, ring_capacity: int = DEFAULT_RING_CAPACITY,
                 sample: Optional[float] = None,
                 sink: Optional["JsonlTraceSink"] = None):
        if ring_capacity < 1:
            raise ConfigurationError(
                f"trace ring capacity must be >= 1, got {ring_capacity}"
            )
        self.ring_capacity = ring_capacity
        self._sample = sample  # None = defer to the config knob
        self.sink = sink
        # deque(maxlen=...) evicts the oldest trace in C on append.
        self._ring: deque = deque(maxlen=ring_capacity)
        self._ring_lock = threading.Lock()
        self._local = threading.local()
        self._rng = random.Random()
        self._id_prefix = os.urandom(4).hex()
        self._id_counter = 0
        self._id_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    @property
    def sample(self) -> float:
        if self._sample is not None:
            return self._sample
        return config.get("trace_sample")

    def configure(self, sample: Optional[float] = None,
                  sink: Optional["JsonlTraceSink"] = None) -> None:
        """Pin the sampling rate and/or attach a sink (serve startup)."""
        if sample is not None:
            self._sample = config.resolve("trace_sample", sample)
        if sink is not None:
            self.sink = sink

    def reset(self) -> None:
        """Drop the ring (tests); open spans on other threads are unaffected."""
        with self._ring_lock:
            self._ring.clear()

    # ------------------------------------------------------------------ #
    # Trace IDs and spans
    # ------------------------------------------------------------------ #
    def new_trace_id(self) -> str:
        """A process-unique request ID (prefix from ``os.urandom`` + counter)."""
        with self._id_lock:
            self._id_counter += 1
            return f"{self._id_prefix}-{self._id_counter:08x}"

    def trace(self, name: str, trace_id: Optional[str] = None, **attrs):
        """Open a root span; decides sampling for the whole trace."""
        if not config.get("obs_enabled"):
            return _NULL_SPAN
        rate = self.sample
        if rate <= 0.0 or (rate < 1.0 and self._rng.random() >= rate):
            return _NULL_SPAN
        if getattr(self._local, "active", None) is not None:
            # A root inside a root (in-process reentrancy): nest instead of
            # clobbering the outer trace.
            return _ChildSpan(self, name, attrs)
        if trace_id is None:
            trace_id = self.new_trace_id()
        return _RootSpan(self, name, trace_id, attrs)

    def trace_span(self, name: str, **attrs):
        """Open a child span under the thread's active trace (no-op without one)."""
        if getattr(self._local, "active", None) is None:
            return _NULL_SPAN
        return _ChildSpan(self, name, attrs)

    @property
    def current_trace_id(self) -> Optional[str]:
        active = getattr(self._local, "active", None)
        return None if active is None else active.trace_id

    def _push(self, name: str, attrs: Dict[str, object]) -> Span:
        active = self._local.active
        parent = active.stack[-1].span_id if active.stack else None
        span = Span(name, active.next_id, parent, attrs, time.perf_counter())
        active.next_id += 1
        active.stack.append(span)
        return span

    def _pop(self, span: Span, exc_type) -> float:
        active = getattr(self._local, "active", None)
        if active is None or not active.stack:
            return 0.0
        duration = time.perf_counter() - span.start
        active.stack.pop()
        active.spans.append((
            span.span_id,
            span.parent_id,
            span.name,
            span.start - active.start,
            duration,
            None if exc_type is None else exc_type.__name__,
            span.attrs,
        ))
        return duration

    def _finish(self, record: Dict[str, object]) -> None:
        with self._ring_lock:
            self._ring.append(record)
        sink = self.sink
        if sink is not None:
            sink.write(_trace_record(record))

    def recent(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """The newest completed traces, newest last."""
        with self._ring_lock:
            traces = list(self._ring)
        if limit is not None and limit >= 0:
            traces = traces[-limit:] if limit else []
        return [_trace_record(raw) for raw in traces]


class JsonlTraceSink:
    """Rotated JSONL segments of completed traces, one trace per line.

    Mirrors the WAL's directory idiom: zero-padded segment names
    (``00000001.trace.jsonl``), a fresh segment every
    ``max_records_per_segment`` traces, append-only text.  Writes are
    flushed per record (traces are per-request, not per-row, so the flush
    is noise) but not fsynced — traces are diagnostics, not durability
    state.
    """

    def __init__(self, directory: Union[str, Path],
                 max_records_per_segment: int = 4096):
        if max_records_per_segment < 1:
            raise ConfigurationError(
                f"trace segment size must be >= 1, got "
                f"{max_records_per_segment}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_records_per_segment = max_records_per_segment
        self._lock = threading.Lock()
        existing = sorted(self.directory.glob("*" + TRACE_SEGMENT_SUFFIX))
        self._segment_index = (
            int(existing[-1].name.split(".")[0]) if existing else 0
        )
        self._records_in_segment = 0
        self._handle = None
        self._open_next_segment()

    def _open_next_segment(self) -> None:
        if self._handle is not None:
            self._handle.close()
        self._segment_index += 1
        path = self.directory / (
            f"{self._segment_index:08d}{TRACE_SEGMENT_SUFFIX}"
        )
        self._handle = open(path, "a", encoding="utf-8")
        self._records_in_segment = 0

    def write(self, record: Dict[str, object]) -> None:
        line = json.dumps(record, separators=(",", ":"))
        with self._lock:
            if self._handle is None:
                return
            if self._records_in_segment >= self.max_records_per_segment:
                self._open_next_segment()
            self._handle.write(line + "\n")
            self._handle.flush()
            self._records_in_segment += 1

    def segments(self) -> List[Path]:
        return sorted(self.directory.glob("*" + TRACE_SEGMENT_SUFFIX))

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
