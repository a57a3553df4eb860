"""repro.obs — the observability layer: metrics, tracing, instrumentation.

Stdlib-only and dependency-free, this package gives the rest of the
library one process-wide :class:`MetricsRegistry` (:func:`get_registry`)
and one :class:`Tracer` (:func:`get_tracer`), plus tiny helper functions
(:func:`engine_phase`, :func:`observe_request`, ...) that the serve loop,
the online engine, the WAL, the artifact store and the fault injector call
at their interesting moments.  Every helper checks the ``obs_enabled``
config knob first and returns immediately when observability is off, so
the disabled cost at a call site is one function call and one boolean.

The standard metric families are registered eagerly at import so that
``python -m repro metrics-dump`` and a Prometheus scrape of a fresh server
expose the full catalogue (with ``# HELP`` text) even before traffic:

===============================  =========  ===========================
metric                           kind       labels
===============================  =========  ===========================
``repro_requests_total``         counter    ``cmd``, ``status``
``repro_request_seconds``        histogram  ``cmd``
``repro_engine_phase_seconds``   histogram  ``phase``
``repro_imputed_cells_total``    counter    ``kind`` (batch/online)
``repro_wal_sync_seconds``       histogram  ``policy``
``repro_wal_bytes_total``        counter    —
``repro_wal_rotations_total``    counter    —
``repro_artifact_io_seconds``    histogram  ``op`` (write/read)
``repro_artifact_bytes_total``   counter    ``op``
``repro_fault_activations_total``  counter  ``site``, ``kind``
``repro_store_rows_total``       counter    ``op`` (append/delete/update)
``repro_sessions_open``          gauge      —
``repro_queue_depth``            gauge      —
``repro_microbatches_total``     counter    —
``repro_microbatch_rows_total``  counter    —
``repro_microbatch_fill``        histogram  —
``repro_microbatch_wait_seconds``  histogram  —
``repro_admission_rejections_total``  counter  ``reason``
``repro_query_seconds``          histogram  ``phase``
``repro_query_rows_total``       counter    ``kind`` (scanned/imputed)
===============================  =========  ===========================
"""

from __future__ import annotations

import time
from typing import Dict, Optional

# Bound once at import (repro.config imports nothing from this package, so
# there is no cycle); the knob is re-read on every call, so
# config.set("obs_enabled", ...) takes effect at once while the disabled
# path stays one call and one dict lookup.
from ..config import get as _knob

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    _HistogramSeries,
    bisect_left,
)
from .tracing import (
    TRACE_SEGMENT_SUFFIX,
    JsonlTraceSink,
    Span,
    Tracer,
)

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "Tracer",
    "Span",
    "JsonlTraceSink",
    "TRACE_SEGMENT_SUFFIX",
    "get_registry",
    "get_tracer",
    "reset_observability",
    "trace_span",
    "engine_phase",
    "observe_request",
    "observe_imputed_cells",
    "observe_wal_sync",
    "count_wal_bytes",
    "count_wal_rotation",
    "observe_artifact_io",
    "count_fault_activation",
    "count_store_rows",
    "set_sessions_open",
    "set_queue_depth",
    "observe_microbatch",
    "count_admission_rejection",
    "query_phase",
    "count_query_rows",
    "install_trace_sink",
]

_registry = MetricsRegistry()
_tracer = Tracer()


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry every instrumented module feeds."""
    return _registry


def get_tracer() -> Tracer:
    """The process-wide tracer behind the serve loop's request spans."""
    return _tracer


def reset_observability() -> None:
    """Zero every metric series and drop the trace ring (test isolation)."""
    _registry.reset()
    _tracer.reset()


# --------------------------------------------------------------------------- #
# The standard instrument catalogue
# --------------------------------------------------------------------------- #
REQUESTS_TOTAL = _registry.counter(
    "repro_requests_total",
    "Serve-loop requests answered, by command and response status.",
    ("cmd", "status"),
)
REQUEST_SECONDS = _registry.histogram(
    "repro_request_seconds",
    "Serve-loop request latency, by command.",
    ("cmd",),
)
ENGINE_PHASE_SECONDS = _registry.histogram(
    "repro_engine_phase_seconds",
    "Online-engine phase latency (append, order maintenance, subset "
    "relearn, cost rebuild, full rebuild, impute kernel).",
    ("phase",),
)
IMPUTED_CELLS_TOTAL = _registry.counter(
    "repro_imputed_cells_total",
    "Cells imputed, by session kind (batch or online).",
    ("kind",),
)
WAL_SYNC_SECONDS = _registry.histogram(
    "repro_wal_sync_seconds",
    "WAL flush/fsync latency, by sync policy.",
    ("policy",),
)
WAL_BYTES_TOTAL = _registry.counter(
    "repro_wal_bytes_total",
    "Bytes framed into the write-ahead log.",
)
WAL_ROTATIONS_TOTAL = _registry.counter(
    "repro_wal_rotations_total",
    "WAL segment rotations.",
)
ARTIFACT_IO_SECONDS = _registry.histogram(
    "repro_artifact_io_seconds",
    "Artifact save/restore latency, by operation.",
    ("op",),
)
ARTIFACT_BYTES_TOTAL = _registry.counter(
    "repro_artifact_bytes_total",
    "Artifact bytes written or read, by operation.",
    ("op",),
)
FAULT_ACTIVATIONS_TOTAL = _registry.counter(
    "repro_fault_activations_total",
    "Injected-fault activations, by site and fault kind.",
    ("site", "kind"),
)
STORE_ROWS_TOTAL = _registry.counter(
    "repro_store_rows_total",
    "Tuple-store row mutations, by operation.",
    ("op",),
)
SESSIONS_OPEN = _registry.gauge(
    "repro_sessions_open",
    "Sessions currently open on the serve loop.",
)
QUEUE_DEPTH = _registry.gauge(
    "repro_queue_depth",
    "Requests queued across every session FIFO queue of the serve scheduler.",
)
MICROBATCHES_TOTAL = _registry.counter(
    "repro_microbatches_total",
    "Coalesced impute batches formed by the serve micro-batcher.",
)
MICROBATCH_ROWS_TOTAL = _registry.counter(
    "repro_microbatch_rows_total",
    "Single-row impute requests coalesced into micro-batches.",
)
MICROBATCH_FILL = _registry.histogram(
    "repro_microbatch_fill",
    "Rows per coalesced impute batch.",
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
)
MICROBATCH_WAIT_SECONDS = _registry.histogram(
    "repro_microbatch_wait_seconds",
    "Queue-to-execution latency of requests coalesced into a micro-batch.",
)
ADMISSION_REJECTIONS_TOTAL = _registry.counter(
    "repro_admission_rejections_total",
    "Requests rejected at admission, by reason (quota, overloaded, auth).",
    ("reason",),
)
QUERY_SECONDS = _registry.histogram(
    "repro_query_seconds",
    "Query-layer phase latency (parse, plan, impute, evaluate).",
    ("phase",),
)
QUERY_ROWS_TOTAL = _registry.counter(
    "repro_query_rows_total",
    "Rows processed by the query layer, by kind (scanned or imputed "
    "on demand).",
    ("kind",),
)


# --------------------------------------------------------------------------- #
# Call-site helpers (each one no-ops when obs_enabled is off)
# --------------------------------------------------------------------------- #
class _NullContext:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


def trace_span(name: str, **attrs):
    """Open a child span under the current request's trace.

    The package-level spelling of :meth:`Tracer.trace_span` on the
    process-wide tracer: a context manager that is a no-op when no trace
    is active on this thread (e.g. engine used directly, not via serve).
    """
    if not _knob("obs_enabled"):
        return _NULL_CONTEXT
    return _tracer.trace_span(name, **attrs)


class _PhaseTimer:
    """Times one named phase into a histogram and (if traced) a span.

    Engine phases sit inside the imputation hot loop, so the timer talks to
    the tracer's span stack directly instead of going through another
    context manager: one timestamp pair serves both the histogram sample
    and the span duration.  Subclasses pick the histogram and the span-name
    prefix (``engine.`` / ``query.``); each keeps its own interned
    span-name cache.
    """

    __slots__ = ("phase", "_start", "_span")

    _histogram = ENGINE_PHASE_SECONDS
    _prefix = "engine."
    _span_names: Dict[str, str] = {}

    def __init__(self, phase: str):
        self.phase = phase

    def __enter__(self) -> "_PhaseTimer":
        active = getattr(_tracer._local, "active", None)
        if active is None:
            self._span = None
        else:
            names = self._span_names
            name = names.get(self.phase)
            if name is None:
                name = names[self.phase] = f"{self._prefix}{self.phase}"
            self._span = _tracer._push(name, {})
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._start
        if self._span is not None:
            _tracer._pop(self._span, exc_type)
        self._histogram._observe_fast((self.phase,), duration)
        return False


class _QueryPhaseTimer(_PhaseTimer):
    __slots__ = ()

    _histogram = QUERY_SECONDS
    _prefix = "query."
    _span_names: Dict[str, str] = {}


def engine_phase(phase: str):
    """Context manager naming one engine phase (histogram + child span)."""
    if not _knob("obs_enabled"):
        return _NULL_CONTEXT
    return _PhaseTimer(phase)


def query_phase(phase: str):
    """Context manager naming one query-layer phase (histogram + child span).

    Phases: ``parse`` (tokenize + parse), ``plan`` (attribute resolution +
    touched-row analysis), ``impute`` (the batched on-demand imputation of
    touched rows), ``evaluate`` (filter/order/project/aggregate).  Spans
    nest under the serving request's root when one is active.
    """
    if not _knob("obs_enabled"):
        return _NULL_CONTEXT
    return _QueryPhaseTimer(phase)


def count_query_rows(kind: str, n_rows: int) -> None:
    """Count rows the query layer scanned or imputed on demand."""
    if not _knob("obs_enabled"):
        return
    QUERY_ROWS_TOTAL._inc_fast((kind,), n_rows)


def observe_request(cmd: str, status: str,
                    seconds: Optional[float] = None) -> None:
    """Record one answered serve-loop request.

    ``seconds=None`` counts the request without a latency sample — used
    for rejections (malformed JSON, oversized lines) whose timing isn't
    meaningful.
    """
    if not _knob("obs_enabled"):
        return
    if seconds is None:
        REQUESTS_TOTAL._inc_fast((cmd, status))
        return
    # Fused counter + histogram update under one lock acquisition: this
    # runs once per answered request, right on the serving hot path.
    histogram = REQUEST_SECONDS
    index = bisect_left(histogram.buckets, seconds)
    counter_key = (cmd, status)
    with _registry._lock:
        counter_series = REQUESTS_TOTAL._series
        counter_series[counter_key] = counter_series.get(counter_key, 0.0) + 1.0
        series = histogram._series.get((cmd,))
        if series is None:
            series = histogram._series[(cmd,)] = _HistogramSeries(
                len(histogram.buckets) + 1
            )
        series.counts[index] += 1
        series.sum += seconds
        series.count += 1


def observe_imputed_cells(n_cells: int, kind: str) -> None:
    if not _knob("obs_enabled"):
        return
    IMPUTED_CELLS_TOTAL._inc_fast((kind,), n_cells)


def observe_wal_sync(seconds: float, policy: str) -> None:
    if not _knob("obs_enabled"):
        return
    WAL_SYNC_SECONDS._observe_fast((policy,), seconds)


def count_wal_bytes(n_bytes: int) -> None:
    if not _knob("obs_enabled"):
        return
    WAL_BYTES_TOTAL._inc_fast((), n_bytes)


def count_wal_rotation() -> None:
    if not _knob("obs_enabled"):
        return
    WAL_ROTATIONS_TOTAL._inc_fast(())


def observe_artifact_io(op: str, seconds: float, n_bytes: int) -> None:
    if not _knob("obs_enabled"):
        return
    ARTIFACT_IO_SECONDS._observe_fast((op,), seconds)
    ARTIFACT_BYTES_TOTAL._inc_fast((op,), n_bytes)


def count_fault_activation(site: str, kind: str) -> None:
    if not _knob("obs_enabled"):
        return
    FAULT_ACTIVATIONS_TOTAL._inc_fast((site, kind))


def count_store_rows(op: str, n_rows: int) -> None:
    if not _knob("obs_enabled"):
        return
    STORE_ROWS_TOTAL._inc_fast((op,), n_rows)


def set_sessions_open(n: int) -> None:
    if not _knob("obs_enabled"):
        return
    SESSIONS_OPEN.set(n)


def set_queue_depth(n: int) -> None:
    if not _knob("obs_enabled"):
        return
    QUEUE_DEPTH.set(n)


def observe_microbatch(fill: int, wait_seconds: float) -> None:
    """Record one coalesced impute batch: its row count and the longest
    queue-to-execution wait among its member requests."""
    if not _knob("obs_enabled"):
        return
    MICROBATCHES_TOTAL._inc_fast(())
    MICROBATCH_ROWS_TOTAL._inc_fast((), fill)
    MICROBATCH_FILL._observe_fast((), float(fill))
    MICROBATCH_WAIT_SECONDS._observe_fast((), wait_seconds)


def count_admission_rejection(reason: str) -> None:
    if not _knob("obs_enabled"):
        return
    ADMISSION_REJECTIONS_TOTAL._inc_fast((reason,))


def install_trace_sink(directory, sample: Optional[float] = None
                       ) -> JsonlTraceSink:
    """Attach a rotated JSONL sink (and optional sample rate) to the tracer."""
    sink = JsonlTraceSink(directory)
    _tracer.configure(sample=sample, sink=sink)
    return sink
