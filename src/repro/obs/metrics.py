"""The metrics registry: counters, gauges and fixed-bucket histograms.

Stdlib-only and thread-safe: one :class:`MetricsRegistry` holds named
*families* (a metric name plus its label names), each family holds one
series per distinct label-value tuple, and every mutation takes the
registry lock — increments are plain float adds under the GIL, so the lock
is only ever held for nanoseconds and contention is irrelevant next to the
numpy work being measured.

Histograms use **fixed buckets** (default: a latency ladder from 100µs to
10s plus ``+Inf``), the same representation Prometheus uses: cumulative
counts per upper bound, a running sum and count.  Quantiles (p50/p95/p99)
are estimated the way ``histogram_quantile`` does it — find the bucket the
rank falls in, interpolate linearly inside it — which the test suite checks
against ``numpy.percentile`` to within one bucket width.

Two snapshot surfaces:

* :meth:`MetricsRegistry.snapshot` — a JSON-safe dict (what the ``metrics``
  serve command returns by default);
* :meth:`MetricsRegistry.to_prometheus` — the text exposition format
  (``# HELP`` / ``# TYPE`` once per family, label values escaped), so a
  scrape of the serve loop drops straight into Prometheus.

When the registry is disabled (constructor argument, or deferring to the
``repro.config`` ``obs_enabled`` knob) every mutation returns before
touching the lock — the cost of a disabled instrument is one attribute
load and one boolean check.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from .. import config
from ..exceptions import ConfigurationError

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default histogram buckets: a latency ladder (seconds) from 100µs to 10s.
#: ``+Inf`` is implicit — observations above the last bound land there.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _validate_metric_name(name: str) -> str:
    if not isinstance(name, str) or not _METRIC_NAME.match(name):
        raise ConfigurationError(
            f"invalid metric name {name!r}; must match "
            f"[a-zA-Z_:][a-zA-Z0-9_:]*"
        )
    return name


def _validate_label_names(labelnames) -> Tuple[str, ...]:
    names = tuple(labelnames)
    for name in names:
        if not isinstance(name, str) or not _LABEL_NAME.match(name):
            raise ConfigurationError(
                f"invalid label name {name!r}; must match "
                f"[a-zA-Z_][a-zA-Z0-9_]*"
            )
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate label names in {names!r}")
    return names


def _escape_label_value(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Instrument:
    """Shared plumbing of one metric family (name + label names)."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: Tuple[str, ...]):
        self._registry = registry
        self.name = name
        self.help = help
        self.labelnames = labelnames
        # label-value tuple -> series state (subclass-specific)
        self._series: Dict[Tuple[str, ...], object] = {}

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        names = self.labelnames
        # Hot path: the exact label set, keyed in declaration order.
        if len(labels) == len(names):
            try:
                return tuple(str(labels[name]) for name in names)
            except KeyError:
                pass
        raise ConfigurationError(
            f"metric {self.name!r} takes labels "
            f"{sorted(names)}, got {sorted(labels)}"
        )

    def series_labels(self) -> List[Dict[str, str]]:
        """Label dicts of every live series in this family.

        Lets a consumer enumerate what was actually observed — e.g. the
        scenario replayer harvesting per-phase latency summaries without
        hard-coding the phase names it expects to find.
        """
        with self._registry._lock:
            keys = list(self._series.keys())
        return [dict(zip(self.labelnames, key)) for key in keys]


class Counter(_Instrument):
    """A monotonically increasing count (events, bytes, cells)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        self._inc_fast(self._key(labels), amount)

    def _inc_fast(self, key: Tuple[str, ...], amount: float = 1.0) -> None:
        # Hot path for the package helpers: the caller has already checked
        # the enabled knob and supplies label values in declaration order.
        with self._registry._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._registry._lock:
            return float(self._series.get(self._key(labels), 0.0))


class Gauge(_Instrument):
    """A value that goes up and down (open sessions, live rows)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        if not self._registry.enabled:
            return
        key = self._key(labels)
        with self._registry._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        if not self._registry.enabled:
            return
        key = self._key(labels)
        with self._registry._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        with self._registry._lock:
            return float(self._series.get(self._key(labels), 0.0))


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.counts = [0] * n_buckets  # per-bucket (non-cumulative), +Inf last
        self.sum = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Fixed-bucket distribution with interpolated quantile summaries."""

    kind = "histogram"

    def __init__(self, registry, name, help, labelnames,
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        super().__init__(registry, name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ConfigurationError(
                f"histogram {name!r} buckets must be a non-empty strictly "
                f"increasing sequence, got {buckets!r}"
            )
        self.buckets = bounds  # finite upper bounds; +Inf is implicit

    def observe(self, value: float, **labels) -> None:
        if not self._registry.enabled:
            return
        self._observe_fast(self._key(labels), float(value))

    def _observe_fast(self, key: Tuple[str, ...], value: float) -> None:
        # Hot path for the package helpers (see Counter._inc_fast).
        # First bucket whose upper bound contains the value (le-inclusive);
        # values above the last finite bound land in the +Inf bucket.
        index = bisect_left(self.buckets, value)
        with self._registry._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(
                    len(self.buckets) + 1
                )
            series.counts[index] += 1
            series.sum += value
            series.count += 1

    def quantile(self, q: float, **labels) -> Optional[float]:
        """Estimate the q-quantile by interpolating inside its bucket.

        Returns ``None`` for an empty series.  Observations above the last
        finite bound clamp to that bound (the ``+Inf`` bucket has no upper
        edge to interpolate toward) — the same convention Prometheus'
        ``histogram_quantile`` uses.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        with self._registry._lock:
            series = self._series.get(self._key(labels))
            if series is None or series.count == 0:
                return None
            counts = list(series.counts)
            total = series.count
        rank = q * total
        cumulative = 0.0
        for i, bucket_count in enumerate(counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank and bucket_count > 0:
                if i >= len(self.buckets):
                    return self.buckets[-1]
                lower = 0.0 if i == 0 else self.buckets[i - 1]
                upper = self.buckets[i]
                fraction = (rank - previous) / bucket_count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        return self.buckets[-1]

    def summary(self, **labels) -> Dict[str, object]:
        """Count/sum plus p50/p95/p99 for one series."""
        with self._registry._lock:
            series = self._series.get(self._key(labels))
            count = 0 if series is None else series.count
            total = 0.0 if series is None else series.sum
        return {
            "count": count,
            "sum": total,
            "p50": self.quantile(0.50, **labels),
            "p95": self.quantile(0.95, **labels),
            "p99": self.quantile(0.99, **labels),
        }


class MetricsRegistry:
    """A process-wide table of metric families.

    ``enabled=None`` (the default) defers to the ``obs_enabled`` knob in
    :mod:`repro.config` at every mutation, so flipping the knob switches
    every already-created instrument; an explicit ``True``/``False`` pins
    the registry (used by tests and micro-benchmarks).
    """

    def __init__(self, enabled: Optional[bool] = None):
        self._enabled = enabled
        self._families: Dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        if self._enabled is not None:
            return self._enabled
        return config.get("obs_enabled")

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def _register(self, cls, name, help, labelnames, **kwargs):
        _validate_metric_name(name)
        labelnames = _validate_label_names(labelnames)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if (
                    type(existing) is not cls
                    or existing.labelnames != labelnames
                ):
                    raise ConfigurationError(
                        f"metric {name!r} already registered as a "
                        f"{existing.kind} with labels "
                        f"{sorted(existing.labelnames)}"
                    )
                return existing
            instrument = cls(self, name, help, labelnames, **kwargs)
            self._families[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "", labelnames=()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames=()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "", labelnames=(),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                  ) -> Histogram:
        return self._register(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def reset(self) -> None:
        """Zero every series (families stay registered)."""
        with self._lock:
            for family in self._families.values():
                family._series.clear()

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        """A JSON-safe dict of every family and series."""
        with self._lock:
            families = list(self._families.values())
        out: Dict[str, object] = {"counters": {}, "gauges": {}, "histograms": {}}
        for family in families:
            with self._lock:
                items = list(family._series.items())
            if isinstance(family, Histogram):
                series = []
                for key, state in items:
                    labels = dict(zip(family.labelnames, key))
                    entry = {
                        "labels": labels,
                        "counts": list(state.counts),
                        **family.summary(**labels),
                    }
                    series.append(entry)
                out["histograms"][family.name] = {
                    "help": family.help,
                    "buckets": list(family.buckets),
                    "series": series,
                }
            else:
                section = (
                    out["counters"] if isinstance(family, Counter)
                    else out["gauges"]
                )
                section[family.name] = {
                    "help": family.help,
                    "series": [
                        {
                            "labels": dict(zip(family.labelnames, key)),
                            "value": value,
                        }
                        for key, value in items
                    ],
                }
        return out

    def to_prometheus(self) -> str:
        """The text exposition format (version 0.0.4)."""
        lines: List[str] = []
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        for family in families:
            with self._lock:
                items = sorted(family._series.items())
            if family.help:
                lines.append(
                    f"# HELP {family.name} {_escape_help(family.help)}"
                )
            lines.append(f"# TYPE {family.name} {family.kind}")
            if isinstance(family, Histogram):
                for key, state in items:
                    label_str = self._labels(family.labelnames, key)
                    cumulative = 0
                    for bound, count in zip(
                        family.buckets + (float("inf"),), state.counts
                    ):
                        cumulative += count
                        le = "+Inf" if bound == float("inf") else repr(bound)
                        extra = f'le="{le}"'
                        joined = (
                            f"{label_str[:-1]},{extra}}}" if label_str
                            else f"{{{extra}}}"
                        )
                        lines.append(
                            f"{family.name}_bucket{joined} {cumulative}"
                        )
                    lines.append(
                        f"{family.name}_sum{label_str} "
                        f"{_format_value(state.sum)}"
                    )
                    lines.append(
                        f"{family.name}_count{label_str} {state.count}"
                    )
            else:
                for key, value in items:
                    label_str = self._labels(family.labelnames, key)
                    lines.append(
                        f"{family.name}{label_str} {_format_value(value)}"
                    )
        return "\n".join(lines) + "\n"

    @staticmethod
    def _labels(names: Tuple[str, ...], values: Tuple[str, ...]) -> str:
        if not names:
            return ""
        pairs = ",".join(
            f'{name}="{_escape_label_value(value)}"'
            for name, value in zip(names, values)
        )
        return "{" + pairs + "}"
