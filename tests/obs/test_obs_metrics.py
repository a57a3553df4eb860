"""Metrics registry unit coverage: counters, histograms, snapshots, text."""

import re
import threading

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


@pytest.fixture
def registry():
    return MetricsRegistry(enabled=True)


class TestRegistration:
    def test_same_family_is_returned_once(self, registry):
        a = registry.counter("repro_events_total", "events", ("kind",))
        b = registry.counter("repro_events_total", "events", ("kind",))
        assert a is b

    def test_kind_mismatch_rejected(self, registry):
        registry.counter("repro_thing", "a counter")
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.gauge("repro_thing", "now a gauge")

    def test_label_mismatch_rejected(self, registry):
        registry.counter("repro_thing_total", "c", ("a",))
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.counter("repro_thing_total", "c", ("a", "b"))

    def test_invalid_metric_name_rejected(self, registry):
        with pytest.raises(ConfigurationError, match="invalid metric name"):
            registry.counter("0bad-name")

    def test_invalid_label_name_rejected(self, registry):
        with pytest.raises(ConfigurationError, match="invalid label name"):
            registry.counter("repro_ok_total", labelnames=("le gal",))

    def test_duplicate_label_names_rejected(self, registry):
        with pytest.raises(ConfigurationError, match="duplicate"):
            registry.counter("repro_ok_total", labelnames=("a", "a"))

    def test_bad_buckets_rejected(self, registry):
        with pytest.raises(ConfigurationError, match="strictly"):
            registry.histogram("repro_h", buckets=(1.0, 1.0))
        with pytest.raises(ConfigurationError, match="strictly"):
            registry.histogram("repro_h2", buckets=())


class TestCounterAndGauge:
    def test_counter_accumulates_per_label_set(self, registry):
        counter = registry.counter("repro_events_total", "e", ("kind",))
        counter.inc(kind="a")
        counter.inc(2.5, kind="a")
        counter.inc(kind="b")
        assert counter.value(kind="a") == 3.5
        assert counter.value(kind="b") == 1.0
        assert counter.value(kind="never") == 0.0

    def test_counter_cannot_decrease(self, registry):
        counter = registry.counter("repro_events_total")
        with pytest.raises(ConfigurationError, match="cannot decrease"):
            counter.inc(-1)

    def test_wrong_labels_rejected(self, registry):
        counter = registry.counter("repro_events_total", "e", ("kind",))
        with pytest.raises(ConfigurationError, match="takes labels"):
            counter.inc(flavor="a")
        with pytest.raises(ConfigurationError, match="takes labels"):
            counter.inc()

    def test_gauge_moves_both_ways(self, registry):
        gauge = registry.gauge("repro_open")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value() == 4.0

    def test_counter_is_thread_safe(self, registry):
        counter = registry.counter("repro_events_total")
        n_threads, n_increments = 8, 5000

        def work():
            for _ in range(n_increments):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value() == n_threads * n_increments


class TestHistogram:
    def test_bucket_bounds_are_le_inclusive(self, registry):
        histogram = registry.histogram("repro_h", buckets=(1.0, 2.0))
        histogram.observe(1.0)   # exactly on a bound: belongs to le="1.0"
        histogram.observe(1.5)
        histogram.observe(99.0)  # above the last bound: +Inf bucket
        series = histogram._series[()]
        assert series.counts == [1, 1, 1]
        assert series.count == 3

    def test_quantiles_match_numpy_within_one_bucket(self, registry):
        rng = np.random.default_rng(11)
        samples = rng.gamma(shape=2.0, scale=0.004, size=4000)
        histogram = registry.histogram("repro_h")
        for value in samples:
            histogram.observe(float(value))
        bounds = (0.0,) + DEFAULT_LATENCY_BUCKETS
        for q in (0.50, 0.95, 0.99):
            estimated = histogram.quantile(q)
            exact = float(np.percentile(samples, q * 100))
            # The estimate interpolates inside the bucket the exact value
            # falls in, so it can be off by at most that bucket's width.
            index = int(np.searchsorted(DEFAULT_LATENCY_BUCKETS, exact))
            width = bounds[index + 1] - bounds[index]
            assert abs(estimated - exact) <= width, (q, estimated, exact)

    def test_quantile_of_empty_series_is_none(self, registry):
        histogram = registry.histogram("repro_h")
        assert histogram.quantile(0.5) is None
        summary = histogram.summary()
        assert summary == {
            "count": 0, "sum": 0.0, "p50": None, "p95": None, "p99": None,
        }

    def test_quantile_range_validated(self, registry):
        histogram = registry.histogram("repro_h")
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            histogram.quantile(1.5)

    def test_overflow_quantile_clamps_to_last_bound(self, registry):
        histogram = registry.histogram("repro_h", buckets=(1.0, 2.0))
        for _ in range(10):
            histogram.observe(50.0)
        assert histogram.quantile(0.99) == 2.0

    def test_summary_counts_and_sum(self, registry):
        histogram = registry.histogram("repro_h", labelnames=("cmd",))
        for value in (0.001, 0.002, 0.003):
            histogram.observe(value, cmd="ping")
        summary = histogram.summary(cmd="ping")
        assert summary["count"] == 3
        assert summary["sum"] == pytest.approx(0.006)
        assert 0.0 < summary["p50"] <= 0.0025

    def test_observe_is_thread_safe(self, registry):
        histogram = registry.histogram("repro_h")
        n_threads, n_observations = 8, 5000

        def work():
            for i in range(n_observations):
                histogram.observe(0.0001 * (i % 50))

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        series = histogram._series[()]
        assert series.count == n_threads * n_observations
        assert sum(series.counts) == n_threads * n_observations


class TestDisabled:
    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("repro_events_total")
        gauge = registry.gauge("repro_open")
        histogram = registry.histogram("repro_h")
        counter.inc()
        gauge.set(3)
        histogram.observe(0.01)
        assert counter.value() == 0.0
        assert gauge.value() == 0.0
        assert histogram.summary()["count"] == 0

    def test_deferred_registry_follows_the_config_knob(self):
        from repro import config

        registry = MetricsRegistry()  # enabled=None: defer to the knob
        counter = registry.counter("repro_events_total")
        config.set("obs_enabled", False)
        counter.inc()
        assert counter.value() == 0.0
        config.set("obs_enabled", True)
        counter.inc()
        assert counter.value() == 1.0


class TestReset:
    def test_reset_zeroes_series_but_keeps_families(self, registry):
        counter = registry.counter("repro_events_total", "e", ("kind",))
        counter.inc(kind="a")
        registry.reset()
        assert counter.value(kind="a") == 0.0
        assert registry.counter("repro_events_total", "e", ("kind",)) is counter


class TestSnapshot:
    def test_snapshot_is_json_safe_and_complete(self, registry):
        import json

        registry.counter("repro_events_total", "e", ("kind",)).inc(kind="a")
        registry.gauge("repro_open", "o").set(2)
        registry.histogram("repro_h", "h", ("cmd",)).observe(0.004, cmd="x")
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # must not raise
        assert snapshot["counters"]["repro_events_total"]["series"] == [
            {"labels": {"kind": "a"}, "value": 1.0}
        ]
        assert snapshot["gauges"]["repro_open"]["series"][0]["value"] == 2.0
        histogram = snapshot["histograms"]["repro_h"]
        assert histogram["buckets"] == list(DEFAULT_LATENCY_BUCKETS)
        (series,) = histogram["series"]
        assert series["labels"] == {"cmd": "x"}
        assert series["count"] == 1


#: One Prometheus text line: comment, or `name{labels} value`.
_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r" -?[0-9.e+-]+(inf)?$"
)


class TestPrometheusText:
    def test_every_line_is_well_formed(self, registry):
        registry.counter("repro_events_total", "e", ("kind",)).inc(kind="a")
        registry.histogram("repro_h", "h", ("cmd",)).observe(0.004, cmd="x")
        registry.gauge("repro_open", "sessions").set(1)
        text = registry.to_prometheus()
        assert text.endswith("\n")
        for line in text.rstrip("\n").split("\n"):
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert _SAMPLE_LINE.match(line), line

    def test_help_and_type_appear_once_per_family(self, registry):
        histogram = registry.histogram("repro_h", "h", ("cmd",))
        histogram.observe(0.004, cmd="x")
        histogram.observe(0.004, cmd="y")
        text = registry.to_prometheus()
        assert text.count("# HELP repro_h ") == 1
        assert text.count("# TYPE repro_h histogram") == 1

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self, registry):
        histogram = registry.histogram("repro_h", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 99.0):
            histogram.observe(value)
        text = registry.to_prometheus()
        assert 'repro_h_bucket{le="1.0"} 1' in text
        assert 'repro_h_bucket{le="2.0"} 2' in text
        assert 'repro_h_bucket{le="+Inf"} 3' in text
        assert "repro_h_sum 101" in text
        assert "repro_h_count 3" in text

    def test_label_values_are_escaped(self, registry):
        counter = registry.counter("repro_events_total", "e", ("kind",))
        counter.inc(kind='we"ird\\new\nline')
        text = registry.to_prometheus()
        assert 'kind="we\\"ird\\\\new\\nline"' in text

    def test_help_text_is_escaped(self, registry):
        registry.counter("repro_events_total", "multi\nline \\help").inc()
        text = registry.to_prometheus()
        assert "# HELP repro_events_total multi\\nline \\\\help" in text

    def test_integer_values_render_without_decimal_point(self, registry):
        registry.counter("repro_events_total").inc(3)
        assert "repro_events_total 3\n" in registry.to_prometheus()


class TestExports:
    def test_instrument_classes_are_public(self):
        assert issubclass(Counter, object)
        assert issubclass(Gauge, object)
        assert issubclass(Histogram, object)
