"""Shared isolation for observability tests.

The registry and tracer are process-wide singletons; every test here runs
against a clean slate and leaves the config knobs exactly as it found them.
"""

import pytest

from repro import config
from repro.obs import get_tracer, reset_observability


@pytest.fixture(autouse=True)
def clean_observability():
    tracer = get_tracer()
    previous_enabled = config.get("obs_enabled")
    previous_sample = config.get("trace_sample")
    previous_pinned = tracer._sample
    previous_sink = tracer.sink
    config.set("obs_enabled", True)
    reset_observability()
    yield
    tracer._sample = previous_pinned
    tracer.sink = previous_sink
    config.set("obs_enabled", previous_enabled)
    config.set("trace_sample", previous_sample)
    reset_observability()
