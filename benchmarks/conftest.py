"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one table or figure of the paper, or asserts
one performance bar, at the scale selected by the ``REPRO_PROFILE`` /
``REPRO_FULL`` environment variables (default: the ``bench`` profile,
which preserves the qualitative shape of the paper's results at
laptop-friendly sizes).  Everything a run writes lands in
``benchmarks/results/``: the rendered text of each experiment
(:func:`record_result`) and the JSON record of each bar
(:func:`write_report`).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.api import SessionServer, encode_rows  # noqa: E402
from repro.experiments import get_profile  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "results"


@pytest.fixture(scope="session")
def profile():
    """The scale profile shared by every benchmark."""
    return get_profile()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where rendered experiment outputs are stored."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_result(results_dir):
    """Write one experiment's rendered text output to the results directory."""

    def _record(name: str, text: str) -> Path:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        return path

    return _record


@pytest.fixture
def write_report(results_dir, profile):
    """Merge sections into ``results/<name>.json``, each tagged with the profile.

    Read-merge-write, so the tests sharing a record can run (and re-run)
    independently.
    """

    def _write(name: str, **sections) -> Path:
        path = results_dir / f"{name}.json"
        try:
            report = json.loads(path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            report = {}
        for key, section in sections.items():
            report[key] = {"profile": profile.name, **section}
        path.write_text(json.dumps(report, indent=2) + "\n")
        return path

    return _write


@pytest.fixture(scope="session")
def bench_params(profile):
    """The IIM parameters of the service-layer and reliability bars."""
    return dict(
        k=profile.default_k,
        learning="adaptive",
        stepping=profile.iim_stepping,
        max_learning_neighbors=min(25, profile.iim_max_learning_neighbors),
    )


@pytest.fixture(scope="session")
def ask():
    """Send one request (a dict, or a pre-encoded line) through the JSONL
    path; raise unless it answers ok."""

    def _ask(server, request):
        if not isinstance(request, str):
            request = json.dumps({"v": 1, **request})
        response = server.handle_line(request)
        if not response["ok"]:
            raise AssertionError(f"serve request failed: {response['error']}")
        return response["result"]

    return _ask


@pytest.fixture
def serve_sessions(ask, bench_params):
    """Factory: a ``SessionServer`` holding warm online IIM sessions.

    ``sessions`` maps each session name to the attributes its timed phase
    queries.  Every session gets ``values[:store_rows]`` as its store, and
    each listed attribute is warmed by imputing ``values[store_rows]`` with
    that cell blanked: production serving runs warm.  Servers are closed at
    teardown.
    """
    servers = []

    def _open(values, store_rows, sessions, **server_options):
        server = SessionServer(**server_options)
        servers.append(server)
        config = {"method": "IIM", "mode": "online", "params": dict(bench_params)}
        store = encode_rows(values[:store_rows])
        for name, attributes in sessions.items():
            ask(server, {"cmd": "create", "session": name, "config": config})
            ask(server, {"cmd": "append", "session": name, "rows": store})
            for attribute in attributes:
                warm = values[store_rows].copy()
                warm[attribute] = np.nan
                ask(server, {"cmd": "impute", "session": name,
                             "rows": encode_rows(warm)})
        return server

    yield _open
    for server in servers:
        server.close_sessions()
