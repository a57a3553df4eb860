"""The names the repository benchmark wraps, and the counters it reads, exist.

``perfbench/`` times the program from outside.  Its traced runs patch the
callables listed in ``spans.BOUNDARIES`` by name and probe the queue wait
of every request ``RequestScheduler._execute`` dispatches, ``launch.py``
patches ``SessionServer.handle_request``, ``common.Server`` starts
``python -m repro serve`` with fixed flags, and ``common.engine_counts``
and ``common.sched_counts`` index the ``stats`` replies.  A rename in
``src/`` breaks those runs, but only a full benchmark run would notice;
these checks notice it here.  Both modules are loaded by path: they import
only the standard library and numpy at module level.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro import config, load_dataset
from repro.__main__ import _build_parser
from repro.api import MutationOp, SessionServer, encode_rows
from repro.api.scheduling import RequestScheduler

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
common = _load("common")

#: What ``launch.py --cpu`` wraps, besides the span boundaries.
LAUNCH_TARGETS = (("launch.cpu", "repro.api.serve", "SessionServer.handle_request"),)


def test_every_wrapped_name_resolves_to_a_callable():
    unresolved = []
    for name, module, attr in spans.BOUNDARIES + LAUNCH_TARGETS:
        try:
            owner, last = spans._resolve(module, attr)
            target = getattr(owner, last)
        except (ImportError, AttributeError) as exc:
            unresolved.append(f"{name}: {module}.{attr} ({exc})")
            continue
        if not callable(target):
            unresolved.append(f"{name}: {module}.{attr} is not callable")
    assert not unresolved, "perfbench wraps names that no longer exist:\n" + (
        "\n".join(unresolved)
    )


def test_engine_counts_reads_the_stats_of_a_driven_session():
    values = load_dataset("asf", size=160).raw
    warm = values[140:144].copy()
    warm[:, 0] = np.nan
    session = common.local_session(values[:100], None, warm)
    engine = session.engine
    before = dict(engine.stats)
    session.mutate([
        MutationOp.append(values[100:120]),
        MutationOp.update(3, values[130]),
        MutationOp.delete([0, 5]),
    ])
    session.impute(warm)
    counts = common.engine_counts(
        before, dict(engine.stats), [engine.memory_stats()]
    )
    assert counts["engine.hybrid_full_rebuilds"] == 0
    assert counts["engine.refreshed_per_mutated_row"] > 0
    assert counts["store.resident_bytes"] > 0


def _serve_args(monkeypatch, tmp_path, **options):
    """The ``python -m repro`` arguments :class:`common.Server` launches."""
    launched = []
    monkeypatch.setattr(common, "OUT", tmp_path)
    monkeypatch.setattr(common.subprocess, "Popen",
                        lambda argv, **_: launched.append(argv))
    monkeypatch.setattr(common.Server, "_connect", lambda self: None)
    server = common.Server("contract", **options)
    server.log.close()
    (argv,) = launched
    # launch.py's own options come first: --cpu FILE.
    return argv[argv.index("--cpu") + 2:]


@pytest.mark.parametrize("wal", [False, True], ids=["plain", "wal"])
def test_the_benchmark_server_flags_parse(monkeypatch, tmp_path, wal):
    args = _serve_args(monkeypatch, tmp_path, wal=wal)
    expected = ["serve", "--port", args[2], "--workers", "4",
                "--microbatch-window-ms", "0", "--trace-sample", "0.1"]
    if wal:
        expected += ["--wal-dir", str(tmp_path / "wal-contract"),
                     "--sync", "batch"]
    assert args == expected
    parsed = _build_parser().parse_args(args)
    assert parsed.command == "serve" and parsed.port == int(args[2])
    # What ``serve`` hands the server resolves, as _cmd_serve resolves it.
    for name in config.SERVE_KNOBS:
        config.resolve(name, getattr(parsed, name))
    assert parsed.microbatch_window_ms == "0"
    assert parsed.trace_sample == "0.1"
    if wal:
        assert parsed.wal_dir == str(tmp_path / "wal-contract")
        assert parsed.wal_sync == "batch"


def _driven_server(n_imputes):
    """A server with one small online session, then ``n_imputes``
    pipelined single-row imputes: ``(server, stats before, stats after)``."""
    values = load_dataset("sn", size=80).raw
    server = SessionServer(microbatch_max_rows=8)
    for request in (
        {"cmd": "create", "session": "s", "config": {
            "method": "IIM", "mode": "online",
            "params": {"k": 4, "learning": "fixed",
                       "learning_neighbors": 3}}},
        {"cmd": "append", "session": "s", "rows": encode_rows(values[:60])},
    ):
        assert server.handle_line(json.dumps({"v": 1, **request}))["ok"]
    stats = json.dumps({"v": 1, "cmd": "stats", "session": "s"})
    before = server.handle_line(stats)["result"]
    answered = []
    for i in range(n_imputes):
        row = [float(cell) for cell in values[60 + i]]
        row[1] = None
        server.submit_line(json.dumps({"v": 1, "id": i, "cmd": "impute",
                                       "session": "s", "rows": [row]}),
                           answered.append)
    assert server.scheduler.drain(timeout=30)
    assert len(answered) == n_imputes and all(r["ok"] for r in answered)
    after = server.handle_line(stats)["result"]
    return server, before, after


def test_the_queue_wait_probe_sees_every_dispatched_request(monkeypatch):
    # Restored at teardown: install() patches these in place.
    for _, module, attr in spans.BOUNDARIES:
        owner, last = spans._resolve(module, attr)
        monkeypatch.setattr(owner, last, getattr(owner, last))
    execute = RequestScheduler._execute
    monkeypatch.setattr(RequestScheduler, "_execute", execute)
    recorder = spans.Recorder()
    spans.install(recorder)
    server, _, _ = _driven_server(6)
    server.close_sessions()
    waits = [value for name, _, value in recorder.samples
             if name == spans.QUEUE_WAIT]
    assert len(waits) >= 6 and all(wait >= 0.0 for wait in waits)
    names = {span[0] for span in recorder.spans}
    assert {"serve.submit", "serve.handle", "session.impute"} <= names


def test_sched_counts_reads_two_stats_replies():
    server, before, after = _driven_server(6)
    server.close_sessions()
    counts = common.sched_counts(before, after)
    assert sorted(counts) == ["sched.batch_fill", "sched.batches"]
    assert counts["sched.batches"] >= 0
    assert counts["sched.batch_fill"] >= 1.0
