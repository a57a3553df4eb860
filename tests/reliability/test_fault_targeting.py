"""Per-session fault hit targeting: chaos replays must be deterministic.

The global ``serve.dispatch`` hit counter is racy under the concurrent
scheduler — "the 5th dispatch" depends on how the worker pool interleaves
tenants.  A :class:`~repro.reliability.Fault` scoped with ``session=`` is
counted only against dispatches the serve loop attributes to that session
(which the scheduler serialises), so the same plan hits the same request
in every run.  The end-to-end regression here drives **4 concurrent TCP
clients** and asserts the scoped fault lands on exactly the planned
request of the planned session — every time.
"""

import json
import socket
import threading

import pytest

from repro.api import SessionServer, encode_rows, serve_tcp
from repro.data import load_dataset
from repro.exceptions import ConfigurationError
from repro.reliability import Fault, FaultPlan, SimulatedCrash

IIM_CONFIG = {
    "method": "IIM",
    "mode": "online",
    "params": {"k": 4, "learning": "fixed", "learning_neighbors": 3},
}


class TestScopedCounting:
    def test_session_scope_counts_only_attributed_firings(self):
        plan = FaultPlan([Fault("site", "io_error", hit=2, session="b")])
        plan.fire("site", session="a")  # a:1, global:1
        plan.fire("site", session="b")  # b:1, global:2 — not yet
        plan.fire("site", session="a")  # a:2, global:3
        plan.fire("site")               # global:4, no session
        with pytest.raises(OSError, match="injected I/O error"):
            plan.fire("site", session="b")  # b:2 — triggers
        assert plan.hits("site") == 5
        assert plan.hits("site", session="a") == 2
        assert plan.hits("site", session="b") == 2
        assert plan.fired == plan.faults

    def test_global_faults_still_count_process_wide(self):
        plan = FaultPlan([Fault("site", "crash", hit=3)])
        plan.fire("site", session="a")
        plan.fire("site", session="b")
        with pytest.raises(SimulatedCrash):
            plan.fire("site", session="c")

    def test_scoped_fault_never_matches_unattributed_sites(self):
        """Sites that pass no session attribution cannot trigger a scoped
        fault — a plan targeting a session is inert at e.g. ``wal.frame``."""
        plan = FaultPlan([Fault("site", "io_error", hit=1, session="a")])
        for _ in range(5):
            plan.fire("site")  # no attribution: never matches
        assert plan.fired == []
        with pytest.raises(OSError):
            plan.fire("site", session="a")

    def test_global_and_scoped_faults_compose(self):
        plan = FaultPlan([
            Fault("site", "io_error", hit=2),
            Fault("site", "io_error", hit=2, session="a"),
        ])
        plan.fire("site", session="a")
        with pytest.raises(OSError):
            plan.fire("site", session="b")  # global hit 2
        with pytest.raises(OSError):
            plan.fire("site", session="a")  # a's hit 2
        assert len(plan.fired) == 2

    def test_scoped_intercept_write_advances_the_session_count(self):
        plan = FaultPlan([
            Fault("site", "torn_write", hit=2, byte_offset=3, session="s"),
        ])
        data, exc = plan.intercept_write("site", b"abcdef", session="s")
        assert data == b"abcdef" and exc is None
        data, exc = plan.intercept_write("site", b"abcdef", session="s")
        assert data == b"abc"
        assert isinstance(exc, SimulatedCrash)

    def test_fault_validation_still_applies(self):
        with pytest.raises(ConfigurationError):
            Fault("site", "io_error", hit=0, session="s")


class TestFourConcurrentClients:
    """The ISSUE regression: 4 concurrent clients, one scoped fault, and
    the injected error lands on the same request in every run."""

    N_CLIENTS = 4
    N_IMPUTES = 12
    TARGET_SESSION = "chaos-2"
    #: create + append are that session's dispatches 1 and 2, so hit 2+j
    #: is its j-th impute.
    TARGET_IMPUTE = 7

    @pytest.fixture(scope="class")
    def values(self):
        return load_dataset("sn", size=160).raw

    def _run_once(self, values):
        server = SessionServer()
        plan = FaultPlan([
            Fault("serve.dispatch", "io_error", hit=2 + self.TARGET_IMPUTE,
                  session=self.TARGET_SESSION),
        ])
        server.fault_injector = plan
        ready = threading.Event()
        thread = threading.Thread(
            target=serve_tcp, args=("127.0.0.1", 0, server, ready),
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=10)
        errors = []
        outcomes = {}

        def client(index):
            try:
                name = f"chaos-{index}"
                with socket.create_connection(
                    ("127.0.0.1", server.tcp_port), timeout=30
                ) as conn:
                    stream = conn.makefile("rw", encoding="utf-8")

                    def call(**request):
                        request.setdefault("v", 1)
                        stream.write(json.dumps(request) + "\n")
                        stream.flush()
                        return json.loads(stream.readline())

                    assert call(cmd="create", session=name,
                                config=IIM_CONFIG)["ok"]
                    assert call(cmd="append", session=name,
                                rows=encode_rows(values[:50]))["ok"]
                    results = []
                    for i in range(self.N_IMPUTES):
                        row = [float(c) for c in values[60 + i]]
                        row[1] = None
                        response = call(id=i, cmd="impute", session=name,
                                        rows=[row])
                        results.append(
                            (response["id"], response["ok"],
                             (response.get("error") or {}).get("message", ""))
                        )
                    outcomes[name] = results
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((index, exc))

        threads = [
            threading.Thread(target=client, args=(i,), daemon=True)
            for i in range(self.N_CLIENTS)
        ]
        for worker in threads:
            worker.start()
        for worker in threads:
            worker.join(timeout=60)
        try:
            assert not errors, errors
        finally:
            with socket.create_connection(
                ("127.0.0.1", server.tcp_port), timeout=10
            ) as conn:
                stream = conn.makefile("rw", encoding="utf-8")
                stream.write(json.dumps({"v": 1, "cmd": "shutdown"}) + "\n")
                stream.flush()
                assert json.loads(stream.readline())["ok"]
            thread.join(timeout=10)
        return plan, outcomes

    def test_scoped_fault_lands_on_the_planned_request_every_run(self, values):
        for _ in range(3):  # deterministic across repeated runs
            plan, outcomes = self._run_once(values)
            assert sorted(outcomes) == [
                f"chaos-{i}" for i in range(self.N_CLIENTS)
            ]
            for name, results in outcomes.items():
                # Responses arrive in submission order.
                assert [rid for rid, _, _ in results] == list(
                    range(self.N_IMPUTES)
                )
                for rid, ok, message in results:
                    if (
                        name == self.TARGET_SESSION
                        and rid == self.TARGET_IMPUTE - 1
                    ):
                        assert not ok, (
                            f"the scoped fault missed impute "
                            f"#{self.TARGET_IMPUTE} of {name}"
                        )
                        assert "injected I/O error" in message
                    else:
                        assert ok, (name, rid, message)
            # Exactly one fault fired, at the planned per-session hit.
            assert len(plan.fired) == 1
            assert plan.fired[0].session == self.TARGET_SESSION
            assert plan.hits(
                "serve.dispatch", session=self.TARGET_SESSION
            ) == 2 + self.N_IMPUTES
