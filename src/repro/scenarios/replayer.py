"""The scenario replayer: drive a spec against the engine or serve loop.

:func:`replay` materialises a spec's trace and pushes every event through
one of three transports:

* ``engine`` — direct :class:`~repro.api.OnlineSession` calls (no wire);
* ``serve`` — in-process :class:`~repro.api.serve.SessionServer`, every
  event encoded as a JSONL request line and the response decoded back —
  the full protocol path without a socket;
* ``tcp`` — a real ``serve_tcp`` loop on an ephemeral port, driven over a
  socket (the transport the CI scenario matrix uses for multi-tenant
  mixes).

``transport="auto"`` (the :mod:`repro.config` default) picks ``serve`` for
multi-tenant scenarios and ``engine`` otherwise.

Every imputation response is verified against a **cold-refit oracle**: a
fresh :class:`~repro.core.iim.IIMImputer` fitted on the replayer's shadow
copy of the surviving store must reproduce the online answers at
``rtol=1e-9`` (``verify=True`` raises :class:`ScenarioError` on
divergence).  Per-phase latencies (``scenario.fit`` / ``scenario.mutate``
/ ``scenario.impute`` / ``scenario.cold_refit``, plus whatever engine
phases fire underneath) land in the :mod:`repro.obs` registry and are
summarised as p50/p95/p99 in the report.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from .. import config
from ..data.relation import Relation
from ..exceptions import ScenarioError
from ..metrics import rms_error
from ..obs import ENGINE_PHASE_SECONDS, engine_phase, reset_observability
from .generators import ScenarioTrace, SessionPlan, TraceStep, generate_trace
from .spec import ScenarioSpec

__all__ = ["StepReport", "ReplayReport", "replay"]

#: Cold-refit equivalence tolerances (the repo-wide online-vs-cold contract).
RTOL = 1e-9
ATOL = 1e-12


@dataclass
class StepReport:
    """Timing and verification outcome of one trace round."""

    index: int
    session: str
    round_index: int
    n_store: int
    n_appended: int
    n_updated: int
    n_deleted: int
    n_queries: int
    online_seconds: float
    cold_seconds: float
    rms_online: float
    rms_cold: float
    max_abs_diff: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "session": self.session,
            "round": self.round_index,
            "n_store": self.n_store,
            "n_appended": self.n_appended,
            "n_updated": self.n_updated,
            "n_deleted": self.n_deleted,
            "n_queries": self.n_queries,
            "online_seconds": self.online_seconds,
            "cold_seconds": self.cold_seconds,
            "rms_online": self.rms_online,
            "rms_cold": self.rms_cold,
            "max_abs_diff": self.max_abs_diff,
        }


@dataclass
class ReplayReport:
    """Outcome of replaying one scenario end to end."""

    scenario: str
    generator: str
    transport: str
    trace_digest: str
    digest_checked: bool
    verified: Optional[bool]
    steps: List[StepReport] = field(default_factory=list)
    session_stats: Dict[str, object] = field(default_factory=dict)
    phase_summaries: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Aggregate counters of the trace's query-language steps (empty when
    #: the scenario has none): statements, result_rows, rows_scanned,
    #: rows_imputed.
    query_totals: Dict[str, int] = field(default_factory=dict)

    @property
    def n_rounds(self) -> int:
        return len(self.steps)

    @property
    def online_seconds(self) -> float:
        return sum(step.online_seconds for step in self.steps)

    @property
    def cold_seconds(self) -> float:
        return sum(step.cold_seconds for step in self.steps)

    @property
    def speedup(self) -> float:
        online = self.online_seconds
        return self.cold_seconds / online if online else float("nan")

    @property
    def max_abs_diff(self) -> float:
        return max(
            (step.max_abs_diff for step in self.steps), default=float("nan")
        )

    @property
    def max_rms_gap(self) -> float:
        return max(
            (
                abs(step.rms_online - step.rms_cold)
                for step in self.steps
            ),
            default=float("nan"),
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "generator": self.generator,
            "transport": self.transport,
            "trace_digest": self.trace_digest,
            "digest_checked": self.digest_checked,
            "verified": self.verified,
            "n_rounds": self.n_rounds,
            "online_seconds": self.online_seconds,
            "cold_seconds": self.cold_seconds,
            "speedup": self.speedup,
            "max_abs_diff": self.max_abs_diff,
            "max_rms_gap": self.max_rms_gap,
            "phases": dict(self.phase_summaries),
            "query_totals": dict(self.query_totals),
            "session_stats": dict(self.session_stats),
            "steps": [step.as_dict() for step in self.steps],
        }


# --------------------------------------------------------------------------- #
# Transport drivers
# --------------------------------------------------------------------------- #
class _EngineDriver:
    """Direct OnlineSession calls — the no-wire baseline."""

    name = "engine"

    def __init__(self):
        from ..api.sessions import OnlineSession

        self._session_cls = OnlineSession
        self._sessions: Dict[str, object] = {}

    def create(self, plan: SessionPlan) -> None:
        self._sessions[plan.name] = self._session_cls(
            **plan.engine, **plan.model
        )

    def fit(self, session: str, rows: np.ndarray) -> None:
        self._sessions[session].fit(rows)

    def mutate(self, session: str, ops) -> None:
        self._sessions[session].mutate(ops)

    def impute(self, session: str, queries: np.ndarray) -> np.ndarray:
        return np.asarray(self._sessions[session].impute(queries), dtype=float)

    def query(self, session: str, statement: str) -> Dict[str, int]:
        from ..query import QueryResult, execute_query

        result = execute_query(self._sessions[session], statement)
        if isinstance(result, QueryResult):
            return {
                "result_rows": int(result.rows.shape[0]),
                "rows_scanned": result.rows_scanned,
                "rows_imputed": result.rows_imputed,
            }
        return {"result_rows": 0, "rows_scanned": 0, "rows_imputed": 0}

    def stats(self, session: str) -> Dict[str, object]:
        return self._sessions[session].stats()

    def close(self) -> None:
        self._sessions.clear()


class _ServeDriver:
    """In-process SessionServer, every event a JSONL request line."""

    name = "serve"

    def __init__(self):
        from ..api.serve import SessionServer

        self._server = SessionServer()
        self._next_id = 0

    def _call(self, request: Dict[str, object]) -> Dict[str, object]:
        self._next_id += 1
        request = {"v": 1, "id": self._next_id, **request}
        response = self._send(json.dumps(request))
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ScenarioError(
                f"serve-loop replay failed on cmd {request['cmd']!r}: "
                f"[{error.get('code')}] {error.get('message')}"
            )
        return response["result"]

    def _send(self, line: str) -> Dict[str, object]:
        response = self._server.handle_line(line)
        if response is None:
            raise ScenarioError("serve loop returned no response line")
        return response

    def create(self, plan: SessionPlan) -> None:
        from ..api.messages import encode_rows  # noqa: F401 - driver symmetry

        self._call({
            "cmd": "create",
            "session": plan.name,
            "config": {
                "method": "IIM",
                "mode": "online",
                "params": dict(plan.model),
                "engine": dict(plan.engine),
            },
        })

    def fit(self, session: str, rows: np.ndarray) -> None:
        from ..api.messages import encode_rows

        self._call({
            "cmd": "fit", "session": session, "rows": encode_rows(rows),
        })

    def mutate(self, session: str, ops) -> None:
        self._call({
            "cmd": "mutate",
            "session": session,
            "ops": [op.to_wire() for op in ops],
        })

    def impute(self, session: str, queries: np.ndarray) -> np.ndarray:
        from ..api.messages import encode_rows

        result = self._call({
            "cmd": "impute", "session": session, "rows": encode_rows(queries),
        })
        return np.asarray(result["rows"], dtype=float)

    def query(self, session: str, statement: str) -> Dict[str, int]:
        result = self._call({
            "cmd": "query", "session": session, "q": statement,
        })
        if result.get("kind") in ("select", "explain"):
            return {
                "result_rows": len(result.get("rows") or []),
                "rows_scanned": int(result.get("rows_scanned", 0)),
                "rows_imputed": int(result.get("rows_imputed", 0)),
            }
        return {"result_rows": 0, "rows_scanned": 0, "rows_imputed": 0}

    def stats(self, session: str) -> Dict[str, object]:
        return self._call({"cmd": "stats", "session": session})

    def close(self) -> None:
        self._server.scheduler.stop()


class _TcpDriver(_ServeDriver):
    """A real serve_tcp loop on an ephemeral port, driven over a socket."""

    name = "tcp"

    def __init__(self):
        from ..api.serve import SessionServer, serve_tcp

        self._server = SessionServer()
        self._next_id = 0
        ready = threading.Event()
        self._thread = threading.Thread(
            target=serve_tcp,
            args=("127.0.0.1", 0, self._server, ready),
            daemon=True,
        )
        self._thread.start()
        if not ready.wait(timeout=10.0):
            raise ScenarioError("TCP serve loop failed to start within 10s")
        self._conn = socket.create_connection(
            ("127.0.0.1", self._server.tcp_port), timeout=60.0
        )
        self._stream = self._conn.makefile("rw", encoding="utf-8", newline="\n")

    def _send(self, line: str) -> Dict[str, object]:
        self._stream.write(line + "\n")
        self._stream.flush()
        answer = self._stream.readline()
        if not answer:
            raise ScenarioError("TCP serve loop closed the connection")
        return json.loads(answer)

    def close(self) -> None:
        try:
            self._next_id += 1
            self._stream.write(
                json.dumps({"v": 1, "id": self._next_id, "cmd": "shutdown"})
                + "\n"
            )
            self._stream.flush()
            self._stream.readline()
        except OSError:
            pass
        finally:
            self._stream.close()
            self._conn.close()
            self._thread.join(timeout=10.0)


_DRIVERS = {
    "engine": _EngineDriver,
    "serve": _ServeDriver,
    "tcp": _TcpDriver,
}


# --------------------------------------------------------------------------- #
# The replay loop
# --------------------------------------------------------------------------- #
def _step_ops(step: TraceStep):
    from ..api.messages import MutationOp

    ops = []
    if step.append_rows is not None and step.append_rows.shape[0]:
        ops.append(MutationOp.append(step.append_rows))
    if step.update_targets is not None and len(step.update_targets):
        ops.extend(
            MutationOp.update(int(target), row)
            for target, row in zip(step.update_targets, step.update_rows)
        )
    if step.delete_targets is not None and len(step.delete_targets):
        ops.append(MutationOp.delete(step.delete_targets))
    return ops


def _apply_shadow(shadow: np.ndarray, step: TraceStep) -> np.ndarray:
    """Mirror the step's mutations on the replayer's shadow store."""
    if step.append_rows is not None and step.append_rows.shape[0]:
        shadow = np.vstack([shadow, step.append_rows])
    if step.update_targets is not None and len(step.update_targets):
        shadow[step.update_targets] = step.update_rows
    if step.delete_targets is not None and len(step.delete_targets):
        keep = np.ones(shadow.shape[0], dtype=bool)
        keep[step.delete_targets] = False
        shadow = shadow[keep]
    if shadow.shape[0] != step.n_store:
        raise ScenarioError(
            f"shadow store drifted from the trace at step {step.index}: "
            f"{shadow.shape[0]} rows vs recorded n_store={step.n_store}"
        )
    return shadow


def _resolve_spec(spec_or_name: Union[str, ScenarioSpec]) -> ScenarioSpec:
    if isinstance(spec_or_name, ScenarioSpec):
        return spec_or_name
    from . import registry

    return registry.get(spec_or_name)


def _maybe_check_digest(spec: ScenarioSpec, trace: ScenarioTrace,
                        check_digest) -> bool:
    """Verify the trace digest against the checked-in golden pin.

    Only enforced when the spec *is* the registered spec of that name
    (a caller's custom spec reusing a built-in name must not be held to
    the built-in's digest) and ``check_digest`` is true.
    """
    if not check_digest:
        return False
    from . import registry

    golden = registry.golden_digest(spec.name)
    if golden is None:
        return False
    try:
        registered = registry.get(spec.name)
    except ScenarioError:
        return False
    if registered.canonical_json() != spec.canonical_json():
        return False
    actual = trace.digest()
    if actual != golden:
        raise ScenarioError(
            f"scenario {spec.name!r} drifted from its golden trace: "
            f"digest {actual} != checked-in {golden}; if the generator "
            f"change is intentional, regenerate golden_digests.json"
        )
    return True


def replay(
    spec_or_name: Union[str, ScenarioSpec],
    *,
    transport: Optional[str] = None,
    verify: bool = True,
    run_cold: bool = True,
    check_digest: bool = True,
    isolate_obs: bool = False,
) -> ReplayReport:
    """Replay a scenario and verify it against the cold-refit oracle.

    Parameters
    ----------
    spec_or_name:
        A :class:`ScenarioSpec`, or the name of a registered scenario.
    transport:
        ``"engine"``, ``"serve"``, ``"tcp"``, or ``"auto"``/``None`` (the
        :mod:`repro.config` ``scenario_transport`` knob; ``auto`` picks
        ``serve`` for multi-tenant scenarios, ``engine`` otherwise).
    verify:
        Raise :class:`ScenarioError` when any online answer diverges from
        the cold oracle beyond ``rtol=1e-9`` (requires ``run_cold``).
    run_cold:
        Also run the per-round cold refits (disable for pure latency runs;
        disables verification and leaves cold columns NaN).
    check_digest:
        Pre-check the generated trace against the checked-in golden digest
        (only applies to registered specs).
    isolate_obs:
        Reset the process-wide :mod:`repro.obs` registry before replaying,
        so the report's phase percentiles cover exactly this replay.
    """
    spec = _resolve_spec(spec_or_name)
    resolved = config.resolve("scenario_transport", transport)
    if resolved == "auto":
        resolved = "serve" if spec.generator == "multi_tenant" else "engine"

    trace = generate_trace(spec)
    digest = trace.digest()
    digest_checked = _maybe_check_digest(spec, trace, check_digest)

    if isolate_obs:
        reset_observability()

    driver = _DRIVERS[resolved]()
    report = ReplayReport(
        scenario=spec.name,
        generator=spec.generator,
        transport=resolved,
        trace_digest=digest,
        digest_checked=digest_checked,
        verified=None,
    )
    shadows: Dict[str, np.ndarray] = {}
    models = {plan.name: plan.model for plan in trace.sessions}
    all_close = True
    try:
        for plan in trace.sessions:
            driver.create(plan)
        for step in trace.steps:
            if step.kind == "fit":
                with engine_phase("scenario.fit"):
                    driver.fit(step.session, step.append_rows)
                shadows[step.session] = step.append_rows.copy()
                continue

            if step.kind == "query":
                # Statement steps never touch the complete store (their
                # APPENDs are all-incomplete → pending side-store), so the
                # shadow and the cold oracle are unaffected.
                with engine_phase("scenario.query"):
                    for statement in step.statements or []:
                        counts = driver.query(step.session, statement)
                        totals = report.query_totals
                        totals["statements"] = totals.get("statements", 0) + 1
                        for key, value in counts.items():
                            totals[key] = totals.get(key, 0) + value
                continue

            ops = _step_ops(step)
            started = time.perf_counter()
            if ops:
                with engine_phase("scenario.mutate"):
                    driver.mutate(step.session, ops)
            with engine_phase("scenario.impute"):
                online = driver.impute(step.session, step.queries)
            online_seconds = time.perf_counter() - started

            shadows[step.session] = _apply_shadow(shadows[step.session], step)
            arange = np.arange(step.queries.shape[0])
            rms_online = rms_error(step.truth, online[arange, step.blanked])

            if run_cold:
                from ..core.iim import IIMImputer

                with engine_phase("scenario.cold_refit"):
                    started = time.perf_counter()
                    oracle = IIMImputer(**models[step.session])
                    oracle.fit(Relation(shadows[step.session].copy()))
                    cold = oracle.impute(
                        Relation(step.queries.copy())
                    ).raw
                    cold_seconds = time.perf_counter() - started
                rms_cold = rms_error(step.truth, cold[arange, step.blanked])
                max_abs_diff = float(np.max(np.abs(online - cold)))
                step_close = bool(
                    np.allclose(online, cold, rtol=RTOL, atol=ATOL)
                )
                all_close = all_close and step_close
                if verify and not step_close:
                    raise ScenarioError(
                        f"scenario {spec.name!r} session {step.session!r} "
                        f"round {step.round_index}: online imputation "
                        f"diverged from the cold-refit oracle "
                        f"(max |diff| = {max_abs_diff:.3e}, rtol={RTOL})"
                    )
            else:
                cold_seconds = float("nan")
                rms_cold = float("nan")
                max_abs_diff = float("nan")

            report.steps.append(
                StepReport(
                    index=step.index,
                    session=step.session,
                    round_index=step.round_index,
                    n_store=step.n_store,
                    n_appended=(
                        0 if step.append_rows is None
                        else int(step.append_rows.shape[0])
                    ),
                    n_updated=(
                        0 if step.update_targets is None
                        else int(len(step.update_targets))
                    ),
                    n_deleted=(
                        0 if step.delete_targets is None
                        else int(len(step.delete_targets))
                    ),
                    n_queries=step.queries.shape[0],
                    online_seconds=online_seconds,
                    cold_seconds=cold_seconds,
                    rms_online=rms_online,
                    rms_cold=rms_cold,
                    max_abs_diff=max_abs_diff,
                )
            )
        for plan in trace.sessions:
            report.session_stats[plan.name] = driver.stats(plan.name)
    finally:
        driver.close()

    if run_cold:
        report.verified = all_close
    for labels in ENGINE_PHASE_SECONDS.series_labels():
        report.phase_summaries[labels["phase"]] = (
            ENGINE_PHASE_SECONDS.summary(**labels)
        )
    return report
