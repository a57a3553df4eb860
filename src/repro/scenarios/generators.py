"""Deterministic trace generators: ``(generator, params, seed) → trace``.

Every generator maps a validated :class:`~repro.scenarios.spec.ScenarioSpec`
to a :class:`ScenarioTrace` — a fully materialised event sequence (initial
fit, then rounds of appends/updates/deletes followed by imputation queries
with known ground truth).  Generation is pure: the only randomness source
is ``numpy.random.default_rng(seed)``, every array is materialised eagerly,
and :meth:`ScenarioTrace.to_bytes` is a canonical serialization, so the
same spec yields byte-identical traces on every machine (golden digests in
``golden_digests.json`` pin this down per built-in scenario).

The ``streaming`` and ``churn`` generators are the streaming and churn
harness of the online benchmarks.  Their ``steady`` arrival + ``mcar``
missingness paths consume the rng in *exactly* the order of the legacy
hand-written harnesses (query-row choice, then blanked-cell draw; churn
adds update-target choice, update-noise normals and delete-target choice
in between), so replaying their specs changes no historical number
(pinned in ``tests/scenarios/test_wrapper_equivalence.py``).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..data import load_dataset
from ..exceptions import ScenarioError
from .spec import ScenarioSpec

__all__ = [
    "TRACE_FORMAT_VERSION",
    "resolve_model_params",
    "TraceStep",
    "SessionPlan",
    "ScenarioTrace",
    "generate_trace",
]

#: Bump when the canonical trace serialization changes (invalidates all
#: golden digests, which is the point).
TRACE_FORMAT_VERSION = 1


@dataclass
class TraceStep:
    """One event in a trace: the initial fit, or one mutation+query round.

    For ``kind == "fit"`` only ``append_rows`` (the initial store) and
    ``n_store`` are set.  For ``kind == "round"`` the arrays describe, in
    application order: append ``append_rows``, overwrite ``update_targets``
    with ``update_rows`` (indices into the post-append store), delete
    ``delete_targets`` (sorted indices into the post-append store), then
    impute ``queries`` (one NaN per row at ``blanked``; ``truth`` holds the
    ground-truth values).  ``n_store`` is the surviving store size after
    all three mutations.

    ``kind == "query"`` steps (the ``analytic`` generator) carry only
    ``statements`` — query-language text executed in order through the
    transport's ``query`` verb.  Their ``APPEND`` rows are all incomplete
    (every row has a ``?``), so they land in the pending side-store and
    never perturb the complete store the cold-refit oracle mirrors;
    ``SELECT`` statements impute referenced missing cells on demand
    without mutating anything.
    """

    index: int
    session: str
    kind: str  # "fit" | "round" | "query"
    round_index: int
    n_store: int
    append_rows: Optional[np.ndarray] = None
    update_targets: Optional[np.ndarray] = None
    update_rows: Optional[np.ndarray] = None
    delete_targets: Optional[np.ndarray] = None
    queries: Optional[np.ndarray] = None
    blanked: Optional[np.ndarray] = None
    truth: Optional[np.ndarray] = None
    statements: Optional[List[str]] = None


@dataclass
class SessionPlan:
    """Per-session setup: name, schema width and engine/model parameters."""

    name: str
    width: int
    model: Dict[str, object] = field(default_factory=dict)
    engine: Dict[str, object] = field(default_factory=dict)


_STEP_ARRAYS = (
    ("append_rows", "<f8"),
    ("update_targets", "<i8"),
    ("update_rows", "<f8"),
    ("delete_targets", "<i8"),
    ("queries", "<f8"),
    ("blanked", "<i8"),
    ("truth", "<f8"),
)


@dataclass
class ScenarioTrace:
    """A fully materialised scenario: spec + session plans + event steps."""

    spec: ScenarioSpec
    sessions: List[SessionPlan]
    steps: List[TraceStep]

    def to_bytes(self) -> bytes:
        """Canonical serialization: header JSON, then per-step meta+arrays.

        Arrays are emitted as contiguous little-endian ``f8``/``i8`` bytes
        with shapes recorded in the step meta, so equality of ``to_bytes``
        is exact equality of every number in the trace (NaNs included).
        """
        header = {
            "format": TRACE_FORMAT_VERSION,
            "spec": self.spec.to_dict(),
            "sessions": [
                {
                    "name": plan.name,
                    "width": plan.width,
                    "model": plan.model,
                    "engine": plan.engine,
                }
                for plan in self.sessions
            ],
            "n_steps": len(self.steps),
        }
        chunks = [
            json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        ]
        for step in self.steps:
            meta = {
                "index": step.index,
                "session": step.session,
                "kind": step.kind,
                "round_index": step.round_index,
                "n_store": step.n_store,
                "shapes": {
                    name: (
                        None
                        if getattr(step, name) is None
                        else list(np.asarray(getattr(step, name)).shape)
                    )
                    for name, _ in _STEP_ARRAYS
                },
            }
            # Additive: absent for array-only steps, so every pre-existing
            # golden digest is untouched by the statement extension.
            if step.statements is not None:
                meta["statements"] = list(step.statements)
            chunks.append(
                b"\n"
                + json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
            )
            for name, dtype in _STEP_ARRAYS:
                array = getattr(step, name)
                if array is not None:
                    chunks.append(
                        np.ascontiguousarray(array, dtype=dtype).tobytes()
                    )
        return b"".join(chunks)

    def digest(self) -> str:
        """SHA-256 hex digest of :meth:`to_bytes` (the golden-trace pin)."""
        return hashlib.sha256(self.to_bytes()).hexdigest()

    @property
    def n_rounds(self) -> int:
        return sum(1 for step in self.steps if step.kind == "round")


# --------------------------------------------------------------------------- #
# Arrival processes
# --------------------------------------------------------------------------- #
def _legacy_batches(remaining: int, n_rounds: int, n_total: int) -> List[int]:
    """The legacy steady split: equal batches, remainder on the last round."""
    batch = remaining // n_rounds
    if batch < 1:
        raise ScenarioError(
            f"{n_rounds} rounds do not fit into {remaining} remaining tuples"
        )
    counts = [batch] * n_rounds
    counts[-1] = remaining - batch * (n_rounds - 1)
    return counts


def _allocate(total: int, weights: List[float]) -> List[int]:
    """Largest-remainder allocation of ``total`` items over ``weights``.

    Deterministic (stable argsort tie-break) and floored at one item per
    slot, so every round appends at least one tuple.
    """
    weights_arr = np.asarray(weights, dtype=float)
    shares = weights_arr / weights_arr.sum() * total
    counts = np.floor(shares).astype(np.int64)
    fractional = shares - counts
    leftover = total - int(counts.sum())
    order = np.argsort(-fractional, kind="stable")
    for position in range(leftover):
        counts[order[position % len(counts)]] += 1
    # Min-1 fixup: move items from the fullest rounds into empty ones.
    while (counts == 0).any():
        counts[int(np.argmax(counts == 0))] += 1
        counts[int(np.argmax(counts))] -= 1
    return [int(c) for c in counts]


def _arrival_batches(params: Dict[str, object], remaining: int,
                     n_total: int) -> List[int]:
    arrival = params["arrival"]
    n_rounds = params["n_rounds"]
    if remaining < n_rounds:
        raise ScenarioError(
            f"{n_rounds} rounds do not fit into {remaining} remaining tuples"
        )
    if arrival in ("steady", "adversarial"):
        # Adversarial churn keeps steady appends; the storms hit the
        # update/delete schedule instead.
        return _legacy_batches(remaining, n_rounds, n_total)
    if arrival == "bursty":
        weights = [
            params["burst_factor"]
            if t % params["burst_every"] == params["burst_every"] - 1
            else 1.0
            for t in range(n_rounds)
        ]
    else:  # diurnal
        weights = [
            1.0
            + params["amplitude"]
            * math.sin(2.0 * math.pi * t / params["period"])
            for t in range(n_rounds)
        ]
    return _allocate(remaining, weights)


# --------------------------------------------------------------------------- #
# Missingness regimes
# --------------------------------------------------------------------------- #
def _choose_blanked(rng, store: np.ndarray, queries: np.ndarray,
                    params: Dict[str, object], round_index: int) -> np.ndarray:
    """Pick the cell that goes missing in each query row.

    * ``mcar`` — uniform random attribute (the legacy draw), optionally
      rotated by ``drift`` per round;
    * ``mar`` — depends on the *observed* driver attribute (column 0):
      rows whose driver exceeds the store median blank one non-driver
      column, the rest another, with the column pair rotating under drift;
    * ``mnar`` — depends on the value that goes missing itself: the cell
      with the largest drift-weighted |z|-score is blanked.
    """
    regime = params["missingness"]
    drift = params["drift"]
    n_queries, width = queries.shape
    if regime == "mcar":
        raw = rng.integers(0, width, size=n_queries)
        if drift:
            raw = (raw + int(round(drift * round_index))) % width
        return raw
    if width < 2:
        raise ScenarioError(
            f"missingness regime {regime!r} needs at least 2 attributes, "
            f"got width {width}"
        )
    if regime == "mar":
        driver = 0
        median = float(np.median(store[:, driver]))
        non_driver = [c for c in range(width) if c != driver]
        rotation = int(drift * round_index)
        hi_col = non_driver[rotation % len(non_driver)]
        lo_col = non_driver[(rotation + 1) % len(non_driver)]
        return np.where(
            queries[:, driver] > median, hi_col, lo_col
        ).astype(np.int64)
    # mnar: the magnitude of the missing value decides that it is missing.
    means = store.mean(axis=0)
    stds = store.std(axis=0)
    stds[stds == 0] = 1.0
    z_scores = np.abs(queries - means[None, :]) / stds[None, :]
    column_weights = np.ones(width)
    column_weights[int(drift * round_index) % width] += drift
    return np.argmax(z_scores * column_weights[None, :], axis=1).astype(np.int64)


def _draw_queries(store, rng, params, round_index):
    """Legacy-ordered query sampling: row choice, OOD shift, cell blanking."""
    n_queries = params["queries_per_round"]
    n_store, _ = store.shape
    if n_queries > n_store:
        raise ScenarioError(
            f"queries_per_round={n_queries} exceeds the store size "
            f"{n_store} in round {round_index}"
        )
    query_rows = rng.choice(n_store, size=n_queries, replace=False)
    queries = store[query_rows].copy()
    if params["query_mode"] == "ood":
        stds = store.std(axis=0)
        stds[stds == 0] = 1.0
        queries = queries + params["ood_shift"] * stds[None, :]
    blanked = _choose_blanked(rng, store, queries, params, round_index)
    truth = queries[np.arange(n_queries), blanked].copy()
    queries[np.arange(n_queries), blanked] = np.nan
    return queries, blanked, truth


# --------------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------------- #
def _session_name(spec: ScenarioSpec) -> str:
    from ..api.messages import SESSION_NAME_PATTERN

    return spec.name if SESSION_NAME_PATTERN.match(spec.name) else "scenario"


def resolve_model_params(model: Dict[str, object]) -> Dict[str, object]:
    """Expand ``model`` to the complete, explicit IIM parameter set.

    The serve loop's ``create`` fills omitted model parameters with the
    *curated paper defaults* of the method registry, while a direct
    :class:`~repro.api.sessions.OnlineSession` (and the cold-refit oracle)
    uses the :class:`~repro.core.iim.IIMImputer` constructor defaults —
    two different answers for the same spec.  Session plans therefore pin
    every constructor parameter explicitly (constructor defaults unless
    the spec overrides them), so every transport and the oracle build the
    exact same model.
    """
    import inspect

    from ..core.iim import IIMImputer

    resolved = {
        name: parameter.default
        for name, parameter in
        inspect.signature(IIMImputer.__init__).parameters.items()
        if name != "self"
    }
    resolved.update(model)
    return resolved


def _load_values(params: Dict[str, object]) -> np.ndarray:
    relation = load_dataset(params["dataset"], size=params["size"])
    return relation.raw


def _initial_split(values: np.ndarray, params: Dict[str, object]) -> int:
    n_total = values.shape[0]
    initial = int(n_total * params["initial_fraction"])
    if initial < 2 or initial >= n_total:
        raise ScenarioError(
            f"initial_fraction={params['initial_fraction']} leaves no room "
            f"for appends on {n_total} tuples"
        )
    return initial


def _generate_streaming(spec: ScenarioSpec) -> ScenarioTrace:
    params = spec.params
    if params["arrival"] == "adversarial":
        raise ScenarioError(
            "arrival='adversarial' shapes update/delete storms and is "
            "churn-only; use generator='churn'"
        )
    values = _load_values(params)
    n_total, width = values.shape
    initial = _initial_split(values, params)
    batches = _arrival_batches(params, n_total - initial, n_total)

    rng = np.random.default_rng(spec.seed)
    session = _session_name(spec)
    steps = [
        TraceStep(
            index=0,
            session=session,
            kind="fit",
            round_index=-1,
            n_store=initial,
            append_rows=values[:initial].copy(),
        )
    ]
    offset = initial
    for round_index, batch in enumerate(batches):
        stop = offset + batch
        # Queries sample the store as it stands *before* this round's
        # append — the legacy ordering, preserved for wrapper equivalence.
        queries, blanked, truth = _draw_queries(
            values[:offset], rng, params, round_index
        )
        steps.append(
            TraceStep(
                index=len(steps),
                session=session,
                kind="round",
                round_index=round_index,
                n_store=stop,
                append_rows=values[offset:stop].copy(),
                queries=queries,
                blanked=blanked,
                truth=truth,
            )
        )
        offset = stop
    return ScenarioTrace(
        spec=spec,
        sessions=[
            SessionPlan(
                name=session, width=width,
                model=resolve_model_params(spec.model),
                engine=dict(spec.engine),
            )
        ],
        steps=steps,
    )


def _storm_scale(params: Dict[str, object], round_index: int) -> float:
    if params["arrival"] != "adversarial":
        return 1.0
    if round_index % params["storm_every"] == params["storm_every"] - 1:
        return params["storm_factor"]
    return 1.0


def _generate_churn(spec: ScenarioSpec) -> ScenarioTrace:
    params = spec.params
    values = _load_values(params)
    n_total, width = values.shape
    initial = _initial_split(values, params)
    batches = _arrival_batches(params, n_total - initial, n_total)

    rng = np.random.default_rng(spec.seed)
    session = _session_name(spec)
    store = values[:initial].copy()
    column_stds = values.std(axis=0)
    column_stds[column_stds == 0] = 1.0

    steps = [
        TraceStep(
            index=0,
            session=session,
            kind="fit",
            round_index=-1,
            n_store=initial,
            append_rows=store.copy(),
        )
    ]
    offset = initial
    for round_index, batch in enumerate(batches):
        stop = offset + batch
        append_block = values[offset:stop]
        scale = _storm_scale(params, round_index)

        n_updates = min(
            int(round(params["updates_per_round"] * scale)), store.shape[0]
        )
        update_targets = rng.choice(
            store.shape[0], size=n_updates, replace=False
        )
        update_rows = store[update_targets] + params[
            "update_noise"
        ] * column_stds[None, :] * rng.standard_normal(
            (n_updates, store.shape[1])
        )

        store = np.vstack([store, append_block])
        store[update_targets] = update_rows

        n_deletes = min(
            int(round(params["deletes_per_round"] * scale)),
            store.shape[0] - 2,
        )
        delete_targets = np.sort(
            rng.choice(store.shape[0], size=n_deletes, replace=False)
        )
        keep = np.ones(store.shape[0], dtype=bool)
        keep[delete_targets] = False
        surviving = store[keep]

        queries, blanked, truth = _draw_queries(
            surviving, rng, params, round_index
        )
        steps.append(
            TraceStep(
                index=len(steps),
                session=session,
                kind="round",
                round_index=round_index,
                n_store=surviving.shape[0],
                append_rows=append_block.copy(),
                update_targets=update_targets.astype(np.int64),
                update_rows=update_rows,
                delete_targets=delete_targets.astype(np.int64),
                queries=queries,
                blanked=blanked,
                truth=truth,
            )
        )
        store = surviving
        offset = stop
    return ScenarioTrace(
        spec=spec,
        sessions=[
            SessionPlan(
                name=session, width=width,
                model=resolve_model_params(spec.model),
                engine=dict(spec.engine),
            )
        ],
        steps=steps,
    )


def _append_statement(rows: np.ndarray) -> str:
    """Render rows as an ``APPEND VALUES`` statement (NaN cells as ``?``)."""
    rendered = []
    for row in rows:
        cells = ["?" if np.isnan(v) else repr(float(v)) for v in row]
        rendered.append("(" + ", ".join(cells) + ")")
    return "APPEND VALUES " + ", ".join(rendered) + ";"


def _generate_analytic(spec: ScenarioSpec) -> ScenarioTrace:
    """Streaming rounds interleaved with relational query steps.

    The base trace is exactly :func:`_generate_streaming` (same rng
    consumption, so the impute rounds verify against the cold oracle like
    any streaming scenario).  After every round a ``kind == "query"`` step
    runs statement text through the transport's ``query`` verb: an
    ``APPEND`` of incomplete tuples (``?`` literals — they park in the
    pending side-store), a few ``SELECT``\\ s with ``WHERE``/``ORDER
    BY``/``LIMIT`` whose referenced missing cells are imputed on demand,
    one aggregate, and periodically an ``EXPLAIN``.  Statement randomness
    comes from a *separate* seeded stream so the base rounds stay
    byte-compatible with plain streaming parameters.
    """
    base = _generate_streaming(spec)
    params = spec.params
    values = _load_values(params)
    width = values.shape[1]
    names = [f"A{i + 1}" for i in range(width)]
    rng = np.random.default_rng([spec.seed, TRACE_FORMAT_VERSION])

    steps: List[TraceStep] = []
    session = base.sessions[0].name
    for step in base.steps:
        step.index = len(steps)
        steps.append(step)
        if step.kind != "round":
            continue
        statements: List[str] = []
        n_incomplete = params["incomplete_per_round"]
        if n_incomplete:
            rows = values[
                rng.choice(step.n_store, size=n_incomplete, replace=False)
            ].copy()
            holes = rng.integers(0, width, size=n_incomplete)
            rows[np.arange(n_incomplete), holes] = np.nan
            statements.append(_append_statement(rows))
        for _ in range(params["selects_per_round"]):
            first, second = (
                names[int(i)] for i in rng.integers(0, width, size=2)
            )
            threshold = float(
                values[: step.n_store, names.index(first)].mean()
            )
            statements.append(
                f"SELECT {first}, {second} WHERE {first} >= {threshold!r} "
                f"ORDER BY {second} DESC LIMIT {params['select_limit']};"
            )
        statements.append(
            f"SELECT count(*), avg({names[int(rng.integers(width))]});"
        )
        if step.round_index % 2 == 1:
            statements.append(
                f"EXPLAIN SELECT {names[0]} ORDER BY {names[-1]} "
                f"LIMIT {params['select_limit']};"
            )
        steps.append(
            TraceStep(
                index=len(steps),
                session=session,
                kind="query",
                round_index=step.round_index,
                n_store=step.n_store,
                statements=statements,
            )
        )
    return ScenarioTrace(spec=spec, sessions=base.sessions, steps=steps)


def _generate_multi_tenant(spec: ScenarioSpec) -> ScenarioTrace:
    from .registry import get as registry_get

    sessions: List[SessionPlan] = []
    tenant_traces: List[ScenarioTrace] = []
    for position, tenant in enumerate(spec.params["tenants"]):
        base = registry_get(tenant["scenario"])
        if base.generator == "multi_tenant":
            raise ScenarioError(
                f"tenants[{position}] composes {tenant['scenario']!r}, "
                f"which is itself multi_tenant; nesting is not supported"
            )
        child = ScenarioSpec(
            name=tenant["name"],
            generator=base.generator,
            params={**base.params, **tenant.get("overrides", {})},
            model={**base.model, **spec.model, **tenant.get("model", {})},
            engine={**base.engine, **spec.engine, **tenant.get("engine", {})},
            seed=tenant.get("seed", spec.seed + position),
            description=base.description,
        )
        trace = generate_trace(child)
        tenant_traces.append(trace)
        plan = trace.sessions[0]
        sessions.append(
            SessionPlan(
                name=tenant["name"], width=plan.width,
                model=plan.model, engine=plan.engine,
            )
        )

    # Interleave: every tenant fits first (spec order), then rounds are
    # replayed round-robin — the arrival order a concurrent serve loop
    # would actually see.
    steps: List[TraceStep] = []
    for trace, plan in zip(tenant_traces, sessions):
        for step in trace.steps:
            if step.kind == "fit":
                step.session = plan.name
                step.index = len(steps)
                steps.append(step)
    max_rounds = max(trace.n_rounds for trace in tenant_traces)
    for round_index in range(max_rounds):
        for trace, plan in zip(tenant_traces, sessions):
            for step in trace.steps:
                # "query" steps (analytic tenants) ride with their round.
                if (
                    step.kind in ("round", "query")
                    and step.round_index == round_index
                ):
                    step.session = plan.name
                    step.index = len(steps)
                    steps.append(step)
    return ScenarioTrace(spec=spec, sessions=sessions, steps=steps)


_GENERATOR_FUNCS = {
    "streaming": _generate_streaming,
    "churn": _generate_churn,
    "analytic": _generate_analytic,
    "multi_tenant": _generate_multi_tenant,
}


def generate_trace(spec: ScenarioSpec) -> ScenarioTrace:
    """Materialise ``spec`` into its deterministic event trace."""
    if spec.generator not in _GENERATOR_FUNCS:
        raise ScenarioError(
            f"unknown generator {spec.generator!r}; available generators: "
            f"{sorted(_GENERATOR_FUNCS)}"
        )
    return _GENERATOR_FUNCS[spec.generator](spec)
