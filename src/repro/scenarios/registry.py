"""The scenario registry: named, versioned, enumerable workload specs.

The registry is the coverage surface CI iterates over: ``list()`` the
names, ``get()`` a spec, ``replay()`` it (see
:mod:`repro.scenarios.replayer`).  Built-ins span the generator parameter
space — arrival processes (steady/bursty/diurnal/adversarial), missingness
regimes (MCAR/MAR/MNAR with drift), OOD query shift, fixed vs. adaptive
learning, gentle vs. storm churn, and a multi-tenant mix composing three
single-tenant specs — each small enough to smoke-replay in seconds.

Every built-in has a checked-in golden trace digest
(``golden_digests.json``); :func:`golden_digest` exposes them so tests and
the replayer can catch accidental generator drift.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from ..exceptions import ScenarioError
from .spec import ScenarioSpec

__all__ = [
    "register",
    "get",
    "list",
    "builtin_names",
    "golden_digest",
    "golden_digests",
    "registry",
]

_GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

#: Shared model parameters of the built-ins: small enough that every
#: scenario replays (online + cold oracle per round) in seconds, large
#: enough that the adaptive learning phase and the model cache do real work.
_SMOKE_MODEL = {"k": 5, "stepping": 10, "max_learning_neighbors": 15}

_REGISTRY: Dict[str, ScenarioSpec] = {}
_BUILTIN_NAMES: List[str] = []


def register(spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
    """Add ``spec`` to the registry; ``replace=True`` overwrites."""
    if not isinstance(spec, ScenarioSpec):
        raise ScenarioError(
            f"only ScenarioSpec instances can be registered, got {spec!r}"
        )
    if spec.name in _REGISTRY and not replace:
        raise ScenarioError(
            f"scenario {spec.name!r} is already registered; pass "
            f"replace=True to overwrite"
        )
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r}; registered scenarios: {list()}"
        ) from None


def list() -> List[str]:  # noqa: A001 - mirrors the registry.list() surface
    """Sorted names of every registered scenario."""
    return sorted(_REGISTRY)


def builtin_names() -> List[str]:
    """Names of the built-in scenarios, in registration order."""
    return _BUILTIN_NAMES.copy()


def golden_digests() -> Dict[str, str]:
    """The checked-in ``name → sha256`` golden trace digests."""
    if not _GOLDEN_PATH.exists():
        return {}
    with open(_GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def golden_digest(name: str) -> Optional[str]:
    """The checked-in digest for ``name`` (None when not pinned)."""
    return golden_digests().get(name)


class _Registry:
    """Object facade (``registry.list()/get()/register()``) over the module."""

    list = staticmethod(list)
    get = staticmethod(get)
    register = staticmethod(register)
    builtin_names = staticmethod(builtin_names)
    golden_digest = staticmethod(golden_digest)
    golden_digests = staticmethod(golden_digests)


registry = _Registry()


def _builtin(spec: ScenarioSpec) -> ScenarioSpec:
    register(spec)
    _BUILTIN_NAMES.append(spec.name)
    return spec


# --------------------------------------------------------------------------- #
# Built-in scenarios
# --------------------------------------------------------------------------- #
_builtin(ScenarioSpec(
    name="steady_stream",
    description="Append-only baseline: steady arrivals, MCAR queries over "
                "the paper's SN curve.",
    generator="streaming",
    params={"dataset": "sn", "size": 220, "n_rounds": 4,
            "queries_per_round": 8},
    model=dict(_SMOKE_MODEL),
    seed=0,
))

_builtin(ScenarioSpec(
    name="bursty_stream",
    description="Bursty arrivals: every second round carries a 3x append "
                "burst, stressing the slot-diff replay and cache refresh.",
    generator="streaming",
    params={"dataset": "sn", "size": 220, "n_rounds": 4,
            "queries_per_round": 8, "arrival": "bursty",
            "burst_every": 2, "burst_factor": 3.0},
    model=dict(_SMOKE_MODEL),
    seed=1,
))

_builtin(ScenarioSpec(
    name="diurnal_stream",
    description="Diurnal arrivals on the heterogeneous ASF table: batch "
                "sizes follow a sine with 80% modulation depth.",
    generator="streaming",
    params={"dataset": "asf", "size": 220, "n_rounds": 4,
            "queries_per_round": 8, "arrival": "diurnal",
            "period": 4, "amplitude": 0.8},
    model=dict(_SMOKE_MODEL),
    seed=2,
))

_builtin(ScenarioSpec(
    name="ood_probe",
    description="Out-of-distribution probe: queries shifted 2.5 column "
                "stds off the training support before a cell is blanked.",
    generator="streaming",
    params={"dataset": "sn", "size": 220, "n_rounds": 4,
            "queries_per_round": 8, "query_mode": "ood", "ood_shift": 2.5},
    model=dict(_SMOKE_MODEL),
    seed=3,
))

_builtin(ScenarioSpec(
    name="mar_missingness_drift",
    description="MAR with drift: which column is missing depends on the "
                "observed driver attribute, and the column pair rotates "
                "one step per round.",
    generator="streaming",
    params={"dataset": "asf", "size": 220, "n_rounds": 4,
            "queries_per_round": 8, "missingness": "mar", "drift": 1.0},
    model=dict(_SMOKE_MODEL),
    seed=4,
))

_builtin(ScenarioSpec(
    name="mnar_missingness_drift",
    description="MNAR with drift on the sparse CA table: the most extreme "
                "drift-weighted cell of each query goes missing.",
    generator="streaming",
    params={"dataset": "ca", "size": 220, "n_rounds": 4,
            "queries_per_round": 8, "missingness": "mnar", "drift": 0.5},
    model=dict(_SMOKE_MODEL),
    seed=5,
))

_builtin(ScenarioSpec(
    name="fixed_learning_stream",
    description="Fixed learning phase (learning_neighbors pinned to k) on "
                "steady arrivals — the paper's non-adaptive ablation.",
    generator="streaming",
    params={"dataset": "sn", "size": 220, "n_rounds": 4,
            "queries_per_round": 8},
    model={**_SMOKE_MODEL, "learning": "fixed", "learning_neighbors": 5},
    seed=6,
))

_builtin(ScenarioSpec(
    name="gentle_churn",
    description="Full-lifecycle baseline: every round appends, corrects 3 "
                "tuples in place and retracts 4 before the queries.",
    generator="churn",
    params={"dataset": "sn", "size": 220, "n_rounds": 4,
            "queries_per_round": 8, "updates_per_round": 3,
            "deletes_per_round": 4},
    model=dict(_SMOKE_MODEL),
    seed=7,
))

_builtin(ScenarioSpec(
    name="adversarial_churn",
    description="Adversarial churn: steady appends with 4x update/delete "
                "storms every third round, the incremental refresh's "
                "worst case.",
    generator="churn",
    params={"dataset": "sn", "size": 220, "n_rounds": 4,
            "queries_per_round": 8, "arrival": "adversarial",
            "updates_per_round": 3, "deletes_per_round": 4,
            "storm_every": 3, "storm_factor": 4.0},
    model=dict(_SMOKE_MODEL),
    seed=8,
))

_builtin(ScenarioSpec(
    name="analytic_probe",
    description="Relational probe: streaming rounds interleaved with "
                "query-language steps — APPENDs of incomplete tuples ('?' "
                "literals parking in the pending side-store) followed by "
                "SELECT/aggregate/EXPLAIN statements whose referenced "
                "missing cells are imputed on demand.",
    generator="analytic",
    params={"dataset": "sn", "size": 220, "n_rounds": 4,
            "queries_per_round": 8, "selects_per_round": 3,
            "incomplete_per_round": 2},
    model=dict(_SMOKE_MODEL),
    seed=10,
))

_builtin(ScenarioSpec(
    name="multi_tenant_mix",
    description="Three concurrent tenants — a steady streamer, an OOD "
                "prober and a gentle churner — interleaved round-robin "
                "through one serve loop.",
    generator="multi_tenant",
    params={"tenants": [
        {"name": "tenant-steady", "scenario": "steady_stream"},
        {"name": "tenant-ood", "scenario": "ood_probe",
         "overrides": {"queries_per_round": 6}},
        {"name": "tenant-churn", "scenario": "gentle_churn",
         "overrides": {"deletes_per_round": 3}, "seed": 99},
    ]},
    seed=9,
))
