"""Declarative scenario specs: ``(generator, params, seed) → trace``.

A :class:`ScenarioSpec` is the unit of the scenario subsystem: a named,
versioned, JSON-serializable description of a workload.  It carries

* ``generator`` — which trace generator to run (one of :data:`GENERATORS`);
* ``params`` — the generator's parameters, validated eagerly against the
  generator's :data:`parameter schema <GENERATOR_SCHEMAS>` (unknown keys,
  wrong types and out-of-range values are rejected; omitted keys are
  filled with their schema defaults so the canonical form is complete);
* ``model`` — :class:`~repro.core.iim.IIMImputer` constructor parameters,
  used for both the online engine under test and the cold-refit oracle;
* ``engine`` — online-session knobs (a subset of
  :data:`~repro.config.ENGINE_KNOBS`), exactly the ``engine`` field
  of a serve-loop ``create`` request;
* ``seed`` — the single integer that, together with the generator and
  params, fully determines the trace byte for byte.

Specs round-trip losslessly through JSON (:meth:`to_json` /
:meth:`from_json`), and :meth:`canonical_json` (sorted keys, no
whitespace) is the stable prefix of the trace serialization that golden
digests are computed over.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..config import ENGINE_KNOBS
from ..exceptions import ScenarioError

__all__ = [
    "GENERATORS",
    "GENERATOR_SCHEMAS",
    "Param",
    "ScenarioSpec",
    "describe_schema",
]

#: Recognised trace generators (implemented in
#: :mod:`repro.scenarios.generators`).
GENERATORS = ("streaming", "churn", "analytic", "multi_tenant")

#: Arrival processes of the single-tenant generators.  ``adversarial`` is
#: churn-only: steady appends with periodic update/delete storms.
ARRIVALS = ("steady", "bursty", "diurnal", "adversarial")

#: Missingness regimes governing which query cell goes missing.
MISSINGNESS_REGIMES = ("mcar", "mar", "mnar")

#: Query sampling modes: seen tuples, or tuples shifted off-support.
QUERY_MODES = ("store", "ood")

_REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """One schema entry: type, default, and range/choice constraints."""

    types: tuple
    default: object = _REQUIRED
    choices: Optional[tuple] = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    allow_none: bool = False
    help: str = ""

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


def _int(default=_REQUIRED, *, minimum=None, maximum=None, allow_none=False,
         help=""):
    return Param((int,), default, None, minimum, maximum, allow_none, help)


def _float(default=_REQUIRED, *, minimum=None, maximum=None, help=""):
    return Param((int, float), default, None, minimum, maximum, False, help)


def _choice(choices, default=_REQUIRED, *, help=""):
    return Param((str,), default, tuple(choices), None, None, False, help)


_SINGLE_TENANT_SCHEMA: Dict[str, Param] = {
    "dataset": Param(
        (str,), "sn",
        help="registered dataset name (see repro.data.datasets), or "
        "PATH#sha256=HEX: a CSV file with a header row, pinned by the "
        "sha256 of its bytes, whose complete rows are the data",
    ),
    "size": _int(
        None, minimum=4, allow_none=True,
        help="tuples to use: the first size rows (None = the dataset's "
        "published size, or every complete row of a CSV file)",
    ),
    "n_rounds": _int(4, minimum=1, help="mutation+query rounds after the fit"),
    "initial_fraction": _float(
        0.4, minimum=0.01, maximum=0.99,
        help="fraction of the relation forming the initial store",
    ),
    "queries_per_round": _int(8, minimum=1, help="incomplete tuples per round"),
    "query_mode": _choice(
        QUERY_MODES, "store",
        help="'store' samples seen tuples, 'ood' shifts them off-support",
    ),
    "ood_shift": _float(
        2.0, minimum=0.0,
        help="shift size in per-attribute std deviations (query_mode='ood')",
    ),
    "arrival": _choice(
        ARRIVALS, "steady", help="arrival process shaping per-round batches"
    ),
    "burst_every": _int(
        2, minimum=2, help="bursty: every k-th round is a burst"
    ),
    "burst_factor": _float(
        3.0, minimum=1.0, help="bursty: burst rounds carry this weight"
    ),
    "period": _int(4, minimum=2, help="diurnal: rounds per sine period"),
    "amplitude": _float(
        0.8, minimum=0.0, maximum=0.99, help="diurnal: modulation depth"
    ),
    "missingness": _choice(
        MISSINGNESS_REGIMES, "mcar",
        help="which query cell goes missing: MCAR/MAR/MNAR",
    ),
    "drift": _float(
        0.0, minimum=0.0,
        help="per-round drift of the missingness regime (0 = stationary)",
    ),
}

_CHURN_EXTRAS: Dict[str, Param] = {
    "updates_per_round": _int(
        3, minimum=0, help="in-place corrections per round"
    ),
    "deletes_per_round": _int(4, minimum=0, help="retractions per round"),
    "update_noise": _float(
        0.05, minimum=0.0,
        help="update jitter in per-attribute std deviations",
    ),
    "storm_every": _int(
        3, minimum=2, help="adversarial: every k-th round is a churn storm"
    ),
    "storm_factor": _float(
        4.0, minimum=1.0,
        help="adversarial: storm rounds multiply updates/deletes by this",
    ),
}

_ANALYTIC_EXTRAS: Dict[str, Param] = {
    "selects_per_round": _int(
        3, minimum=1,
        help="SELECT statements per query step (WHERE/ORDER BY/LIMIT over "
             "the live relation, missing cells imputed on demand)",
    ),
    "incomplete_per_round": _int(
        2, minimum=0,
        help="incomplete tuples APPENDed (as '?' literals) per query step; "
             "they park in the pending side-store",
    ),
    "select_limit": _int(
        5, minimum=1, help="LIMIT of the generated SELECT statements"
    ),
}

#: Parameter schema per generator.  ``multi_tenant`` carries a ``tenants``
#: list whose entries are validated structurally here and resolved against
#: the registry at generation time.
GENERATOR_SCHEMAS: Dict[str, Dict[str, Param]] = {
    "streaming": dict(_SINGLE_TENANT_SCHEMA),
    "churn": {**_SINGLE_TENANT_SCHEMA, **_CHURN_EXTRAS},
    "analytic": {**_SINGLE_TENANT_SCHEMA, **_ANALYTIC_EXTRAS},
    "multi_tenant": {
        "tenants": Param(
            (list,),
            help="tenant sessions: [{'name', 'scenario', 'overrides'?, "
                 "'model'?, 'engine'?, 'seed'?}, ...]",
        ),
    },
}

#: Keys a ``tenants`` entry may carry.
_TENANT_KEYS = frozenset(
    {"name", "scenario", "overrides", "model", "engine", "seed"}
)

_JSON_SCALARS = (str, int, float, bool, type(None))


def _check_scalar_dict(mapping, what: str) -> Dict[str, object]:
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{what} must be a dict, got {mapping!r}")
    for key, value in mapping.items():
        if not isinstance(key, str):
            raise ScenarioError(f"{what} keys must be strings, got {key!r}")
        if not isinstance(value, _JSON_SCALARS):
            raise ScenarioError(
                f"{what}[{key!r}] must be a JSON scalar, got {value!r}"
            )
    return dict(mapping)


def _validate_tenants(entries) -> list:
    if not isinstance(entries, list) or not entries:
        raise ScenarioError(
            "a multi_tenant scenario needs a non-empty 'tenants' list"
        )
    from ..api.messages import SESSION_NAME_PATTERN

    seen = set()
    validated = []
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ScenarioError(
                f"tenants[{position}] must be an object, got {entry!r}"
            )
        unknown = sorted(set(entry) - _TENANT_KEYS)
        if unknown:
            raise ScenarioError(
                f"tenants[{position}] has unknown fields {unknown}; "
                f"accepted: {sorted(_TENANT_KEYS)}"
            )
        name = entry.get("name")
        if not isinstance(name, str) or not SESSION_NAME_PATTERN.match(name):
            raise ScenarioError(
                f"tenants[{position}] needs a session-safe 'name' "
                f"(matching {SESSION_NAME_PATTERN.pattern}), got {name!r}"
            )
        if name in seen:
            raise ScenarioError(f"duplicate tenant name {name!r}")
        seen.add(name)
        scenario = entry.get("scenario")
        if not isinstance(scenario, str) or not scenario:
            raise ScenarioError(
                f"tenants[{position}] needs a 'scenario' name to compose"
            )
        tenant = {"name": name, "scenario": scenario}
        if "overrides" in entry:
            tenant["overrides"] = _check_scalar_dict(
                entry["overrides"], f"tenants[{position}].overrides"
            )
        if "model" in entry:
            tenant["model"] = _check_scalar_dict(
                entry["model"], f"tenants[{position}].model"
            )
        if "engine" in entry:
            tenant["engine"] = _check_scalar_dict(
                entry["engine"], f"tenants[{position}].engine"
            )
        if "seed" in entry:
            seed = entry["seed"]
            if isinstance(seed, bool) or not isinstance(seed, int):
                raise ScenarioError(
                    f"tenants[{position}].seed must be an integer, got {seed!r}"
                )
            tenant["seed"] = seed
        validated.append(tenant)
    return validated


def _validate_params(generator: str, params: Dict[str, object]
                     ) -> Dict[str, object]:
    """Validate ``params`` against the generator schema; fill defaults.

    Returns the canonical (complete, schema-ordered) parameter dict the
    trace serialization embeds, so a future change to a schema default
    changes every affected golden digest — loudly.
    """
    schema = GENERATOR_SCHEMAS[generator]
    if not isinstance(params, dict):
        raise ScenarioError(
            f"scenario params must be a dict, got {params!r}"
        )
    unknown = sorted(set(params) - set(schema))
    if unknown:
        raise ScenarioError(
            f"unknown parameter(s) {unknown} for generator {generator!r}; "
            f"accepted: {sorted(schema)}"
        )
    canonical: Dict[str, object] = {}
    for name, param in schema.items():
        if name in params:
            value = params[name]
        elif param.required:
            raise ScenarioError(
                f"generator {generator!r} requires parameter {name!r}"
            )
        else:
            value = param.default
        if name == "tenants":
            canonical[name] = _validate_tenants(value)
            continue
        if value is None:
            if not param.allow_none:
                raise ScenarioError(
                    f"parameter {name!r} of generator {generator!r} must "
                    f"not be null"
                )
            canonical[name] = None
            continue
        if isinstance(value, bool) or not isinstance(value, param.types):
            expected = "/".join(t.__name__ for t in param.types)
            raise ScenarioError(
                f"parameter {name!r} of generator {generator!r} must be "
                f"{expected}, got {value!r}"
            )
        if param.choices is not None and value not in param.choices:
            raise ScenarioError(
                f"parameter {name!r} must be one of {list(param.choices)}, "
                f"got {value!r}"
            )
        if param.minimum is not None and value < param.minimum:
            raise ScenarioError(
                f"parameter {name!r} must be >= {param.minimum}, got {value!r}"
            )
        if param.maximum is not None and value > param.maximum:
            raise ScenarioError(
                f"parameter {name!r} must be <= {param.maximum}, got {value!r}"
            )
        canonical[name] = value
    return canonical


def _validate_model(model: Dict[str, object]) -> Dict[str, object]:
    """Model params must name real ``IIMImputer`` constructor arguments."""
    model = _check_scalar_dict(model, "scenario model params")
    import inspect

    from ..core.iim import IIMImputer

    accepted = {
        name
        for name in inspect.signature(IIMImputer.__init__).parameters
        if name != "self"
    }
    unknown = sorted(set(model) - accepted)
    if unknown:
        raise ScenarioError(
            f"unknown model parameter(s) {unknown}; IIMImputer accepts "
            f"{sorted(accepted)}"
        )
    return model


def _validate_engine(engine: Dict[str, object]) -> Dict[str, object]:
    engine = _check_scalar_dict(engine, "scenario engine knobs")
    unknown = sorted(set(engine) - set(ENGINE_KNOBS))
    if unknown:
        raise ScenarioError(
            f"unknown engine knob(s) {unknown}; accepted: {list(ENGINE_KNOBS)}"
        )
    return engine


@dataclass
class ScenarioSpec:
    """One named, versioned, JSON-serializable workload description."""

    name: str
    generator: str
    params: Dict[str, object] = field(default_factory=dict)
    model: Dict[str, object] = field(default_factory=dict)
    engine: Dict[str, object] = field(default_factory=dict)
    seed: int = 0
    version: int = 1
    description: str = ""

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ScenarioError("a scenario needs a non-empty string name")
        if self.generator not in GENERATORS:
            raise ScenarioError(
                f"unknown generator {self.generator!r}; available "
                f"generators: {list(GENERATORS)}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ScenarioError(
                f"scenario seed must be an integer, got {self.seed!r}"
            )
        if (
            isinstance(self.version, bool)
            or not isinstance(self.version, int)
            or self.version < 1
        ):
            raise ScenarioError(
                f"scenario version must be a positive integer, got "
                f"{self.version!r}"
            )
        if not isinstance(self.description, str):
            raise ScenarioError(
                f"scenario description must be a string, got "
                f"{self.description!r}"
            )
        self.params = _validate_params(self.generator, self.params)
        self.model = _validate_model(self.model)
        self.engine = _validate_engine(self.engine)

    # ------------------------------------------------------------------ #
    # JSON round-trip
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "version": self.version,
            "description": self.description,
            "generator": self.generator,
            "params": json.loads(json.dumps(self.params)),
            "model": dict(self.model),
            "engine": dict(self.engine),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScenarioSpec":
        if not isinstance(payload, dict):
            raise ScenarioError(
                f"a scenario spec must be an object, got {payload!r}"
            )
        unknown = sorted(
            set(payload)
            - {"name", "version", "description", "generator", "params",
               "model", "engine", "seed"}
        )
        if unknown:
            raise ScenarioError(f"unknown scenario spec fields: {unknown}")
        if "generator" not in payload:
            raise ScenarioError("a scenario spec needs a 'generator' field")
        return cls(
            name=payload.get("name", ""),
            generator=payload["generator"],
            params=dict(payload.get("params") or {}),
            model=dict(payload.get("model") or {}),
            engine=dict(payload.get("engine") or {}),
            seed=payload.get("seed", 0),
            version=payload.get("version", 1),
            description=payload.get("description", ""),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"malformed scenario JSON: {exc}") from exc
        return cls.from_dict(payload)

    def canonical_json(self) -> str:
        """Stable serialization (sorted keys, no whitespace) for digests."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def with_overrides(self, **overrides) -> "ScenarioSpec":
        """A copy with top-level field overrides (re-validated)."""
        payload = self.to_dict()
        payload.update(overrides)
        return ScenarioSpec.from_dict(payload)


def describe_schema(generator: str) -> Tuple[Dict[str, Dict[str, object]], ...]:
    """Human/JSON-friendly rendering of one generator's parameter schema."""
    if generator not in GENERATOR_SCHEMAS:
        raise ScenarioError(
            f"unknown generator {generator!r}; available generators: "
            f"{list(GENERATORS)}"
        )
    rows = []
    for name, param in GENERATOR_SCHEMAS[generator].items():
        row: Dict[str, object] = {
            "param": name,
            "type": "/".join(t.__name__ for t in param.types),
            "help": param.help,
        }
        if param.required:
            row["required"] = True
        else:
            row["default"] = param.default
        if param.choices is not None:
            row["choices"] = list(param.choices)
        if param.minimum is not None:
            row["min"] = param.minimum
        if param.maximum is not None:
            row["max"] = param.maximum
        rows.append(row)
    return tuple(rows)
