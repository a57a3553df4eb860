"""Streaming scenarios: append-only and full-lifecycle (churn) traces.

The paper evaluates IIM on static tables; this module drives the *online*
engine the way a production deployment would see data:

* :func:`run_streaming` — an initial store, then rounds of "a batch of new
  complete tuples arrives, then a batch of incomplete tuples must be
  imputed";
* :func:`run_churn` — the full tuple lifecycle: every round interleaves
  appends, in-place corrections (:meth:`~repro.online.OnlineImputationEngine.update`)
  and retractions (:meth:`~repro.online.OnlineImputationEngine.delete`)
  before the imputation queries, the workload the hybrid relearn policy is
  designed for.

Each round is measured twice:

* **online** — :class:`~repro.online.OnlineImputationEngine` absorbs the
  mutations incrementally and serves the queries from its warm model cache;
* **cold** — a fresh :class:`~repro.core.iim.IIMImputer` is refitted from
  scratch over the same surviving store and imputes the same queries (the
  baseline the paper's incremental computation is compared against).

Both must produce the same imputations (``rtol = 1e-9``; asserted in the
test suite); the interesting numbers are the per-round latencies and their
ratio, which ``benchmarks/test_perf_online.py`` records in
``BENCH_online.json``.

The online side is driven through the :mod:`repro.api` session protocol
(:class:`~repro.api.OnlineSession` + :class:`~repro.api.MutationOp`) — the
same surface the serve loop exposes — so these scenarios double as the
proof that the facade adds no overhead over raw engine calls
(``benchmarks/test_perf_api.py`` asserts the ratio).

Queries come in two flavours (``query_mode``): ``"store"`` samples tuples
the store has seen (the paper's setting), while ``"ood"`` shifts each
sampled tuple by ``ood_shift`` column standard deviations before blanking a
cell — an out-of-distribution trace probing how the engine serves requests
far from its training support (both sides still answer identically; the RMS
error is scored against the shifted truth).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import config
from ..data import load_dataset
from .settings import ScaleProfile, get_profile

__all__ = [
    "StreamingRound",
    "StreamingResult",
    "run_streaming",
    "ChurnRound",
    "ChurnResult",
    "run_churn",
]

QUERY_MODES = ("store", "ood")


@dataclass
class StreamingRound:
    """Latency and error of one append+query round."""

    round_index: int
    n_store: int
    n_appended: int
    n_queries: int
    online_seconds: float
    cold_seconds: float
    rms_online: float
    rms_cold: float

    @property
    def speedup(self) -> float:
        """Cold-refit time over online time for this round."""
        return self.cold_seconds / self.online_seconds


@dataclass
class StreamingResult:
    """Outcome of a full streaming replay."""

    dataset: str
    learning: str
    initial_store: int
    query_mode: str = "store"
    rounds: List[StreamingRound] = field(default_factory=list)
    engine_stats: Dict[str, int] = field(default_factory=dict)
    engine_memory: Dict[str, int] = field(default_factory=dict)

    @property
    def online_seconds(self) -> float:
        """Total online (append + impute) time across rounds."""
        return sum(r.online_seconds for r in self.rounds)

    @property
    def cold_seconds(self) -> float:
        """Total cold (refit + impute) time across rounds."""
        return sum(r.cold_seconds for r in self.rounds)

    @property
    def speedup(self) -> float:
        """Aggregate cold/online wall-clock ratio."""
        return self.cold_seconds / self.online_seconds

    @property
    def max_rms_gap(self) -> float:
        """Largest |rms_online − rms_cold| across rounds (≈ 0 by equivalence)."""
        return max(abs(r.rms_online - r.rms_cold) for r in self.rounds)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON reporting."""
        return {
            "dataset": self.dataset,
            "learning": self.learning,
            "initial_store": self.initial_store,
            "query_mode": self.query_mode,
            "online_seconds": self.online_seconds,
            "cold_seconds": self.cold_seconds,
            "speedup": self.speedup,
            "max_rms_gap": self.max_rms_gap,
            "engine_stats": dict(self.engine_stats),
            "engine_memory": dict(self.engine_memory),
            "rounds": [
                {
                    "round": r.round_index,
                    "n_store": r.n_store,
                    "n_appended": r.n_appended,
                    "n_queries": r.n_queries,
                    "online_seconds": r.online_seconds,
                    "cold_seconds": r.cold_seconds,
                    "speedup": r.speedup,
                    "rms_online": r.rms_online,
                    "rms_cold": r.rms_cold,
                }
                for r in self.rounds
            ],
        }


def run_streaming(
    dataset: str = "sn",
    profile: Optional[ScaleProfile] = None,
    size: Optional[int] = None,
    learning: str = "adaptive",
    n_rounds: int = 8,
    initial_fraction: float = 0.4,
    queries_per_round: Optional[int] = None,
    query_mode: str = "store",
    ood_shift: float = 2.0,
    refresh_policy: str = "lazy",
    model_cache_size: Optional[int] = None,
    shard_capacity="default",
    journal_capacity="default",
    random_state: int = 0,
    run_cold: bool = True,
    **iim_overrides,
) -> StreamingResult:
    """Replay ``dataset`` as a streaming trace and time online vs. cold.

    Parameters
    ----------
    dataset:
        Name of a registered dataset (sized by the profile).
    profile:
        Scale profile; defaults to :func:`~repro.experiments.get_profile`.
    size:
        Override the profile's dataset size (streaming gains grow with the
        store-to-neighbourhood ratio, so benchmarks replay more tuples than
        the static experiments do).
    learning:
        IIM learning phase for both the engine and the cold refits.
    n_rounds:
        Number of append+query rounds after the initial store.
    initial_fraction:
        Fraction of the relation used as the initial store; the remainder is
        split evenly into the per-round append batches.
    queries_per_round:
        Incomplete tuples imputed per round (default: the profile's
        ``asf_incomplete`` capped at half the initial store).
    query_mode:
        ``"store"`` samples query tuples from the cumulative store;
        ``"ood"`` additionally shifts each sampled tuple ``ood_shift``
        column standard deviations away — an out-of-distribution trace.
    ood_shift:
        Shift size (in per-attribute standard deviations) for
        ``query_mode="ood"``.
    refresh_policy:
        Engine refresh policy (``"lazy"`` or ``"eager"``).
    model_cache_size:
        Engine model cache capacity.  Defaults to ``None`` (unbounded): the
        scenario queries every attribute, so an LRU smaller than the schema
        width would evict-and-rebuild each round and measure cache churn
        instead of incremental maintenance.
    shard_capacity:
        Columnar-store rows per shard (``"default"`` = the
        :mod:`repro.config` knob).
    journal_capacity:
        Mutation-journal ring capacity (``"default"`` = the config knob).
    random_state:
        Seed for the query cell selection.
    run_cold:
        Also time the cold refits (disable for engine-only profiling).
    iim_overrides:
        Extra :class:`IIMImputer` constructor arguments (both sides).
    """
    profile = profile or get_profile()
    resolved_size = size or profile.dataset_sizes.get(dataset)
    n_total = load_dataset(dataset, size=resolved_size).raw.shape[0]
    initial = int(n_total * initial_fraction)
    if queries_per_round is None:
        queries_per_round = min(profile.asf_incomplete, initial // 2)
    queries_per_round = max(1, queries_per_round)

    iim_params = dict(
        k=profile.default_k,
        learning=learning,
        stepping=profile.iim_stepping,
        max_learning_neighbors=profile.iim_max_learning_neighbors,
    )
    if learning == "fixed":
        iim_params.setdefault("learning_neighbors", profile.default_k)
    iim_params.update(iim_overrides)

    from ..scenarios import ScenarioSpec, replay

    spec = ScenarioSpec(
        name=f"legacy.streaming.{dataset}",
        description="thin-wrapper spec built by run_streaming",
        generator="streaming",
        params={
            "dataset": dataset,
            "size": resolved_size,
            "n_rounds": n_rounds,
            "initial_fraction": initial_fraction,
            "queries_per_round": queries_per_round,
            "query_mode": query_mode,
            "ood_shift": ood_shift,
        },
        model=iim_params,
        engine={
            "refresh_policy": refresh_policy,
            "model_cache_size": model_cache_size,
            "shard_capacity": shard_capacity,
            "journal_capacity": journal_capacity,
        },
        seed=random_state,
    )
    report = replay(
        spec, transport="engine", verify=False, run_cold=run_cold,
        check_digest=False,
    )

    result = StreamingResult(
        dataset=dataset, learning=learning, initial_store=initial,
        query_mode=query_mode,
    )
    for step in report.steps:
        result.rounds.append(
            StreamingRound(
                round_index=step.round_index,
                n_store=step.n_store,
                n_appended=step.n_appended,
                n_queries=step.n_queries,
                online_seconds=step.online_seconds,
                cold_seconds=step.cold_seconds,
                rms_online=step.rms_online,
                rms_cold=step.rms_cold,
            )
        )
    session_stats = report.session_stats[spec.name]
    result.engine_stats = dict(session_stats["counters"])
    result.engine_memory = dict(session_stats["memory"])
    return result


# --------------------------------------------------------------------------- #
# Churn: the full tuple lifecycle
# --------------------------------------------------------------------------- #
@dataclass
class ChurnRound:
    """Latency and error of one append+update+delete+query round."""

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

    @property
    def speedup(self) -> float:
        """Cold-refit time over online time for this round."""
        return self.cold_seconds / self.online_seconds


@dataclass
class ChurnResult:
    """Outcome of a full churn replay."""

    dataset: str
    learning: str
    initial_store: int
    query_mode: str
    fallback_fraction: Optional[float]
    rounds: List[ChurnRound] = field(default_factory=list)
    engine_stats: Dict[str, int] = field(default_factory=dict)
    engine_memory: Dict[str, int] = field(default_factory=dict)

    @property
    def online_seconds(self) -> float:
        """Total online (mutations + impute) time across rounds."""
        return sum(r.online_seconds for r in self.rounds)

    @property
    def cold_seconds(self) -> float:
        """Total cold (refit + impute) time across rounds."""
        return sum(r.cold_seconds for r in self.rounds)

    @property
    def speedup(self) -> float:
        """Aggregate cold/online wall-clock ratio."""
        return self.cold_seconds / self.online_seconds

    @property
    def max_rms_gap(self) -> float:
        """Largest |rms_online − rms_cold| across rounds (≈ 0 by equivalence)."""
        return max(abs(r.rms_online - r.rms_cold) for r in self.rounds)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON reporting."""
        return {
            "dataset": self.dataset,
            "learning": self.learning,
            "initial_store": self.initial_store,
            "query_mode": self.query_mode,
            "fallback_fraction": self.fallback_fraction,
            "online_seconds": self.online_seconds,
            "cold_seconds": self.cold_seconds,
            "speedup": self.speedup,
            "max_rms_gap": self.max_rms_gap,
            "engine_stats": dict(self.engine_stats),
            "engine_memory": dict(self.engine_memory),
            "rounds": [
                {
                    "round": r.round_index,
                    "n_store": r.n_store,
                    "n_appended": r.n_appended,
                    "n_updated": r.n_updated,
                    "n_deleted": r.n_deleted,
                    "n_queries": r.n_queries,
                    "online_seconds": r.online_seconds,
                    "cold_seconds": r.cold_seconds,
                    "speedup": r.speedup,
                    "rms_online": r.rms_online,
                    "rms_cold": r.rms_cold,
                }
                for r in self.rounds
            ],
        }


def run_churn(
    dataset: str = "sn",
    profile: Optional[ScaleProfile] = None,
    size: Optional[int] = None,
    learning: str = "adaptive",
    n_rounds: int = 8,
    initial_fraction: float = 0.4,
    updates_per_round: Optional[int] = None,
    deletes_per_round: Optional[int] = None,
    queries_per_round: Optional[int] = None,
    query_mode: str = "store",
    ood_shift: float = 2.0,
    update_noise: float = 0.05,
    refresh_policy: str = "lazy",
    model_cache_size: Optional[int] = None,
    fallback_fraction="default",
    shard_capacity="default",
    journal_capacity="default",
    random_state: int = 0,
    run_cold: bool = True,
    **iim_overrides,
) -> ChurnResult:
    """Replay ``dataset`` as a full-lifecycle (churn) trace.

    Every round appends a batch of fresh tuples, corrects
    ``updates_per_round`` random store tuples in place (a jitter of
    ``update_noise`` column standard deviations — a late-arriving fix),
    retracts ``deletes_per_round`` random tuples, then imputes
    ``queries_per_round`` incomplete tuples.  The online side replays the
    mutations through :class:`~repro.online.OnlineImputationEngine`
    (``fallback_fraction`` selects the hybrid relearn threshold; ``None``
    keeps it always-incremental), the cold side refits a fresh
    :class:`IIMImputer` over the surviving store each round.  Identical
    random state ⇒ identical traces, so two churn runs with different
    engine knobs are directly comparable.
    """
    profile = profile or get_profile()
    resolved_size = size or profile.dataset_sizes.get(dataset)
    n_total = load_dataset(dataset, size=resolved_size).raw.shape[0]
    initial = int(n_total * initial_fraction)
    batch = (n_total - initial) // n_rounds if n_rounds else 0
    if queries_per_round is None:
        queries_per_round = min(profile.asf_incomplete, initial // 2)
    queries_per_round = max(1, queries_per_round)
    if updates_per_round is None:
        updates_per_round = max(1, batch // 3)
    if deletes_per_round is None:
        deletes_per_round = max(1, batch // 3)

    iim_params = dict(
        k=profile.default_k,
        learning=learning,
        stepping=profile.iim_stepping,
        max_learning_neighbors=profile.iim_max_learning_neighbors,
    )
    if learning == "fixed":
        iim_params.setdefault("learning_neighbors", profile.default_k)
    iim_params.update(iim_overrides)

    from ..scenarios import ScenarioSpec, replay

    spec = ScenarioSpec(
        name=f"legacy.churn.{dataset}",
        description="thin-wrapper spec built by run_churn",
        generator="churn",
        params={
            "dataset": dataset,
            "size": resolved_size,
            "n_rounds": n_rounds,
            "initial_fraction": initial_fraction,
            "queries_per_round": queries_per_round,
            "query_mode": query_mode,
            "ood_shift": ood_shift,
            "updates_per_round": updates_per_round,
            "deletes_per_round": deletes_per_round,
            "update_noise": update_noise,
        },
        model=iim_params,
        engine={
            "refresh_policy": refresh_policy,
            "model_cache_size": model_cache_size,
            "incremental_fallback_fraction": fallback_fraction,
            "shard_capacity": shard_capacity,
            "journal_capacity": journal_capacity,
        },
        seed=random_state,
    )
    report = replay(
        spec, transport="engine", verify=False, run_cold=run_cold,
        check_digest=False,
    )

    result = ChurnResult(
        dataset=dataset,
        learning=learning,
        initial_store=initial,
        query_mode=query_mode,
        fallback_fraction=config.resolve(
            "incremental_fallback_fraction", fallback_fraction
        ),
    )
    for step in report.steps:
        result.rounds.append(
            ChurnRound(
                round_index=step.round_index,
                n_store=step.n_store,
                n_appended=step.n_appended,
                n_updated=step.n_updated,
                n_deleted=step.n_deleted,
                n_queries=step.n_queries,
                online_seconds=step.online_seconds,
                cold_seconds=step.cold_seconds,
                rms_online=step.rms_online,
                rms_cold=step.rms_cold,
            )
        )
    session_stats = report.session_stats[spec.name]
    result.engine_stats = dict(session_stats["counters"])
    result.engine_memory = dict(session_stats["memory"])
    return result
