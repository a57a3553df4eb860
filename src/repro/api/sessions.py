"""The :class:`ImputationSession` protocol and its two implementations.

One protocol fronts the whole library:

* :class:`BatchSession` adapts any registry imputer (the paper's IIM and all
  thirteen Table-II baselines) behind the session surface — ``fit`` then
  ``impute``, with persistence through the artifact layer;
* :class:`OnlineSession` wraps the incremental
  :class:`~repro.online.OnlineImputationEngine` — the same surface plus
  ``mutate`` (append / delete / update maintained incrementally).

Both are deliberately *thin*: every call delegates straight to the wrapped
object, so going through a session is bit-identical to calling the imputer
or engine directly (asserted in ``tests/api/test_sessions.py``; the facade
adds no overhead on the engine's fast paths).  What callers gain is a single
shape to program against — the experiment harness, the streaming scenarios,
the CLI and the JSONL serve loop all speak it — plus a capability descriptor
(:class:`~repro.baselines.registry.MethodCapabilities`) that advertises
up front whether a session supports mutation, persistence and adaptive
learning instead of failing midway through a workload.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from pathlib import Path
from typing import Dict, Iterable, Optional, Union

import numpy as np

from ..baselines.base import BaseImputer
from ..baselines.registry import (
    MethodCapabilities,
    make_imputer,
    method_spec,
)
from ..config import ENGINE_KNOBS
from ..data.relation import Relation
from ..exceptions import (
    ConfigurationError,
    DataError,
    UnsupportedOperationError,
)
from ..online.artifacts import load_imputer, read_artifact
from ..online.engine import OnlineImputationEngine
from ..reliability.wal import WriteAheadLog, read_wal
from .messages import PROTOCOL_VERSION, ImputeRequest, MutationOp, SessionConfig

__all__ = [
    "ImputationSession",
    "BatchSession",
    "OnlineSession",
    "create_session",
    "restore_session",
    "recover_session",
]

Queries = Union[ImputeRequest, np.ndarray, Relation]


def _as_relation(data: Union[Relation, np.ndarray], what: str) -> Relation:
    if isinstance(data, Relation):
        return data
    values = np.atleast_2d(np.asarray(data, dtype=float))
    if values.ndim != 2 or values.size == 0:
        raise DataError(f"{what} needs a non-empty 2-D batch of tuples")
    return Relation(values)


def _as_request(queries: Queries) -> ImputeRequest:
    if isinstance(queries, ImputeRequest):
        return queries
    if isinstance(queries, Relation):
        return ImputeRequest(queries.raw.copy())
    return ImputeRequest(queries)


class ImputationSession(ABC):
    """One protocol over every imputation method in the library.

    The five verbs every session answers:

    * :meth:`fit` — learn from (the complete part of) a relation;
    * :meth:`mutate` — apply a sequence of :class:`MutationOp` to the
      backing store (only where ``capabilities.supports_mutation``);
    * :meth:`impute` — fill the ``NaN`` cells of a batch of query tuples;
    * :meth:`save` / :meth:`restore` — persist and restore the fitted state
      as an artifact directory;
    * :meth:`stats` — a uniform observability document (counters, memory,
      capabilities) for dashboards and the serve loop's ``stats`` command.
    """

    #: ``"batch"`` or ``"online"``.
    kind: str = "session"

    @property
    @abstractmethod
    def method(self) -> str:
        """The registry name of the method this session serves."""

    @property
    @abstractmethod
    def capabilities(self) -> MethodCapabilities:
        """What this session supports (mutation, persistence, adaptive)."""

    @abstractmethod
    def fit(self, data: Union[Relation, np.ndarray]) -> "ImputationSession":
        """Learn from the complete part of ``data``."""

    @abstractmethod
    def mutate(self, ops: Iterable[MutationOp]) -> "ImputationSession":
        """Apply mutations in order (raises unless mutation is supported)."""

    @abstractmethod
    def impute(self, queries: Queries) -> np.ndarray:
        """Return ``queries`` with every ``NaN`` cell filled."""

    @abstractmethod
    def save(self, path: Union[str, Path]) -> Path:
        """Persist the session's fitted state as an artifact directory."""

    @classmethod
    @abstractmethod
    def restore(cls, path: Union[str, Path]) -> "ImputationSession":
        """Rebuild a session from an artifact written by :meth:`save`."""

    @abstractmethod
    def stats(self) -> Dict[str, object]:
        """Uniform observability: counters, memory, capabilities."""

    # Convenience shared by both implementations ----------------------- #
    def impute_relation(self, relation: Relation) -> Relation:
        """Impute a relation and return a relation (schema preserved)."""
        return relation.with_values(self.impute(relation))

    def _stats_header(self) -> Dict[str, object]:
        return {
            "protocol": PROTOCOL_VERSION,
            "kind": self.kind,
            "method": self.method,
            "capabilities": self.capabilities.as_dict(),
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}(method={self.method!r})"


class BatchSession(ImputationSession):
    """Session over any registry imputer (offline fit/impute protocol).

    Parameters
    ----------
    method:
        Registry method name; overrides are forwarded to the constructor
        (validated against its signature, see
        :func:`~repro.baselines.registry.make_imputer`).
    imputer:
        Alternatively, adapt an already-built (possibly fitted)
        :class:`~repro.baselines.base.BaseImputer` instance.
    """

    kind = "batch"

    def __init__(
        self,
        method: str = "IIM",
        *,
        imputer: Optional[BaseImputer] = None,
        **overrides,
    ):
        if imputer is not None:
            if overrides:
                raise ConfigurationError(
                    "pass either a method name with overrides or an imputer "
                    "instance, not both"
                )
            if not isinstance(imputer, BaseImputer):
                raise ConfigurationError(
                    f"BatchSession adapts a BaseImputer, got {type(imputer).__name__}"
                )
            self.imputer = imputer
            self._method = getattr(imputer, "name", type(imputer).__name__)
        else:
            self.imputer = make_imputer(method, **overrides)
            self._method = method_spec(method).name

    @property
    def method(self) -> str:
        return self._method

    @property
    def capabilities(self) -> MethodCapabilities:
        try:
            spec = method_spec(self._method)
        except ConfigurationError:
            # An imputer class outside the registry: the batch surface still
            # offers fit/impute/persistence, never mutation.
            return MethodCapabilities()
        return MethodCapabilities(
            supports_mutation=False,
            supports_persistence=spec.capabilities.supports_persistence,
            supports_adaptive=spec.capabilities.supports_adaptive,
        )

    def fit(self, data: Union[Relation, np.ndarray]) -> "BatchSession":
        self.imputer.fit(_as_relation(data, "fit"))
        return self

    def mutate(self, ops: Iterable[MutationOp]) -> "BatchSession":
        raise UnsupportedOperationError(
            f"method {self._method!r} is served by a batch session, which "
            f"does not support mutation; re-fit on the updated relation, or "
            f"use an online session (method 'IIM', mode 'online')"
        )

    def impute(self, queries: Queries) -> np.ndarray:
        if isinstance(queries, Relation):
            relation = queries
        else:
            relation = Relation(_as_request(queries).values)
        # .values (a writable copy), not .raw (a read-only view): both
        # session kinds must hand back arrays the caller may mutate.
        return self.imputer.impute(relation).values

    def save(self, path: Union[str, Path]) -> Path:
        return self.imputer.save(path)

    @classmethod
    def restore(cls, path: Union[str, Path]) -> "BatchSession":
        return cls(imputer=load_imputer(path))

    @property
    def counters(self) -> Dict[str, int]:
        """Lifetime counters, read from the imputer's ``observe()`` hook."""
        return self.imputer.observe()

    def stats(self) -> Dict[str, object]:
        fitted = self.imputer.is_fitted()
        stats = self._stats_header()
        stats.update(
            fitted=fitted,
            n_tuples=self.imputer.fitted_relation.n_tuples if fitted else 0,
            n_attributes=(
                self.imputer.fitted_relation.n_attributes if fitted else None
            ),
            counters=self.counters,
            memory={},
        )
        return stats


class OnlineSession(ImputationSession):
    """Session over the incremental online engine (full tuple lifecycle).

    Parameters
    ----------
    engine:
        Wrap an existing :class:`~repro.online.OnlineImputationEngine`.
    kwargs:
        Otherwise, the engine knob ``model_cache_size`` and
        :class:`~repro.core.iim.IIMImputer` constructor arguments, exactly
        as the engine constructor takes them.  Mutations land in the
        store at once; each resident model state catches up when an
        imputation, a query or a save next reads it.

    Notes
    -----
    The two construction routes resolve *defaults* differently:
    ``OnlineSession(**kwargs)`` mirrors the raw engine, so omitted IIM
    parameters take :class:`IIMImputer`'s own defaults, while
    :meth:`from_config` (and therefore :func:`create_session` and the
    serve loop's ``create`` command) builds the imputer through the
    registry, whose ``"IIM"`` entry carries the curated paper defaults
    (``stepping=5``, ``max_learning_neighbors=200``,
    ``validation_neighbors=30``).  Set the parameters explicitly wherever
    two entry points must agree bit-for-bit.
    """

    kind = "online"

    def __init__(
        self,
        engine: Optional[OnlineImputationEngine] = None,
        *,
        wal: Optional[WriteAheadLog] = None,
        fault_injector=None,
        **kwargs,
    ):
        if engine is not None:
            if kwargs:
                raise ConfigurationError(
                    "pass either an engine instance or engine/IIM keyword "
                    "arguments, not both"
                )
            if not isinstance(engine, OnlineImputationEngine):
                raise ConfigurationError(
                    f"OnlineSession wraps an OnlineImputationEngine, "
                    f"got {type(engine).__name__}"
                )
            self.engine = engine
        else:
            self.engine = OnlineImputationEngine(**kwargs)
        self.wal = wal
        self.fault_injector = fault_injector

    @classmethod
    def from_config(cls, config: SessionConfig) -> "OnlineSession":
        """Build an online session from a validated :class:`SessionConfig`."""
        if config.resolved_mode() != "online":
            raise ConfigurationError(
                f"config resolves to {config.resolved_mode()!r} mode, not online"
            )
        imputer = make_imputer(config.method, **config.params)
        return cls(engine=OnlineImputationEngine(imputer, **config.engine))

    @property
    def method(self) -> str:
        return self.engine.imputer.name

    @property
    def capabilities(self) -> MethodCapabilities:
        return method_spec(self.method).capabilities

    def fit(self, data: Union[Relation, np.ndarray]) -> "OnlineSession":
        """Bootstrap the store with the complete part of ``data``.

        Fitting an already-populated session is ambiguous (re-fit or grow?)
        and therefore rejected — mutate with an append instead.
        """
        if self.engine.n_tuples:
            raise ConfigurationError(
                "this online session is already fitted; append through "
                "mutate() instead of fitting again"
            )
        relation = _as_relation(data, "fit")
        complete = relation.complete_part()
        if complete.n_tuples == 0:
            raise DataError(
                "cannot fit a session: the relation has no complete tuple"
            )
        self.engine.append(complete)
        if self.wal is not None:
            try:
                self.wal.log_op(MutationOp.append(complete.raw).to_wire())
            finally:
                self.wal.commit()
        return self

    def mutate(self, ops: Iterable[MutationOp]) -> "OnlineSession":
        ops = list(ops)
        for op in ops:
            if not isinstance(op, MutationOp):
                raise ConfigurationError(
                    f"mutate expects MutationOp instances, got {type(op).__name__}"
                )
        try:
            for op in ops:
                if op.kind == "append":
                    # Incomplete tuples are accepted into the engine's
                    # pending side-store; the query layer imputes their
                    # missing cells on demand.
                    self.engine.append(op.rows, allow_incomplete=True)
                elif op.kind == "delete":
                    self.engine.delete(op.indices)
                elif op.kind == "update":
                    self.engine.update(op.index, op.row)
                else:
                    self.engine.promote_pending()
                # Log *after* the engine accepted the op: the WAL holds
                # exactly the applied prefix, so a crash mid-batch
                # recovers the last consistent pre-crash state.
                if self.wal is not None:
                    self.wal.log_op(op.to_wire())
        finally:
            if self.wal is not None:
                self.wal.commit()
        return self

    def impute(self, queries: Queries) -> np.ndarray:
        if isinstance(queries, Relation):
            return self.engine.impute_batch(queries)
        return self.engine.impute_batch(_as_request(queries).values)

    def attach_wal(
        self, wal: WriteAheadLog, *, fault_injector=None
    ) -> "OnlineSession":
        """Log every subsequently accepted mutation to ``wal``."""
        self.wal = wal
        if fault_injector is not None:
            self.fault_injector = fault_injector
        return self

    def config_wire(self) -> Dict[str, object]:
        """A :class:`SessionConfig` wire form rebuilding this session's
        engine (recorded in the WAL so recovery works without a checkpoint)."""
        engine = self.engine
        return {
            "method": self.method,
            "mode": "online",
            "params": engine.imputer.get_params(),
            "engine": {"model_cache_size": engine.model_cache_size},
        }

    def save(self, path: Union[str, Path]) -> Path:
        """Checkpoint the engine; with a WAL attached, the manifest records
        the covered WAL position and the committed checkpoint truncates
        the log (its ops are now durable in the artifact)."""
        manifest_extra = None
        if self.wal is not None:
            manifest_extra = {"wal": {"last_seq": self.wal.last_seq}}
        out = self.engine.snapshot(
            path, manifest_extra=manifest_extra, injector=self.fault_injector
        )
        if self.wal is not None:
            self.wal.truncate(config=self.config_wire())
        return out

    @classmethod
    def restore(cls, path: Union[str, Path]) -> "OnlineSession":
        return cls(engine=OnlineImputationEngine.load(path))

    def close(self) -> None:
        """Release the WAL file handle (the log itself stays on disk)."""
        if self.wal is not None:
            self.wal.close()

    def stats(self) -> Dict[str, object]:
        engine = self.engine
        fitted = engine.n_tuples > 0
        stats = self._stats_header()
        stats.update(
            fitted=fitted,
            n_tuples=engine.n_tuples,
            n_pending=engine.n_pending,
            n_attributes=engine.n_attributes if fitted else None,
            counters=dict(engine.stats),
            memory=engine.memory_stats(),
        )
        if self.wal is not None:
            stats["wal"] = self.wal.stats()
        return stats

    def __repr__(self) -> str:
        return f"OnlineSession(engine={self.engine!r})"


def create_session(
    config: Optional[SessionConfig] = None, **kwargs
) -> ImputationSession:
    """Build a session from a :class:`SessionConfig` (or its fields).

    >>> session = create_session(method="kNN", params={"k": 5})   # batch
    >>> session = create_session(method="IIM", mode="online",
    ...                          params={"k": 10})                # online

    Parameters omitted from ``params`` take the *registry* defaults of the
    method (for IIM the curated paper defaults, see
    :data:`repro.baselines.registry.METHOD_SPECS`), exactly as
    :func:`~repro.baselines.registry.make_imputer` would.
    """
    if config is None:
        config = SessionConfig(**kwargs)
    elif kwargs:
        raise ConfigurationError(
            "pass either a SessionConfig or its fields as kwargs, not both"
        )
    if config.resolved_mode() == "online":
        return OnlineSession.from_config(config)
    return BatchSession(config.method, **config.params)


def restore_session(path: Union[str, Path]) -> ImputationSession:
    """Restore a session from any artifact directory.

    Dispatches on the artifact's stored kind: an ``"engine"`` artifact
    (written by :meth:`OnlineSession.save` /
    :meth:`~repro.online.OnlineImputationEngine.snapshot`) restores an
    :class:`OnlineSession`; an ``"imputer"`` artifact (written by
    :meth:`BatchSession.save` / :meth:`BaseImputer.save`) restores a
    :class:`BatchSession`.
    """
    manifest, _ = read_artifact(path)
    kind = manifest.get("kind")
    if kind == "engine":
        return OnlineSession.restore(path)
    if kind == "imputer":
        return BatchSession.restore(path)
    raise ConfigurationError(
        f"artifact at {path} holds a {kind!r}, expected an 'engine' or "
        f"'imputer' artifact"
    )


def recover_session(
    wal_dir: Union[str, Path],
    checkpoint: Optional[Union[str, Path]] = None,
    *,
    reattach: bool = True,
    sync: Optional[str] = "default",
    fault_injector=None,
):
    """Rebuild an :class:`OnlineSession` from its checkpoint + WAL tail.

    Loads the last committed checkpoint (when ``checkpoint`` names a
    readable engine artifact), then replays every WAL op with a sequence
    number beyond the checkpoint's recorded position.  Without a usable
    checkpoint the session is rebuilt from the config recorded in the
    WAL's open record — valid only while the log still starts at sequence
    0 (an already-truncated log depends on its checkpoint).  A torn WAL
    tail (crash mid-frame) is dropped and reported, exactly matching what
    the crashed process never acknowledged.

    Returns ``(session, report)``; the report documents the checkpoint
    used, sequence window, replayed/skipped op counts and any torn tail.
    With ``reattach=True`` (default) the session continues logging to the
    same WAL directory, whose torn tail is repaired on open.
    """
    state = read_wal(wal_dir)
    session: Optional[OnlineSession] = None
    checkpoint_seq = 0
    checkpoint_used = False
    if checkpoint is not None:
        try:
            manifest, _ = read_artifact(checkpoint, expected_kind="engine")
        except ConfigurationError:
            if state.base_seq > 0:
                raise ConfigurationError(
                    f"cannot recover: the WAL at {wal_dir} was truncated at "
                    f"a checkpoint (base_seq={state.base_seq}) but the "
                    f"checkpoint at {checkpoint} is missing or unreadable"
                ) from None
            manifest = None
        if manifest is not None:
            session = OnlineSession.restore(checkpoint)
            wal_info = manifest.get("wal")
            if isinstance(wal_info, dict):
                checkpoint_seq = int(wal_info.get("last_seq", 0))
            checkpoint_used = True
    if session is None:
        if state.base_seq > 0:
            raise ConfigurationError(
                f"cannot recover from the WAL at {wal_dir} alone: it starts "
                f"at sequence {state.base_seq}, so the ops before it live in "
                f"the checkpoint it was truncated against — pass that "
                f"checkpoint path"
            )
        if state.config is None:
            raise ConfigurationError(
                f"cannot recover from the WAL at {wal_dir}: no checkpoint "
                f"was given and the log records no session config"
            )
        wire = dict(state.config)
        engine = wire.get("engine")
        if isinstance(engine, dict):
            # A log written by an earlier build may name an engine knob
            # removed since (its one surviving behaviour is the engine's
            # only one); recovery keeps the knobs this build still has.
            wire["engine"] = {
                name: value for name, value in engine.items()
                if name in ENGINE_KNOBS
            }
        built = create_session(SessionConfig.from_wire(wire))
        if not isinstance(built, OnlineSession):
            raise ConfigurationError(
                "WAL recovery rebuilds online sessions only; the recorded "
                "config resolves to a batch session"
            )
        session = built

    start_seq = max(checkpoint_seq, state.base_seq)
    replayed = 0
    skipped = 0
    for seq, op_wire in state.ops:
        if seq <= start_seq:
            skipped += 1
            continue
        session.mutate([MutationOp.from_wire(op_wire)])
        replayed += 1

    if reattach:
        wal = WriteAheadLog(
            wal_dir,
            sync=sync,
            config=state.config or session.config_wire(),
            injector=fault_injector,
        )
        session.attach_wal(wal, fault_injector=fault_injector)

    report = {
        "checkpoint": str(checkpoint) if checkpoint_used else None,
        "base_seq": state.base_seq,
        "start_seq": start_seq,
        "last_seq": state.last_seq,
        "replayed_ops": replayed,
        "skipped_ops": skipped,
        "torn_tail": state.torn,
        "segments": len(state.segments),
        "n_tuples": session.engine.n_tuples,
    }
    return session, report
