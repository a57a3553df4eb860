"""The online imputation engine: streaming tuple lifecycle from warm models.

The batch :class:`~repro.core.iim.IIMImputer` relearns everything from
scratch on every ``fit``; this module keeps a *long-lived* engine instead:

* :meth:`OnlineImputationEngine.append` adds complete tuples,
  :meth:`OnlineImputationEngine.delete` removes tuples by store index and
  :meth:`OnlineImputationEngine.update` revises one tuple in place — the
  full lifecycle a production store sees (inserts, retractions, late
  corrections).  Every cached per-attribute model state is maintained
  **incrementally**: the neighbour index absorbs the mutation exactly
  (:meth:`~repro.neighbors.NeighborOrderCache.append` /
  :meth:`~repro.neighbors.NeighborOrderCache.remove` /
  :meth:`~repro.neighbors.NeighborOrderCache.replace`), only the tuples
  whose neighbour prefix — or whose prefix *values* — actually changed have
  their candidate models relearned (through the batched Proposition 3
  kernel :func:`~repro.core.learning.learn_candidate_models_for_rows`), and
  only the validation-cost rows touched by the mutation are rebuilt.
* :meth:`OnlineImputationEngine.impute_batch` serves imputation requests in
  batches from an LRU cache of per-attribute model states — after any
  interleaving of appends, deletes and updates the answers match a cold
  ``IIMImputer`` refit over the surviving tuples to ``rtol = 1e-9``
  (asserted across fixed/adaptive learning and all three combiners in the
  test suite).
* :meth:`OnlineImputationEngine.snapshot` persists the full engine state
  (store, neighbour orderings, candidate models, validation costs) as an
  ``.npz`` + JSON-manifest artifact; :meth:`OnlineImputationEngine.load`
  restores an engine whose subsequent imputations are bit-identical.

The shared tuple store
----------------------
Tuple payloads live in exactly one place: a
:class:`~repro.online.store.ColumnarTupleStore` — one ``(capacity, m)``
array that grows geometrically, with free-list slot recycling.  Every
cached attribute state reads *through* the store: its neighbour cache
holds a :class:`~repro.online.store.StoreFeatureView` (slot references) and
its target column is gathered from the store on demand (no target-column
copy).  A view never changes once built — a mutation gives each state a new
one — so it gathers its ``(n, m-1)`` feature rows into one block once and
keeps it read-only for every later read: the neighbour repairs, the
relearn and the served neighbour queries (one metric call plus one exact
top-K selection) all use that block.  The column means that pre-fill query
features are likewise computed once per store version.  Resident per-state
memory is the orderings/models/costs, ``O(n)`` slot integers and that one
gathered block.

Deferred maintenance: the mutation journal
------------------------------------------
Under the ``"lazy"`` refresh policy a cached state may lag the store by
several mutations.  The engine keeps the mutations since each state's sync
point in a **bounded ring buffer**
(:class:`~repro.online.store.MutationJournal`) whose entries hold store
slot references only — the payloads are durable in the columnar store the
moment a mutation lands, and retired row versions are *retained* (MVCC
style) until their journal entry is replayed by every resident state or
spills off the ring, at which point their slots return to the free list.
Journal memory is thus bounded by the ring capacity regardless of burst
length; a state older than the ring's floor full-rebuilds instead of
replaying.  On the next imputation touching a state the journal
is replayed in two phases — each op maintains the neighbour cache, the
owner matrix and the dirty sets only, then ONE batched relearn + cost
rebuild + selection runs over the dirty union — so a burst of mutations
costs one refresh, not one per op.  A run of adjacent appends replays as
one batched merge, a run of adjacent deletes as one repair and a run of
adjacent updates as one ``replace`` of many indices, so the neighbour
cache is repaired once per run rather than once per op.  When any step of
the pending sequence would change the state's *structure* (the candidate ℓ
grid still growing towards ``max_learning_neighbors``, the validation ``k``
clamped by a small ``n``, the global candidate toggling), the state falls
back to one full relearn over the final store instead — structure changes
reshape every array anyway.  The journal is pruned as states catch up.

Exactness of the incremental maintenance
----------------------------------------
Adaptive learning (Algorithm 3) gives every complete tuple ``i`` a cost row
``cost[i][ℓ]`` summed over the validation tuples ``j`` that count ``i``
among their ``k`` nearest neighbours.  A mutation can change that row in
exactly four ways: (1) ``i``'s own candidate models changed because its
learning prefix gained, lost, or revalued a tuple, (2) some validator ``j``
gained or lost ``i`` in its top-``k``, (3) a validator appeared,
disappeared, or changed value, or (4) the ``ℓ = n`` global candidate moved
(it does on *every* mutation; its single ridge fit and cost column are
recomputed each refresh).  The engine tracks all four through the index's
first-changed-position reports — plus, for updates, a prefix-membership
scan, because a revised tuple can change a model's *values* without moving
in any ordering — and rebuilds exactly those rows with the same scatter-add
kernel the cold path uses, so untouched rows keep values a cold run would
reproduce.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .._validation import as_float_matrix
from .. import config
from ..core.adaptive import adaptive_learning, scatter_validation_costs
from ..core.combine import get_batch_combiner
from ..core.iim import IIMImputer
from ..core.learning import (
    IndividualModels,
    candidate_ell_values,
    learn_candidate_models_for_rows,
    learn_individual_models,
)
from ..data.relation import Relation, Schema
from ..exceptions import ConfigurationError, DataError, NotFittedError
from ..neighbors import NeighborOrderCache
from ..neighbors.brute import drop_self_rows
from ..obs import engine_phase, observe_imputed_cells
from ..regression import RidgeRegression, batched_design
from .artifacts import read_artifact, write_artifact
from .store import ColumnarTupleStore, MutationJournal, ShardedNeighbors

__all__ = ["OnlineImputationEngine"]

class _AttributeState:
    """Models + incremental maintenance state for one incomplete attribute.

    One state exists per target attribute the engine has served; it owns the
    attribute's neighbour-order cache (a slot-indirected *view* over the
    shared columnar store, restricted to the complete attributes ``F``),
    the per-tuple models, and — for adaptive learning — the full candidate
    parameter stack and validation-cost matrix needed to refresh a subset
    of tuples without relearning the rest.  It owns no tuple payload: the
    view gathers the feature rows from the store once and keeps them for
    reads, and the target column is gathered on demand by slot.
    """

    def __init__(self, engine: "OnlineImputationEngine", target_index: int):
        # Weak: the engine owns its states, so a strong reference would
        # keep a dropped engine's store, orderings and models alive until
        # the cyclic garbage collector happens to run.
        self.engine = weakref.proxy(engine)
        self.target_index = int(target_index)
        width = engine.n_attributes
        self.feature_indices = [i for i in range(width) if i != self.target_index]

        self.cache: Optional[NeighborOrderCache] = None
        self.version = 0
        self.n_synced = 0
        self.signature: Optional[Tuple] = None
        self.models: Optional[IndividualModels] = None

        # Adaptive-learning state (None for fixed-ℓ learning).
        self.candidates: Optional[np.ndarray] = None  # stepped ℓ grid
        self.all_parameters: Optional[np.ndarray] = None  # (L, n, p)
        self.costs: Optional[np.ndarray] = None  # (n, L)
        self.global_costs: Optional[np.ndarray] = None  # (n,)
        self.global_params: Optional[np.ndarray] = None  # (p,)
        self.global_active = False
        self.owners: Optional[np.ndarray] = None  # (n, k_val)
        self.counts: Optional[np.ndarray] = None  # (n,)

        # Fixed-learning state.
        self.parameters: Optional[np.ndarray] = None  # (n, p)

    # ------------------------------------------------------------------ #
    @property
    def _imputer(self) -> IIMImputer:
        return self.engine.imputer

    def target_column(self) -> np.ndarray:
        """The state's target column, gathered from the store by slot."""
        return self.engine._store.column(self.target_index, self.cache.slots)

    @property
    def _adaptive(self) -> bool:
        return self._imputer.learning == "adaptive"

    def _validation_neighbors(self) -> int:
        imputer = self._imputer
        return imputer.validation_neighbors or imputer.k

    def _requested_cache_length(self) -> Optional[int]:
        """The ordering cap, chosen so every refresh prefix stays available."""
        imputer = self._imputer
        if not self._adaptive:
            return imputer.learning_neighbors
        if imputer.max_learning_neighbors is None:
            return None
        return max(imputer.max_learning_neighbors, self._validation_neighbors() + 1)

    def _signature(self, n: int) -> Tuple:
        """Structural fingerprint; a change forces a full relearn.

        Captures everything that reshapes the state's arrays: the stepped
        candidate grid (still growing while ``n < max_learning_neighbors``),
        the effective validation ``k`` (clamped by ``n - 1`` during warmup)
        and whether the global ``ℓ = n`` candidate participates.
        """
        imputer = self._imputer
        if not self._adaptive:
            return ("fixed", min(imputer.learning_neighbors, n))
        candidates = candidate_ell_values(
            n, stepping=imputer.stepping, max_ell=imputer.max_learning_neighbors
        )
        k_val = min(self._validation_neighbors(), n - 1) if n > 1 else 0
        global_active = (
            bool(imputer.include_global) and n > 1 and int(candidates.max()) < n
        )
        return ("adaptive", tuple(int(c) for c in candidates), k_val, global_active)

    # ------------------------------------------------------------------ #
    @property
    def current(self) -> bool:
        """Whether the state has seen every mutation of the engine."""
        return self.cache is not None and self.version == self.engine._version

    def sync(self) -> None:
        """Bring the state up to date with the engine's store."""
        engine = self.engine
        if self.current:
            return
        n = engine._n
        if n == 0:
            raise NotFittedError("cannot sync a model state over an empty store")
        signature = self._signature(n)
        pending = engine._pending_ops(self.version)
        if pending is None or self.cache is None or not self._can_replay(
            pending, signature
        ):
            self._full_build(signature)
            engine.stats["full_refreshes"] += 1
            engine.stats["rows_refreshed"] += n
        else:
            # Replay in two phases: each op maintains the neighbour cache,
            # the owner matrix and the dirty sets only; the expensive model
            # relearn + cost scatter + selection then runs ONCE over the
            # final state — exact, because models and costs depend only on
            # the final store, and rows no op dirtied kept cold values.
            dirty_models = np.zeros(self.cache.n_points, dtype=bool)
            dirty_costs = np.zeros(self.cache.n_points, dtype=bool)
            refilled = self.cache.refilled_rows
            with engine_phase("order_maintenance"):
                for op, payload in self._coalesced(pending):
                    if op == "append":
                        dirty_models, dirty_costs = self._track_append(
                            payload, dirty_models, dirty_costs
                        )
                    elif op == "delete":
                        dirty_models, dirty_costs = self._track_delete(
                            payload, dirty_models, dirty_costs
                        )
                    else:
                        indices, slots = payload
                        dirty_models, dirty_costs = self._track_update(
                            indices, slots, dirty_models, dirty_costs
                        )
            engine.stats["order_refill_rows"] += self.cache.refilled_rows - refilled
            refreshed = self._finalize_refresh(dirty_models, dirty_costs)
            engine.stats["incremental_refreshes"] += 1
            engine.stats["rows_refreshed"] += refreshed
        self.signature = signature
        self.n_synced = n
        self.version = engine._version
        engine._prune_journal()

    def _can_replay(self, pending, final_signature) -> bool:
        """Whether every pending op keeps the state structure unchanged."""
        if self.signature is None or final_signature != self.signature:
            return False
        n_running = self.n_synced
        for op, payload in pending:
            if op == "append":
                n_running += payload.shape[0]
            elif op == "delete":
                n_running -= payload[0].shape[0]
            else:
                continue  # updates never change n (or the structure)
            if n_running < 1 or self._signature(n_running) != self.signature:
                return False
        return True

    @staticmethod
    def _coalesced(pending) -> List[Tuple[str, object]]:
        """Merge each run of adjacent appends, of adjacent deletes and of
        adjacent updates into one op.

        A delete run becomes one delete, of sorted indices, in the index
        space before the run: every later delete's indices are mapped back
        past the tuples the run already removed.  A delete's retired slots
        stay in its journal entry, which releases them.  An update run
        becomes one update carrying parallel ``(indices, slots)`` arrays;
        an index revised twice in the run keeps its last slot.  Updates
        never move indices, so only an append or a delete ends an update
        run (and an update ends a delete run).
        """
        out: List[Tuple[str, object]] = []
        for op, payload in pending:
            if out and op == out[-1][0] == "append":
                out[-1] = ("append", np.concatenate([out[-1][1], payload]))
            elif op == "update":
                index, _, slot = payload
                if not (out and out[-1][0] == "update"):
                    out.append(("update", {}))
                out[-1][1][int(index)] = int(slot)
            elif op == "delete":
                indices = payload[0]
                if out and out[-1][0] == "delete":
                    removed = out[-1][1]
                    # The i-th removed index (sorted) has removed[i] - i
                    # survivors below it; an index j of the later delete
                    # skips every removed tuple with at most j survivors
                    # below it.
                    indices = indices + np.searchsorted(
                        removed - np.arange(removed.shape[0]), indices,
                        side="right",
                    )
                    out[-1] = ("delete", np.sort(np.concatenate([removed, indices])))
                else:
                    out.append(("delete", indices))
            else:
                out.append((op, payload))
        for position, (op, payload) in enumerate(out):
            if op == "update":  # {index: last slot} -> parallel arrays
                out[position] = (op, (
                    np.array(list(payload), dtype=np.int64),
                    np.array(list(payload.values()), dtype=np.int64),
                ))
        return out

    # ------------------------------------------------------------------ #
    def _full_build(self, signature) -> None:
        """Cold rebuild: a fresh store view + neighbour cache, then the
        model/cost stack."""
        view = self.engine._store.feature_view(exclude=self.target_index)
        self.cache = NeighborOrderCache(
            view,
            metric=self._imputer.metric,
            include_self=True,
            max_length=self._requested_cache_length(),
        )
        with engine_phase("full_rebuild"):
            self._rebuild_from_cache(signature)

    def _rebuild_from_cache(self, signature) -> None:
        """Learn every model and validation cost over the fresh orderings."""
        imputer = self._imputer
        features = self.cache.data.block()
        target = self.target_column()
        n = features.shape[0]
        if not self._adaptive:
            ell = signature[1]
            self.models = learn_individual_models(
                features,
                target,
                ell,
                alpha=imputer.alpha,
                metric=imputer.metric,
                order_cache=self.cache,
                backend="vectorized",
            )
            self.parameters = self.models.parameters
            return

        _, stepped, k_val, global_active = signature
        result = adaptive_learning(
            features,
            target,
            validation_neighbors=self._validation_neighbors(),
            stepping=imputer.stepping,
            max_ell=imputer.max_learning_neighbors,
            alpha=imputer.alpha,
            metric=imputer.metric,
            incremental=imputer.incremental,
            include_global=imputer.include_global,
            backend="vectorized",
            order_cache=self.cache,
            keep_candidate_models=True,
        )
        n_stepped = len(stepped)
        self.candidates = np.asarray(stepped, dtype=int)
        self.global_active = global_active
        self.all_parameters = result.all_parameters[:n_stepped].copy()
        if global_active:
            self.global_params = result.all_parameters[n_stepped, 0].copy()
            self.global_costs = result.costs[:, n_stepped].copy()
        else:
            self.global_params = None
            self.global_costs = np.zeros(n)
        self.costs = result.costs[:, :n_stepped].copy()
        self.counts = result.validation_counts.astype(int)
        if k_val > 0:
            orders = self.cache.order_matrix()[:, : k_val + 1]
            self.owners = drop_self_rows(orders, np.arange(n))[:, :k_val]
        else:
            self.owners = np.empty((n, 0), dtype=int)
        self.models = result.models

    def _owners_from(self, orders: np.ndarray, k_val: int, n: int) -> np.ndarray:
        if k_val > 0:
            return drop_self_rows(orders[:, : k_val + 1], np.arange(n))[:, :k_val]
        return np.empty((n, 0), dtype=int)

    def _rebuild_dirty_costs(
        self,
        dirty_rows: np.ndarray,
        owners_new: np.ndarray,
        designs: np.ndarray,
        target: np.ndarray,
        k_val: int,
    ) -> None:
        """Zero and re-accumulate the dirty validation-cost rows."""
        if k_val > 0 and dirty_rows.size:
            pair_j, pair_pos = np.nonzero(np.isin(owners_new, dirty_rows))
            pair_i = owners_new[pair_j, pair_pos]
            self.costs[dirty_rows] = 0.0
            # The cold validation kernel, restricted to the dirty pairs —
            # same einsum, same bincount, same accumulation order.
            scatter_validation_costs(
                self.costs, pair_j, pair_i, designs, target, self.all_parameters
            )

    def _finish_validation(
        self,
        owners_new: np.ndarray,
        designs: np.ndarray,
        target: np.ndarray,
        k_val: int,
        global_active: bool,
        n: int,
    ) -> None:
        """Global cost column, validation counts, owner matrix, selection."""
        if global_active and k_val > 0:
            residuals = (target - designs @ self.global_params) ** 2
            self.global_costs = np.bincount(
                owners_new.ravel(),
                weights=residuals[np.repeat(np.arange(n), k_val)],
                minlength=n,
            )
        else:
            self.global_costs = np.zeros(n)
        self.counts = (
            np.bincount(owners_new.ravel(), minlength=n).astype(int)
            if k_val > 0
            else np.zeros(n, dtype=int)
        )
        self.owners = owners_new
        self._select(n)

    # ------------------------------------------------------------------ #
    # Per-operation dirty tracking (phase 1 of a replay)
    # ------------------------------------------------------------------ #
    def _dirty_limit(self) -> int:
        """The prefix length whose change invalidates a tuple's models."""
        if self._adaptive:
            return int(self.candidates.max())
        return self.signature[1]

    def _k_val(self) -> int:
        return self.signature[2] if self._adaptive else 0

    def _track_append(
        self, slots: np.ndarray, dirty_models: np.ndarray, dirty_costs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Absorb appended tuples into the cache/owner/dirty state."""
        n_old = self.cache.n_points
        result = self.cache.append(slots=slots)
        n = self.cache.n_points

        grown_models = np.zeros(n, dtype=bool)
        grown_models[:n_old] = dirty_models
        grown_models[result.changed_rows(self._dirty_limit())] = True
        grown_models[n_old:] = True
        grown_costs = np.zeros(n, dtype=bool)
        grown_costs[:n_old] = dirty_costs

        if self._adaptive:
            n_stepped = self.candidates.shape[0]
            p = self.all_parameters.shape[2]
            params = np.empty((n_stepped, n, p))
            params[:, :n_old] = self.all_parameters
            self.all_parameters = params
            costs = np.zeros((n, n_stepped))
            costs[:n_old] = self.costs
            self.costs = costs
            k_val = self._k_val()
            if k_val > 0:
                orders = self.cache.order_matrix()
                owners_new = self._owners_from(orders, k_val, n)
                validators_changed = result.changed_rows(k_val + 1)
                if validators_changed.size:
                    old_rows = self.owners[validators_changed]
                    new_rows = owners_new[validators_changed]
                    moved = old_rows != new_rows
                    grown_costs[old_rows[moved]] = True
                    grown_costs[new_rows[moved]] = True
                grown_costs[owners_new[n_old:].ravel()] = True
                self.owners = owners_new
            else:
                self.owners = np.empty((n, 0), dtype=int)
        else:
            params = np.empty((n, self.parameters.shape[1]))
            params[:n_old] = self.parameters
            self.parameters = params
        return grown_models, grown_costs

    def _track_delete(
        self,
        indices: np.ndarray,
        dirty_models: np.ndarray,
        dirty_costs: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fold deleted tuples out of the cache/owner/dirty state."""
        old_owners = self.owners
        result = self.cache.remove(indices)
        kept = result.kept_rows()
        index_map = result.index_map
        n = self.cache.n_points

        shrunk_models = dirty_models[kept]
        shrunk_models[result.changed_rows(self._dirty_limit())] = True
        shrunk_costs = dirty_costs[kept]

        if self._adaptive:
            self.all_parameters = np.ascontiguousarray(self.all_parameters[:, kept])
            self.costs = np.ascontiguousarray(self.costs[kept])
            k_val = self._k_val()
            if k_val > 0:
                orders = self.cache.order_matrix()
                owners_new = self._owners_from(orders, k_val, n)
                # Owners gained/lost by surviving validators...
                validators_changed = result.changed_rows(k_val + 1)
                if validators_changed.size:
                    old_rows = index_map[old_owners[kept[validators_changed]]]
                    new_rows = owners_new[validators_changed]
                    moved = old_rows != new_rows
                    moved_old = old_rows[moved]
                    shrunk_costs[moved_old[moved_old >= 0]] = True
                    shrunk_costs[new_rows[moved]] = True
                # ...and owners that lost a deleted validator's contribution.
                removed_old = np.flatnonzero(index_map < 0)
                lost = index_map[old_owners[removed_old]]
                shrunk_costs[lost[lost >= 0]] = True
                self.owners = owners_new
            else:
                self.owners = np.empty((n, 0), dtype=int)
        else:
            self.parameters = self.parameters[kept]
        return shrunk_models, shrunk_costs

    def _track_update(
        self,
        indices: np.ndarray,
        slots: np.ndarray,
        dirty_models: np.ndarray,
        dirty_costs: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fold a run of revised tuples into the cache/owner/dirty state."""
        old_owners = self.owners
        result = self.cache.replace(indices, slot=slots)
        n = self.cache.n_points
        orders = self.cache.order_matrix()
        limit = self._dirty_limit()

        # Changed orderings are not enough: a model whose prefix still
        # contains a revised tuple at the same rank changed *values*.
        dirty_models[result.changed_rows(limit)] = True
        revised = np.zeros(n, dtype=bool)
        revised[indices] = True
        dirty_models |= revised[orders[:, :limit]].any(axis=1)
        dirty_models[indices] = True

        if self._adaptive:
            k_val = self._k_val()
            if k_val > 0:
                owners_new = self._owners_from(orders, k_val, n)
                validators_changed = result.changed_rows(k_val + 1)
                if validators_changed.size:
                    old_rows = old_owners[validators_changed]
                    new_rows = owners_new[validators_changed]
                    moved = old_rows != new_rows
                    dirty_costs[old_rows[moved]] = True
                    dirty_costs[new_rows[moved]] = True
                # Every owner a revised tuple validates sees a revalued
                # squared error, even where the neighbour sets did not move.
                dirty_costs[old_owners[indices]] = True
                dirty_costs[owners_new[indices]] = True
                self.owners = owners_new
        return dirty_models, dirty_costs

    # ------------------------------------------------------------------ #
    # Batched refresh (phase 2 of a replay)
    # ------------------------------------------------------------------ #
    def _finalize_refresh(
        self, dirty_models: np.ndarray, dirty_costs: np.ndarray
    ) -> int:
        """One batched relearn + cost rebuild + selection over the dirty sets."""
        imputer = self._imputer
        n = self.cache.n_points
        model_rows = np.flatnonzero(dirty_models)
        features = self.cache.data.block()
        target = self.target_column()
        orders = self.cache.order_matrix()

        if not self._adaptive:
            with engine_phase("subset_relearn"):
                ell = self.signature[1]
                if model_rows.size:
                    refreshed = learn_candidate_models_for_rows(
                        features,
                        target,
                        [ell],
                        orders[model_rows],
                        alpha=imputer.alpha,
                        incremental=True,
                    )[0]
                    self.parameters[model_rows] = refreshed
                self.models = IndividualModels(
                    self.parameters, np.full(n, ell, dtype=int)
                )
            return int(model_rows.shape[0])

        _, stepped, k_val, global_active = self.signature
        with engine_phase("subset_relearn"):
            if model_rows.size:
                refreshed = learn_candidate_models_for_rows(
                    features,
                    target,
                    self.candidates,
                    orders[model_rows],
                    alpha=imputer.alpha,
                    incremental=imputer.incremental,
                )
                self.all_parameters[:, model_rows] = refreshed

            # The global ℓ = n candidate changes on every mutation.
            if global_active:
                self.global_params = (
                    RidgeRegression(alpha=imputer.alpha).fit(features, target).coefficients
                )

        with engine_phase("cost_rebuild"):
            dirty_rows = np.flatnonzero(dirty_costs | dirty_models)
            designs = batched_design(features)
            self._rebuild_dirty_costs(
                dirty_rows, self.owners, designs, target, k_val
            )
            self._finish_validation(
                self.owners, designs, target, k_val, global_active, n
            )
        return int(model_rows.shape[0])

    def _select(self, n: int) -> None:
        """Re-run the per-tuple argmin of Algorithm 3 over the cost matrix."""
        n_stepped = self.candidates.shape[0]
        if self.global_active:
            full_costs = np.hstack([self.costs, self.global_costs[:, None]])
            full_candidates = np.concatenate([self.candidates, [n]])
        else:
            full_costs = self.costs
            full_candidates = self.candidates
        chosen = np.argmin(full_costs, axis=1)
        if (self.counts == 0).any():
            global_best = int(np.argmin(full_costs.sum(axis=0)))
            chosen = np.where(self.counts == 0, global_best, chosen)
        chosen_ell = full_candidates[chosen]
        selected = np.empty((n, self.all_parameters.shape[2]))
        stepped_mask = chosen < n_stepped
        rows = np.arange(n)
        selected[stepped_mask] = self.all_parameters[
            chosen[stepped_mask], rows[stepped_mask]
        ]
        if (~stepped_mask).any():
            selected[~stepped_mask] = self.global_params
        self.models = IndividualModels(selected, chosen_ell)

    # ------------------------------------------------------------------ #
    # Artifact serialization
    # ------------------------------------------------------------------ #
    def state_arrays(self) -> Dict[str, np.ndarray]:
        arrays = {
            "orders": self.cache.order_matrix(),
            "order_dists": self.cache.order_distances,
            "target": self.target_column(),
            "models_parameters": self.models.parameters,
            "models_ell": self.models.learning_neighbors,
        }
        if self._adaptive:
            arrays.update(
                candidates=self.candidates,
                all_parameters=self.all_parameters,
                costs=self.costs,
                global_costs=self.global_costs,
                owners=self.owners,
                counts=self.counts,
            )
            if self.global_params is not None:
                arrays["global_params"] = self.global_params
        else:
            arrays["parameters"] = self.parameters
        return arrays

    def state_metadata(self) -> Dict[str, object]:
        return {
            "target_index": self.target_index,
            "n_synced": self.n_synced,
            "signature": list(self.signature),
            "global_active": self.global_active,
        }

    @classmethod
    def restore(
        cls,
        engine: "OnlineImputationEngine",
        metadata: Dict[str, object],
        arrays: Dict[str, np.ndarray],
    ) -> "_AttributeState":
        state = cls(engine, int(metadata["target_index"]))
        state.n_synced = int(metadata["n_synced"])
        state.version = engine._version
        signature = metadata["signature"]
        if signature[0] == "adaptive":
            state.signature = (
                "adaptive",
                tuple(int(c) for c in signature[1]),
                int(signature[2]),
                bool(signature[3]),
            )
        else:
            state.signature = ("fixed", int(signature[1]))
        if state.n_synced != engine._store.n_live:
            raise ConfigurationError(
                f"engine artifact state for attribute {state.target_index} is "
                f"synced at {state.n_synced} rows but the store holds "
                f"{engine._store.n_live}; re-create the snapshot"
            )
        view = engine._store.feature_view(exclude=state.target_index)
        state.cache = NeighborOrderCache(
            view,
            metric=engine.imputer.metric,
            include_self=True,
            max_length=state._requested_cache_length(),
        )
        state.cache.restore_matrix(arrays["orders"], arrays["order_dists"])
        state.models = IndividualModels(
            arrays["models_parameters"], arrays["models_ell"]
        )
        if state._adaptive:
            state.candidates = arrays["candidates"].astype(int)
            state.all_parameters = arrays["all_parameters"]
            state.costs = arrays["costs"]
            state.global_costs = arrays["global_costs"]
            state.owners = arrays["owners"].astype(int)
            state.counts = arrays["counts"].astype(int)
            state.global_active = bool(metadata["global_active"])
            state.global_params = arrays.get("global_params")
        else:
            state.parameters = arrays["parameters"]
        return state


class OnlineImputationEngine:
    """A long-lived IIM service over a mutable store of complete tuples.

    Parameters
    ----------
    imputer:
        An (unfitted) :class:`~repro.core.iim.IIMImputer` carrying the
        method configuration; alternatively pass its constructor arguments
        as keyword arguments and the engine builds one.
    model_cache_size:
        Maximum number of per-attribute model states kept resident
        (LRU-evicted beyond that; ``None`` = unbounded).  Defaults to the
        process-wide knob of :mod:`repro.config`.
    refresh_policy:
        ``"lazy"`` (default knob) folds pending mutations into a model
        state on the next imputation touching its attribute, so bursts of
        appends/deletes/updates amortise into one refresh; ``"eager"``
        refreshes every cached state inside each mutating call.
    journal_capacity:
        Mutation-journal ring capacity (defaults to the process-wide
        knob).  Entries hold store slot references only; overflowing
        entries spill, bounding journal memory, and states older than the
        spill floor full-rebuild instead of replaying.

    Examples
    --------
    >>> engine = OnlineImputationEngine(k=5, learning="fixed", learning_neighbors=3)
    >>> engine.append(complete_rows)                    # doctest: +SKIP
    >>> engine.update(3, corrected_row)                 # doctest: +SKIP
    >>> engine.delete([0, 17])                          # doctest: +SKIP
    >>> filled = engine.impute_batch(rows_with_nans)    # doctest: +SKIP
    >>> engine.snapshot("artifacts/engine")             # doctest: +SKIP
    """

    def __init__(
        self,
        imputer: Optional[IIMImputer] = None,
        *,
        model_cache_size="default",
        refresh_policy: Optional[str] = None,
        journal_capacity="default",
        **iim_params,
    ):
        if imputer is None:
            imputer = IIMImputer(**iim_params)
        elif iim_params:
            raise ConfigurationError(
                "pass either an imputer instance or IIM keyword arguments, not both"
            )
        if not isinstance(imputer, IIMImputer):
            raise ConfigurationError(
                f"OnlineImputationEngine wraps an IIMImputer, got {type(imputer).__name__}"
            )
        self.imputer = imputer
        self.model_cache_size = config.resolve("model_cache_size", model_cache_size)
        self.refresh_policy = config.resolve("refresh_policy", refresh_policy)
        self.journal_capacity = config.resolve("journal_capacity", journal_capacity)

        self._schema: Optional[Schema] = None
        self._store: Optional[ColumnarTupleStore] = None
        self._pending: Optional[np.ndarray] = None
        self._version = 0
        # (version, column means) of the last impute; reused until a
        # mutation moves _version.
        self._means: Optional[Tuple[int, np.ndarray]] = None
        self._journal = MutationJournal(self.journal_capacity)
        self._states: "OrderedDict[int, _AttributeState]" = OrderedDict()
        self.stats: Dict[str, int] = {
            "appends": 0,
            "appended_rows": 0,
            "deletes": 0,
            "deleted_rows": 0,
            "updates": 0,
            "impute_batches": 0,
            "imputed_cells": 0,
            "full_refreshes": 0,
            "incremental_refreshes": 0,
            # Always 0; perfbench reads it as engine.hybrid_full_rebuilds.
            "hybrid_full_rebuilds": 0,
            "rows_refreshed": 0,
            # Ordering rows re-filled from a fresh distance row, all states.
            "order_refill_rows": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_evictions": 0,
            "journal_spills": 0,
            "read_cache_hits": 0,
            "read_cache_misses": 0,
        }

    # ------------------------------------------------------------------ #
    # Store
    # ------------------------------------------------------------------ #
    @property
    def _n(self) -> int:
        return 0 if self._store is None else self._store.n_live

    @property
    def n_tuples(self) -> int:
        """Number of complete tuples currently stored."""
        return self._n

    @property
    def n_pending(self) -> int:
        """Number of incomplete tuples waiting in the pending side-store.

        Pending tuples are appended with ``allow_incomplete=True``; they are
        never used for model learning or neighbour search, but the query
        layer scans them (missing cells impute on demand against the
        complete store).
        """
        return 0 if self._pending is None else int(self._pending.shape[0])

    @property
    def store(self) -> ColumnarTupleStore:
        """The shared columnar tuple store (raises before the first append)."""
        if self._store is None:
            raise NotFittedError(
                "the engine has no store yet; append complete tuples first"
            )
        return self._store

    @property
    def n_attributes(self) -> int:
        """Schema width ``m`` (raises before the first append)."""
        if self._schema is None:
            raise NotFittedError("the engine has no schema yet; append tuples first")
        return self._schema.width

    @property
    def schema(self) -> Schema:
        """The engine's schema (raises before the first append)."""
        if self._schema is None:
            raise NotFittedError("the engine has no schema yet; append tuples first")
        return self._schema

    def _store_matrix(self) -> np.ndarray:
        if self._n == 0:
            raise NotFittedError(
                "the engine store is empty; append complete tuples first"
            )
        return self._store.matrix()

    def store_relation(
        self, name: str = "", *, include_pending: bool = False
    ) -> Relation:
        """The current store as a :class:`Relation` (for cold comparisons).

        With ``include_pending=True`` the pending incomplete tuples are
        stacked below the complete store (they keep their ``NaN`` cells) —
        the relation the query layer evaluates, where row index ``i``
        addresses the complete store for ``i < n_tuples`` and pending row
        ``i - n_tuples`` afterwards.
        """
        if include_pending and self.n_pending:
            if self._n:
                matrix = np.vstack([self._store_matrix(), self._pending])
            elif self._schema is None:
                raise NotFittedError(
                    "the engine has no schema yet; append tuples first"
                )
            else:
                matrix = np.array(self._pending, dtype=float)
            return Relation(matrix, self._schema, name=name)
        return Relation(self._store_matrix(), self._schema, name=name)

    @classmethod
    def from_relation(
        cls, relation: Relation, *, model_cache_size="default",
        refresh_policy: Optional[str] = None,
        journal_capacity="default", **iim_params,
    ) -> "OnlineImputationEngine":
        """Build an engine seeded with the complete part of ``relation``."""
        engine = cls(
            model_cache_size=model_cache_size,
            refresh_policy=refresh_policy,
            journal_capacity=journal_capacity,
            **iim_params,
        )
        engine.append(relation.complete_part())
        return engine

    # ------------------------------------------------------------------ #
    # Mutations
    # ------------------------------------------------------------------ #
    def append(
        self,
        rows: Union[np.ndarray, Relation],
        *,
        allow_incomplete: bool = False,
    ) -> "OnlineImputationEngine":
        """Add complete tuples to the store.

        ``rows`` may be an array of shape ``(b, m)`` (or a single tuple of
        length ``m``) or a :class:`Relation`; tuples containing missing
        cells are rejected — impute them first, then append the result.
        An empty batch is a true no-op (no counters, no refresh work).

        With ``allow_incomplete=True`` incomplete tuples are accepted into
        the pending side-store instead of being rejected: they never feed
        model learning or neighbour search, but the query layer scans them
        and imputes their missing cells on demand (see
        :meth:`store_relation`).  Complete tuples in the same batch take
        the normal store path.

        Under the ``"eager"`` refresh policy every cached model state is
        updated before the call returns; under ``"lazy"`` the work is
        deferred (and batched) until the next imputation.
        """
        if isinstance(rows, Relation):
            if self._schema is not None and rows.schema.attributes != self._schema.attributes:
                raise DataError(
                    "appended relation schema does not match the engine schema"
                )
            schema = rows.schema
            values = rows.raw.copy()
        else:
            values = np.atleast_2d(np.asarray(rows, dtype=float))
            if values.shape[0]:
                values = as_float_matrix(values, name="rows", allow_nan=True)
            schema = None
        if np.isnan(values).any() and not allow_incomplete:
            raise DataError(
                "append accepts complete tuples only; impute missing cells first"
            )
        if self._schema is None:
            self._schema = schema or Schema.default(values.shape[1])
        elif values.shape[1] != self._schema.width:
            raise DataError(
                f"appended rows have {values.shape[1]} attributes, the engine "
                f"store has {self._schema.width}"
            )
        if allow_incomplete and values.size and np.isnan(values).any():
            incomplete = np.isnan(values).any(axis=1)
            pending = np.array(values[incomplete], dtype=float)
            if self._pending is None:
                self._pending = pending
            else:
                self._pending = np.vstack([self._pending, pending])
            values = values[~incomplete]

        b = values.shape[0]
        if b == 0:
            return self
        with engine_phase("append"):
            if self._store is None:
                self._store = ColumnarTupleStore(self._schema.width)
            slots = self._store.append(np.asarray(values, dtype=float))
            self.stats["appends"] += 1
            self.stats["appended_rows"] += b
            self._record("append", slots)
        return self

    def promote_pending(self) -> int:
        """Impute every pending incomplete tuple and move it into the store.

        The pending rows are imputed in one batch against the current
        store (identical to :meth:`impute_batch` on them), appended as
        complete tuples, and the side-store is cleared.  Returns the
        number of promoted rows; a no-op (returning 0) when nothing is
        pending.
        """
        if not self.n_pending:
            return 0
        imputed = self.impute_batch(self._pending)
        self._pending = None
        self.append(imputed)
        return int(imputed.shape[0])

    def delete(self, indices) -> "OnlineImputationEngine":
        """Remove tuples from the store by (current) store index.

        ``indices`` is one index or an array of indices into the current
        store; duplicates are tolerated.  Surviving tuples are compacted in
        order, so index ``j > i`` becomes ``j - |removed ≤ j|``.  Cached
        model states repair their neighbour orderings, models and
        validation costs incrementally.  Deleting every tuple empties the
        store (the schema is kept; streaming can resume with fresh
        appends).
        """
        if self._n == 0:
            raise NotFittedError(
                "the engine store is empty; append complete tuples first"
            )
        indices = np.unique(np.atleast_1d(np.asarray(indices, dtype=int)))
        if indices.size == 0:
            return self
        if indices[0] < 0 or indices[-1] >= self._n:
            raise ConfigurationError(
                f"delete indices must lie in [0, {self._n}), got "
                f"[{indices[0]}, {indices[-1]}]"
            )
        retired = self._store.delete(indices)
        self.stats["deletes"] += 1
        self.stats["deleted_rows"] += int(indices.size)
        if self._n == 0:
            # No state can outlive an empty store; the next append restarts.
            self._version += 1
            self._states.clear()
            self._release_entries(self._journal.clear())
            self._journal.advance_floor(self._version)
            self._store.release(retired)
            return self
        self._record("delete", (indices, retired), owned_slots=retired)
        return self

    def update(self, index: int, row) -> "OnlineImputationEngine":
        """Replace the tuple at store ``index`` with a revised complete tuple."""
        if self._n == 0:
            raise NotFittedError(
                "the engine store is empty; append complete tuples first"
            )
        index = int(index)
        if not 0 <= index < self._n:
            raise ConfigurationError(
                f"update index must lie in [0, {self._n}), got {index}"
            )
        row = np.asarray(row, dtype=float).ravel()
        if row.shape[0] != self._schema.width:
            raise DataError(
                f"updated row has {row.shape[0]} attributes, the engine store "
                f"has {self._schema.width}"
            )
        if np.isnan(row).any():
            raise DataError(
                "update accepts complete tuples only; impute missing cells first"
            )
        old_slot, new_slot = self._store.update(index, row)
        self.stats["updates"] += 1
        self._record(
            "update", (index, old_slot, new_slot), owned_slots=[old_slot]
        )
        return self

    def _release_entries(self, entries) -> None:
        """Hand the slots owned by dead journal entries back to the store."""
        if self._store is None:
            return
        for _, op, payload in entries:
            if op == "delete":
                self._store.release(payload[1])
            elif op == "update":
                self._store.release([payload[1]])

    def _record(self, op: str, payload, owned_slots=None) -> None:
        """Journal one mutation and run eager refreshes.

        With no resident model state there is nothing that could ever
        replay the entry (a state built later always starts from a full
        rebuild), so the entry is not retained — and any slots it would
        have kept readable are recycled immediately.
        """
        self._version += 1
        if not self._states:
            self._journal.advance_floor(self._version)
            if owned_slots is not None:
                self._store.release(owned_slots)
            return
        spilled = self._journal.record(self._version, op, payload)
        if spilled:
            self.stats["journal_spills"] += len(spilled)
            self._release_entries(spilled)
        if self.refresh_policy == "eager":
            for state in self._states.values():
                state.sync()

    def _pending_ops(self, version: int) -> Optional[List[Tuple[str, object]]]:
        """Ops recorded after ``version``, or ``None`` if some were spilled."""
        return self._journal.since(version)

    def _prune_journal(self) -> None:
        """Drop journal entries every resident state has already replayed."""
        if not len(self._journal):
            return
        versions = [state.version for state in self._states.values()]
        horizon = min(versions) if versions else self._version
        self._release_entries(self._journal.prune(horizon))

    # ------------------------------------------------------------------ #
    # Model cache
    # ------------------------------------------------------------------ #
    def _get_state(self, target_index: int) -> _AttributeState:
        state = self._states.get(target_index)
        if state is None:
            self.stats["cache_misses"] += 1
            if (
                self.model_cache_size is not None
                and len(self._states) >= self.model_cache_size
            ):
                self._states.popitem(last=False)
                self.stats["cache_evictions"] += 1
                self._prune_journal()
            state = _AttributeState(self, target_index)
            self._states[target_index] = state
        else:
            self.stats["cache_hits"] += 1
            self._states.move_to_end(target_index)
        state.sync()
        return state

    def cached_attributes(self) -> List[int]:
        """Target attributes with a resident model state (LRU order, oldest first)."""
        return list(self._states)

    def memory_stats(self) -> Dict[str, int]:
        """Resident-memory accounting across the store, journal and states.

        ``state_slot_bytes`` is the slot references of the states' store
        views; ``state_block_bytes`` is the rows those views have gathered
        and keep for reads (one ``(n, m-1)`` feature block each), zero for
        a view no read or repair has touched yet.
        ``state_order_bytes`` is the neighbour caches' backing orderings,
        distances and valid lengths, slack columns included.
        """
        store = self._store
        state_slot_bytes = 0
        state_block_bytes = 0
        state_order_bytes = 0
        state_model_bytes = 0
        for state in self._states.values():
            if state.cache is None:
                continue
            state_slot_bytes += int(state.cache.slots.nbytes)
            state_block_bytes += state.cache.data.gathered_bytes
            state_order_bytes += state.cache.order_nbytes
            for array in (
                state.parameters, state.all_parameters, state.costs,
                state.global_costs, state.owners, state.counts,
            ):
                if array is not None:
                    state_model_bytes += int(np.asarray(array).nbytes)
            if state.models is not None:
                state_model_bytes += int(state.models.parameters.nbytes)
        return {
            "store_bytes": 0 if store is None else store.nbytes,
            "pending_slots": 0 if store is None else store.n_pending,
            "free_slots": 0 if store is None else store.n_free,
            "recycled_slots": 0 if store is None else store.recycled_slots,
            "journal_entries": len(self._journal),
            "journal_capacity": self.journal_capacity,
            "journal_bytes": self._journal.nbytes,
            "state_slot_bytes": state_slot_bytes,
            "state_block_bytes": state_block_bytes,
            "state_order_bytes": state_order_bytes,
            "state_model_bytes": state_model_bytes,
        }

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def impute_batch(
        self,
        queries: Union[np.ndarray, Relation],
        *,
        collect_provenance: bool = False,
    ) -> Union[np.ndarray, Tuple[np.ndarray, List[Dict[str, object]]]]:
        """Impute every missing cell of a batch of query tuples.

        ``queries`` is an array of shape ``(q, m)`` (or one tuple of length
        ``m``) with NaN marking the missing cells; a :class:`Relation` with
        the engine's schema is accepted too.  Returns a float array of
        shape ``(q, m)`` with every missing cell filled — equal (to ``rtol =
        1e-9``) to what a cold ``IIMImputer`` refit over the engine's store
        would produce.

        With ``collect_provenance=True`` the return value is a pair
        ``(values, provenance)`` where ``provenance`` holds one dict per
        imputed cell: row/attribute addressing, the imputed value, the
        method and combiner, the neighbour store indices with their
        distances, per-neighbour learning sizes ℓ, the combiner weights,
        and a ``confidence`` score (the largest normalised weight).

        The engine always runs the vectorized kernels; the cold
        ``IIMImputer(backend="loop")`` is the reference they are checked
        against.
        """
        if self._n == 0:
            raise NotFittedError(
                "the engine store is empty; append complete tuples first"
            )
        if isinstance(queries, Relation):
            if queries.schema.attributes != self._schema.attributes:
                raise DataError(
                    "imputed relation schema does not match the engine schema"
                )
            values = queries.raw.copy()
        else:
            values = np.atleast_2d(np.asarray(queries, dtype=float)).copy()
        if values.ndim != 2 or values.shape[1] != self._schema.width:
            raise DataError(
                f"queries must have {self._schema.width} attributes, got shape "
                f"{values.shape}"
            )
        mask = np.isnan(values)
        self.stats["impute_batches"] += 1
        provenance: List[Dict[str, object]] = []
        if not mask.any():
            return (values, provenance) if collect_provenance else values
        if self._schema.width == 1:
            raise DataError("cannot impute a relation with a single attribute")

        # Query features are pre-filled with store column means, exactly as
        # the batch orchestration of BaseImputer does.  They depend only on
        # the store contents, so they are gathered (per column; the store
        # matrix is never materialised) once per store version.
        if self._means is None or self._means[0] != self._version:
            self._means = (self._version, np.array(
                [self._store.column(a).mean() for a in range(self._schema.width)]
            ))
            self.stats["read_cache_misses"] += 1
        else:
            self.stats["read_cache_hits"] += 1
        filled = np.where(mask, self._means[1][None, :], values)

        imputer = self.imputer
        k = min(imputer.k, self._n)
        for target_index in np.flatnonzero(mask.any(axis=0)):
            # A state's view keeps its gathered rows until a mutation gives
            # the state a new view (see StoreFeatureView): the read reuses
            # them when the state is current and an earlier call gathered.
            state = self._states.get(int(target_index))
            reused = (
                state is not None and state.current and state.cache.data.gathered
            )
            self.stats["read_cache_hits" if reused else "read_cache_misses"] += 1
            # Syncing the state may replay pending mutations — those get
            # their own phases; the kernel span covers only the search +
            # candidate combination below.
            state = self._get_state(int(target_index))
            rows = np.flatnonzero(mask[:, target_index])
            query_block = filled[np.ix_(rows, state.feature_indices)]
            with engine_phase("impute_kernel"):
                # One exact top-K over the view's kept block, candidates
                # straight off the model stack.
                searcher = ShardedNeighbors(state.cache.data, metric=imputer.metric)
                distances, neighbor_indices = searcher.kneighbors(query_block, k)
                designs = batched_design(query_block)
                candidates = np.einsum(
                    "qp,qkp->qk", designs, state.models.parameters[neighbor_indices]
                )
                combined, weights = get_batch_combiner(imputer.combination)(
                    candidates, distances
                )
                values[rows, target_index] = combined
                if collect_provenance:
                    learning = np.asarray(
                        state.models.learning_neighbors
                    )[neighbor_indices]
                    attribute = self._schema.attributes[int(target_index)]
                    for position, row in enumerate(rows):
                        cell_weights = np.asarray(weights[position], dtype=float)
                        total = float(cell_weights.sum())
                        confidence = (
                            float(cell_weights.max() / total)
                            if total > 0
                            else 1.0 / max(int(k), 1)
                        )
                        provenance.append(
                            {
                                "row": int(row),
                                "attribute": attribute,
                                "attribute_index": int(target_index),
                                "value": float(combined[position]),
                                "method": imputer.name,
                                "combination": imputer.combination,
                                "k": int(k),
                                "neighbors": [
                                    int(n) for n in neighbor_indices[position]
                                ],
                                "distances": [
                                    float(d) for d in distances[position]
                                ],
                                "weights": [float(w) for w in cell_weights],
                                "learning_neighbors": [
                                    int(l) for l in learning[position]
                                ],
                                "confidence": confidence,
                            }
                        )
            self.stats["imputed_cells"] += int(rows.shape[0])
            observe_imputed_cells(int(rows.shape[0]), kind="online")
        return (values, provenance) if collect_provenance else values

    def impute_relation(self, relation: Relation) -> Relation:
        """Convenience wrapper returning a :class:`Relation`."""
        return relation.with_values(self.impute_batch(relation))

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def snapshot(
        self,
        path: Union[str, Path],
        *,
        manifest_extra: Optional[Dict[str, object]] = None,
        injector=None,
    ) -> Path:
        """Persist the engine (store, index, models, costs) as an artifact.

        Pending lazy mutations are folded into every resident state first,
        so the artifact always holds fully-synced states.  The artifact
        directory holds the manifest + arrays files (written atomically,
        see :func:`~repro.online.artifacts.write_artifact`); :meth:`load`
        restores an engine whose subsequent imputations are bit-identical
        to this one's.  ``manifest_extra`` merges extra top-level manifest
        fields (the session layer records its WAL position there);
        ``injector`` threads a fault plan through the artifact writer.
        """
        if self._schema is None:
            raise NotFittedError("cannot snapshot an engine with no schema")
        if self._n:
            for state in self._states.values():
                state.sync()
            self._prune_journal()
        manifest: Dict[str, object] = {
            "engine": {
                "model_cache_size": self.model_cache_size,
                "refresh_policy": self.refresh_policy,
                "journal_capacity": self.journal_capacity,
            },
            "store": {"n_rows": self._n, "n_pending": self.n_pending},
            "lifecycle": {"version": self._version},
            "imputer": {
                "class": type(self.imputer).__name__,
                "params": self.imputer.get_params(),
            },
            "schema": list(self._schema.attributes),
            "n_rows": self._n,
            "stats": dict(self.stats),
            "states": [],
        }
        arrays: Dict[str, np.ndarray] = {
            "store": self._store_matrix() if self._n else np.empty((0, 0))
        }
        if self.n_pending:
            arrays["pending"] = np.array(self._pending, dtype=float)
        for target_index, state in self._states.items():
            if state.cache is None:
                continue
            manifest["states"].append(state.state_metadata())
            for key, value in state.state_arrays().items():
                arrays[f"state{target_index}_{key}"] = value
        if manifest_extra:
            manifest.update(manifest_extra)
        return write_artifact(path, "engine", manifest, arrays, injector=injector)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "OnlineImputationEngine":
        """Restore an engine saved with :meth:`snapshot`.

        Reads manifest version 3 (older versions are rejected by
        :func:`~repro.online.artifacts.read_artifact`); a missing store
        section or a store row count that disagrees with the manifest is
        rejected with a re-create hint.
        """
        manifest, arrays = read_artifact(path, expected_kind="engine")
        imputer_info = manifest.get("imputer") or {}
        if imputer_info.get("class") != IIMImputer.__name__:
            raise ConfigurationError(
                f"engine artifact stores imputer class {imputer_info.get('class')!r}, "
                f"expected {IIMImputer.__name__!r}"
            )
        engine_info = manifest.get("engine") or {}
        store_info = manifest.get("store")
        if not isinstance(store_info, dict):
            raise ConfigurationError(
                f"engine artifact at {path} is missing its store section "
                f"(corrupt store metadata); re-create the snapshot"
            )
        if int(store_info.get("n_rows", -1)) != int(manifest.get("n_rows", 0)):
            raise ConfigurationError(
                f"engine artifact at {path} carries corrupt store metadata "
                f"(store rows disagree with the manifest); re-create the "
                f"snapshot"
            )
        engine = cls(
            IIMImputer(**(imputer_info.get("params") or {})),
            model_cache_size=engine_info.get("model_cache_size"),
            refresh_policy=engine_info.get("refresh_policy"),
            journal_capacity=engine_info.get("journal_capacity", "default"),
        )
        schema = manifest.get("schema") or []
        store = arrays["store"]
        n_rows = int(manifest.get("n_rows", 0))
        if store.shape[0] != n_rows:
            raise ConfigurationError(
                f"engine artifact store has {store.shape[0]} rows, manifest "
                f"promises {n_rows}"
            )
        pending = arrays.get("pending")
        if n_rows or (pending is not None and pending.shape[0]):
            engine._schema = Schema([str(a) for a in schema])
        if n_rows:
            engine._store = ColumnarTupleStore(engine._schema.width)
            engine._store.append(np.array(store, dtype=float))
        if pending is not None and pending.shape[0]:
            engine._pending = np.array(pending, dtype=float)
        lifecycle = manifest.get("lifecycle") or {}
        engine._version = int(lifecycle.get("version", 0))
        engine._journal.advance_floor(engine._version)
        stats = manifest.get("stats") or {}
        for key in engine.stats:
            if key in stats:
                engine.stats[key] = int(stats[key])
        for metadata in manifest.get("states") or []:
            target_index = int(metadata["target_index"])
            prefix = f"state{target_index}_"
            state_arrays = {
                key[len(prefix):]: value
                for key, value in arrays.items()
                if key.startswith(prefix)
            }
            engine._states[target_index] = _AttributeState.restore(
                engine, metadata, state_arrays
            )
        return engine

    def __repr__(self) -> str:
        width = "?" if self._schema is None else self._schema.width
        return (
            f"OnlineImputationEngine(n={self._n}, m={width}, "
            f"cached_attributes={list(self._states)}, "
            f"refresh={self.refresh_policy!r})"
        )
