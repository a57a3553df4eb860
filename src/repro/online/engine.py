"""The online imputation engine: streaming tuple lifecycle from warm models.

The batch :class:`~repro.core.iim.IIMImputer` relearns everything from
scratch on every ``fit``; this module keeps a *long-lived* engine instead:

* :meth:`OnlineImputationEngine.append` adds complete tuples,
  :meth:`OnlineImputationEngine.delete` removes tuples by store index and
  :meth:`OnlineImputationEngine.update` revises one tuple in place — the
  full lifecycle a production store sees (inserts, retractions, late
  corrections).  Every cached per-attribute model state is maintained
  **incrementally**: the neighbour index absorbs the mutations exactly
  (:meth:`~repro.neighbors.NeighborOrderCache.repair`), only the tuples
  whose neighbour prefix — or whose prefix *values* — actually changed have
  their candidate models relearned, and of those only the candidates that
  read the changed part of the prefix (through the batched Proposition 3
  kernel :func:`~repro.core.learning.learn_candidate_models_for_rows`), and
  only the validation-cost rows whose validator set changed are rebuilt.
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

Deferred maintenance: the slot diff
-----------------------------------
Under the ``"lazy"`` refresh policy a cached state may lag the store by
any number of mutations.  Its view records the store slots it last saw
and the store's ``live_slots`` what is live now.  Surviving rows keep
their order ahead of every appended row, so the difference is always one
run of revised rows, one run of deleted rows and one run of appended
rows.  On the next imputation touching the state those runs replay in two
phases: one neighbour-cache repair carries all three runs and the state
maintains its owner matrix, per-row ranks and cost-dirty rows from it
once, then ONE batched relearn + cost rebuild + selection runs over the
dirty rows.  A burst of mutations, however long or interleaved, thus
costs one repair and one refresh.
The payloads are durable in the columnar store the moment a mutation
lands; a retired row version stays readable (MVCC style) while a lagging
view holds it, since the repair reads it, and returns to the free
list once none does.  When the replay would change the state's
*structure* after the removal or at the end (the candidate ℓ grid still
growing towards ``max_learning_neighbors``, the validation ``k`` clamped
by a small ``n``, the global candidate toggling), the state falls back to
one full relearn over the final store instead — structure changes
reshape every array anyway.  ``stats`` counts each full relearn by
reason: no resident state, a state the store's emptying dropped, or a
structure change.

Exactness of the incremental maintenance
----------------------------------------
Candidate ``ℓ``'s model is learned from the first ``ℓ`` tuples of a
tuple's neighbour ordering only (the prefix statistics of Proposition 3).
A replay therefore carries, per row, the first *rank* of its ordering
that changed: the minimum of the repair's ``first_changed`` (the first
position whose neighbour moved) and ``first_revised`` (the first position
holding a revised tuple, which changes a model's *values* without moving
in any ordering), and 0 for appended and revised rows.  A row is
model-dirty when its rank is below the largest candidate, and only its
candidates with ``ℓ > rank`` are re-solved; every other ``(row, ℓ)``
model reads an unchanged prefix and keeps the value a cold build
computes.  The solved ones come from the same kernel, so they are bit for
bit the cold values too.

Adaptive learning (Algorithm 3) gives every complete tuple ``i`` a cost row
``cost[i][ℓ]`` summed, validator by validator, over the validation tuples
``j`` that count ``i`` among their ``k`` nearest neighbours.  A mutation
can change that row in exactly these ways: (1) ``i``'s own candidate
models changed, (2) some validator ``j`` gained or lost ``i`` in its
top-``k`` over the replay (one set difference against ``j``'s renumbered
old owners: an owner that only moved within ``j``'s list keeps its sum),
(3) a validator appeared, disappeared, or changed value,
or (4) a deletion renumbered one of ``i``'s validators into another block
of the scatter kernel, which sums each block separately.  The engine
rebuilds exactly those rows with the cold path's scatter-add kernel
(:func:`~repro.core.adaptive.scatter_validation_costs`): its blocks hold
whole validators, so a rebuilt row groups its sum as a full pass over the
same store does, and untouched rows keep values a cold run would
reproduce.  The ``ℓ = n`` global candidate moves on *every* mutation; its
single ridge fit and its cost column are recomputed each refresh, through
:func:`~repro.core.adaptive.global_validation_costs`, the helper the cold
path prices it with.  Every state array of a refreshed state therefore
equals a fresh build over the same store.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .._validation import as_float_matrix, as_float_vector
from .. import config
from ..core.adaptive import (
    adaptive_learning,
    global_validation_costs,
    scatter_validation_costs,
    validator_block,
)
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
from .store import ColumnarTupleStore, ShardedNeighbors

__all__ = ["OnlineImputationEngine"]


def _regrown(array: np.ndarray, kept: np.ndarray, n: int, axis: int) -> np.ndarray:
    """``array`` restricted to the rows ``kept`` along ``axis``, in order,
    then grown with zero rows to ``n``."""
    shape = list(array.shape)
    shape[axis] = n
    grown = np.zeros(shape)
    head = [slice(None)] * array.ndim
    head[axis] = slice(0, kept.shape[0])
    if kept.shape[0] == array.shape[axis]:  # nothing deleted
        grown[tuple(head)] = array
    else:
        grown[tuple(head)] = np.take(array, kept, axis=axis)
    return grown


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
        diff = None
        if self.cache is not None:
            diff = self._slot_diff(self.cache.slots, engine._store.live_slots)
        reason = self._rebuild_reason(diff, signature)
        if reason is not None:
            self._full_build(signature)
            engine._emptied.discard(self.target_index)
            engine.stats["full_refreshes"] += 1
            engine.stats[reason] += 1
            engine.stats["rows_refreshed"] += n
            engine.stats["cost_rows_rebuilt"] += n if self._adaptive else 0
        else:
            # Replay in two phases: one repair maintains the neighbour
            # cache, the owner matrix, the ranks and the dirty costs; the
            # model relearn + cost scatter + selection then runs once over
            # the final state — exact, because models and costs depend only
            # on the final store, and rows the repair left clean kept cold
            # values.
            refilled = self.cache.refilled_rows
            with engine_phase("order_maintenance"):
                ranks, dirty_costs = self._track(*diff)
            engine.stats["order_refill_rows"] += self.cache.refilled_rows - refilled
            refreshed, solved, costed = self._finalize_refresh(ranks, dirty_costs)
            engine.stats["incremental_refreshes"] += 1
            engine.stats["rows_refreshed"] += refreshed
            engine.stats["models_solved"] += solved
            engine.stats["cost_rows_rebuilt"] += costed
        self.signature = signature
        self.n_synced = n
        self.version = engine._version
        engine._release_unread()

    def _rebuild_reason(self, diff, final_signature) -> Optional[str]:
        """The ``stats`` counter of the reason the state must rebuild
        instead of replaying ``diff``, or ``None`` when it can replay.

        A state without a view is new: first used, evicted, or dropped
        when the store emptied.  A replay must keep the structure at the
        sizes it passes through: after the removal and at the end.
        """
        if diff is None:
            if self.target_index in self.engine._emptied:
                return "full_refreshes_emptied"
            return "full_refreshes_no_state"
        n_removed = self.n_synced - diff[2].shape[0]
        if (
            final_signature != self.signature
            or n_removed < 1
            or self._signature(n_removed) != self.signature
        ):
            return "full_refreshes_structure"
        return None

    @staticmethod
    def _slot_diff(
        old: np.ndarray, live: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The mutations between a view's ``old`` slots and the ``live``
        slots, as ``(revised, fresh, deleted, appended)``.

        A slot in both is a survivor: the store never recycles a slot a
        resident view holds, and an update writes a fresh slot.  Survivors
        keep their order and appended rows follow them all, so the
        survivors cut both sequences into gaps; in each gap the live rows
        the view lacks pair, in order, with the view's vanished rows — the
        ``revised`` old indices and their ``fresh`` slots.  Unpaired
        vanished rows are the ``deleted`` old indices; unpaired live rows
        lie past the last survivor and are the ``appended`` slots.  Any
        pairing that reproduces the live order gives the same final data,
        so replaying the three runs is exact whatever history produced it.
        """
        size = int(max(old.max(initial=-1), live.max(initial=-1))) + 1
        in_old = np.zeros(size, dtype=bool)
        in_old[old] = True
        in_live = np.zeros(size, dtype=bool)
        in_live[live] = True
        survived, kept = in_live[old], in_old[live]
        vanished, added = np.flatnonzero(~survived), np.flatnonzero(~kept)
        # A row's gap is the number of survivors before it: its position
        # less the non-survivors before it.
        old_gaps = vanished - np.arange(vanished.shape[0])
        new_gaps = added - np.arange(added.shape[0])
        n_gaps = old.shape[0] - vanished.shape[0] + 1

        def paired(gaps, other_gaps):
            rank = np.arange(gaps.shape[0]) - np.searchsorted(gaps, gaps)
            return rank < np.bincount(other_gaps, minlength=n_gaps)[gaps]

        old_paired = paired(old_gaps, new_gaps)
        new_paired = paired(new_gaps, old_gaps)
        return (
            vanished[old_paired],
            live[added[new_paired]],
            vanished[~old_paired],
            live[added[~new_paired]],
        )

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
        self.owners = self._owners_from(self.cache.order_matrix(), k_val, n)
        self.models = result.models

    def _owners_from(self, orders: np.ndarray, k_val: int, n: int) -> np.ndarray:
        if k_val > 0:
            return drop_self_rows(orders[:, : k_val + 1], np.arange(n))[:, :k_val]
        return np.empty((n, 0), dtype=int)

    # ------------------------------------------------------------------ #
    # Dirty tracking (phase 1 of a replay)
    # ------------------------------------------------------------------ #
    def _grid(self) -> np.ndarray:
        """The candidate ``ℓ`` values the state learns (one when fixed)."""
        if self._adaptive:
            return self.candidates
        return np.array([self.signature[1]])

    def _k_val(self) -> int:
        return self.signature[2] if self._adaptive else 0

    @staticmethod
    def _mark_moved_owners(
        dirty_costs: np.ndarray, old_rows: np.ndarray, new_rows: np.ndarray
    ) -> None:
        """Mark the owners that changed validators gained or lost.

        An owner's cost sums its validators' errors in validator order, so
        an owner that only moved within a validator's list keeps its sum.
        ``old_rows`` entries of ``-1`` (deleted owners) are skipped.
        """
        same = old_rows[:, :, None] == new_rows[:, None, :]
        lost = old_rows[~same.any(axis=2)]
        dirty_costs[lost[lost >= 0]] = True
        dirty_costs[new_rows[~same.any(axis=1)]] = True

    def _track(
        self,
        revised: np.ndarray,
        fresh: np.ndarray,
        deleted: np.ndarray,
        appended: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Replay the slot diff's runs through one neighbour-cache repair.

        Returns, over the final rows, each row's first changed rank and
        the cost-dirty owners.
        """
        old_owners = self.owners
        result = self.cache.repair(revised, fresh, deleted, appended)
        kept = result.kept_rows()
        index_map = result.index_map
        n_kept = kept.shape[0]
        n = self.cache.n_points
        moved = index_map[revised]

        # A prefix that still holds a revised tuple changed *values* from
        # its rank on; appended and revised rows learn from scratch.
        ranks = np.zeros(n, dtype=int)
        ranks[:n_kept] = np.minimum(result.first_changed, result.first_revised)
        ranks[moved] = 0
        dirty_costs = np.zeros(n, dtype=bool)

        if not self._adaptive:
            self.parameters = _regrown(self.parameters, kept, n, axis=0)
            return ranks, dirty_costs
        self.all_parameters = _regrown(self.all_parameters, kept, n, axis=1)
        self.costs = _regrown(self.costs, kept, n, axis=0)
        k_val = self._k_val()
        owners = self._owners_from(self.cache.order_matrix(), k_val, n)
        if k_val > 0:
            # Owners that surviving validators gained or lost...
            changed = np.flatnonzero(result.first_changed < k_val + 1)
            if changed.size:
                self._mark_moved_owners(
                    dirty_costs,
                    index_map[old_owners[kept[changed]]],
                    owners[changed],
                )
            # ...every owner of a deleted or revised validator, before and
            # after, and of an appended one: their squared errors changed...
            lost = index_map[old_owners[np.concatenate([deleted, revised])]]
            dirty_costs[lost[lost >= 0]] = True
            dirty_costs[owners[moved]] = True
            dirty_costs[owners[n_kept:]] = True
            # ...and the owners of validators renumbered into another
            # scatter block, whose sums now group differently.
            if deleted.size:
                span = validator_block(k_val)
                shifted = np.flatnonzero(kept // span != np.arange(n_kept) // span)
                dirty_costs[owners[shifted]] = True
        self.owners = owners
        return ranks, dirty_costs

    # ------------------------------------------------------------------ #
    # Batched refresh (phase 2 of a replay)
    # ------------------------------------------------------------------ #
    def _finalize_refresh(
        self, ranks: np.ndarray, dirty_costs: np.ndarray
    ) -> Tuple[int, int, int]:
        """One batched relearn + cost rebuild + selection over the dirty rows.

        Returns the model-dirty rows, the ``(row, ℓ)`` models solved and
        the cost rows rebuilt.
        """
        imputer = self._imputer
        n = self.cache.n_points
        grid = self._grid()
        model_rows = np.flatnonzero(ranks < grid[-1])
        # Candidate ℓ reads the first ℓ neighbours: solve those with ℓ > rank.
        first = np.searchsorted(grid, ranks[model_rows], side="right")
        features = self.cache.data.block()
        target = self.target_column()

        with engine_phase("subset_relearn"):
            if model_rows.size:
                refreshed = learn_candidate_models_for_rows(
                    features,
                    target,
                    grid,
                    self.cache.order_matrix()[model_rows],
                    alpha=imputer.alpha,
                    incremental=imputer.incremental if self._adaptive else True,
                    first_solved=first,
                )
                stack = self.all_parameters if self._adaptive else self.parameters[None]
                for index in range(grid.shape[0]):
                    solved = first <= index
                    stack[index, model_rows[solved]] = refreshed[index, solved]
            n_solved = int(grid.shape[0] * model_rows.shape[0] - first.sum())
            if not self._adaptive:
                self.models = IndividualModels(
                    self.parameters, np.full(n, grid[0], dtype=int)
                )
                return int(model_rows.shape[0]), n_solved, 0

            # The global ℓ = n candidate changes on every mutation.
            _, _, k_val, global_active = self.signature
            if global_active:
                self.global_params = (
                    RidgeRegression(alpha=imputer.alpha).fit(features, target).coefficients
                )

        with engine_phase("cost_rebuild"):
            dirty_costs[model_rows] = True
            designs = batched_design(features)
            n_costed = int(dirty_costs.sum()) if k_val > 0 else 0
            if n_costed:
                # The cold validation kernel, restricted to the dirty
                # owners: same blocks, same einsum, same bincount order.
                self.costs[dirty_costs] = 0.0
                scatter_validation_costs(
                    self.costs, self.owners, designs, target,
                    self.all_parameters, dirty_costs,
                )
            if global_active and k_val > 0:
                self.global_costs = global_validation_costs(
                    self.owners, designs, target, self.global_params
                )
            else:
                self.global_costs = np.zeros(n)
            self.counts = (
                np.bincount(self.owners.ravel(), minlength=n).astype(int)
                if k_val > 0
                else np.zeros(n, dtype=int)
            )
            self._select(n)
        return int(model_rows.shape[0]), n_solved, n_costed

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

        self._schema: Optional[Schema] = None
        self._store: Optional[ColumnarTupleStore] = None
        self._pending: Optional[np.ndarray] = None
        self._version = 0
        # (version, column means) of the last impute; reused until a
        # mutation moves _version.
        self._means: Optional[Tuple[int, np.ndarray]] = None
        self._states: "OrderedDict[int, _AttributeState]" = OrderedDict()
        # Attributes whose states an emptied store dropped, until rebuilt.
        self._emptied: set = set()
        self.stats: Dict[str, int] = {
            "appends": 0,
            "appended_rows": 0,
            "deletes": 0,
            "deleted_rows": 0,
            "updates": 0,
            "impute_batches": 0,
            "imputed_cells": 0,
            # Full rebuilds by reason: no resident state (first use or an
            # eviction), a state the store's emptying dropped, or a structure
            # change; full_refreshes sums them.
            "full_refreshes": 0,
            "full_refreshes_no_state": 0,
            "full_refreshes_emptied": 0,
            "full_refreshes_structure": 0,
            "incremental_refreshes": 0,
            # Always 0; perfbench reads it as engine.hybrid_full_rebuilds.
            "hybrid_full_rebuilds": 0,
            "rows_refreshed": 0,
            # (row, ℓ) models incremental refreshes re-solved, all states.
            "models_solved": 0,
            # Validation-cost rows rebuilt, full and incremental refreshes.
            "cost_rows_rebuilt": 0,
            # Ordering rows re-filled from a fresh distance row, all states.
            "order_refill_rows": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_evictions": 0,
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
        refresh_policy: Optional[str] = None, **iim_params,
    ) -> "OnlineImputationEngine":
        """Build an engine seeded with the complete part of ``relation``."""
        engine = cls(
            model_cache_size=model_cache_size,
            refresh_policy=refresh_policy,
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
            self._store.append(np.asarray(values, dtype=float))
            self.stats["appends"] += 1
            self.stats["appended_rows"] += b
            self._record()
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
        self._store.delete(indices)
        self.stats["deletes"] += 1
        self.stats["deleted_rows"] += int(indices.size)
        if self._n == 0:
            # No state can outlive an empty store; the next append restarts,
            # and each dropped attribute's next build counts as emptied.
            self._emptied.update(self._states)
            self._states.clear()
        self._record()
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
        row = as_float_vector(row, name="updated row", allow_nan=True)
        if row.shape[0] != self._schema.width:
            raise DataError(
                f"updated row has {row.shape[0]} attributes, the engine store "
                f"has {self._schema.width}"
            )
        if np.isnan(row).any():
            raise DataError(
                "update accepts complete tuples only; impute missing cells first"
            )
        self._store.update(index, row)
        self.stats["updates"] += 1
        self._record()
        return self

    def _record(self) -> None:
        """Version a landed mutation, recycle what no state can read, and
        run eager refreshes."""
        self._version += 1
        self._release_unread()
        if self.refresh_policy == "eager":
            for state in self._states.values():
                state.sync()

    def _release_unread(self) -> None:
        """Recycle every retired slot that no lagging state's view holds.

        A current state's view is the live order, so only a lagging view
        can still read a retired version: the retained slots are bounded by
        the lagging views.  Runs after each event that retires a slot or
        ends a lag — a mutation, a sync, an eviction.
        """
        if self._store is not None:
            self._store.release_unheld(
                state.cache.slots
                for state in self._states.values()
                if state.cache is not None and not state.current
            )

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
                self._release_unread()
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
        """Resident-memory accounting across the store and the states.

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
            # Always 0 (no journal); perfbench sums it into resident bytes.
            "journal_bytes": 0,
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
        # NaN marks a missing cell; an infinite one is refused here, before
        # the early return below could echo it back from a complete row.
        infinite = np.isinf(values)
        if infinite.any():
            row, attr = (int(i) for i in np.argwhere(infinite)[0])
            raise DataError(
                f"query row {row} holds {values[row, attr]} in attribute "
                f"{attr}; query cells must be finite numbers or NaN (missing)"
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
        manifest: Dict[str, object] = {
            "engine": {
                "model_cache_size": self.model_cache_size,
                "refresh_policy": self.refresh_policy,
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
