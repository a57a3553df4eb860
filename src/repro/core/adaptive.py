"""Adaptive learning of the individual models (Algorithm 3 of the paper).

Instead of using one fixed number ``ℓ`` of learning neighbours for every
tuple, adaptive learning considers a set of candidate ``ℓ`` values (``1`` to
``n`` with an optional stepping ``h``, Section V-A2) and selects, *per
tuple*, the candidate whose model best imputes the other complete tuples:

1. learn ``Φ(ℓ)`` for every candidate ``ℓ`` (incrementally, Proposition 3);
2. treat every complete tuple ``t_j`` as a validation tuple: for each of its
   ``k`` nearest neighbours ``t_i``, add the squared error of imputing
   ``t_j[A_m]`` with ``φ^{(ℓ)}_i`` to ``cost[i][ℓ]``;
3. pick ``ℓ*_i = argmin_ℓ cost[i][ℓ]`` and return ``φ_i = φ^{(ℓ*_i)}_i``.

Tuples that never appear among any validation tuple's neighbours have an
empty cost row; they fall back to the candidate that is best summed over all
tuples (a documented deviation — the paper leaves this case unspecified).

The online engine shares this module's cost kernels but not
:func:`adaptive_learning`, whose arrays its fresh builds equal bit for
bit (asserted in the test suite): the function stays an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .._validation import check_positive_float, check_positive_int
from .. import config
from ..exceptions import ConfigurationError
from ..neighbors import NeighborOrderCache
from ..neighbors.brute import drop_self_rows
from ..regression import DEFAULT_ALPHA, RidgeRegression, batched_design
from .learning import IndividualModels, candidate_ell_values, learn_models_for_candidates

__all__ = [
    "AdaptiveLearningResult",
    "adaptive_learning",
    "scatter_validation_costs",
    "global_validation_costs",
    "VALIDATION_PAIR_CHUNK",
]

#: Flattened (validation tuple, model owner) pairs processed per block of
#: the vectorized validation kernel, read at call time.  Blocks hold
#: ``VALIDATION_PAIR_CHUNK // k`` whole validators, so the online engine's
#: partial cost rebuilds, which share this kernel, group every owner's sum
#: exactly as a full pass over the same store does.
VALIDATION_PAIR_CHUNK = 65536


def validator_block(k: int) -> int:
    """Validators per block of :func:`scatter_validation_costs` at ``k``."""
    return max(1, VALIDATION_PAIR_CHUNK // max(1, k))


def scatter_validation_costs(
    costs: np.ndarray,
    owners: np.ndarray,
    designs: np.ndarray,
    target: np.ndarray,
    all_parameters: np.ndarray,
    charged: Optional[np.ndarray] = None,
) -> None:
    """Accumulate squared validation errors onto ``costs`` (in place).

    Validation tuple ``j`` charges every model owner ``i`` in ``owners[j]``
    (its ``k`` nearest neighbours) the squared error of imputing
    ``target[j]`` with each of owner ``i``'s candidate models, added to
    ``costs[i]``: one ``einsum`` per block of validators, one ``bincount``
    per candidate column.  With the boolean ``charged`` mask only the
    pairs whose owner is charged are priced; each charged owner then
    receives the same sums, grouped by the same validator blocks, as in a
    full pass, so a caller that zeroes those rows first rebuilds them
    bit for bit.
    """
    n, n_candidates = costs.shape
    n_validators, k = owners.shape
    span = validator_block(k)
    for start in range(0, n_validators, span):
        block = owners[start:start + span]
        if charged is None:
            j_block = np.repeat(np.arange(start, start + block.shape[0]), k)
            i_block = block.ravel()
        else:
            rows, cols = np.nonzero(charged[block])
            if not rows.size:
                continue
            j_block = rows + start
            i_block = block[rows, cols]
        # (pairs, L): prediction of owner i's candidate models on tuple j
        # (np.take gathers the same rows several times faster than [...]).
        predictions = np.einsum(
            "pc,lpc->pl",
            np.take(designs, j_block, axis=0),
            np.take(all_parameters, i_block, axis=1),
        )
        errors = (target[j_block, None] - predictions) ** 2
        # Scatter-add per candidate column (bincount beats np.add.at here).
        for position in range(n_candidates):
            costs[:, position] += np.bincount(
                i_block, weights=errors[:, position], minlength=n
            )


def global_validation_costs(
    owners: np.ndarray,
    designs: np.ndarray,
    target: np.ndarray,
    global_params: np.ndarray,
) -> np.ndarray:
    """The cost column of the ``ℓ = n`` global model (Proposition 2).

    The model is the same for every owner, so each validator's squared
    error is computed once and charged to its ``k`` owners, block by block
    as in :func:`scatter_validation_costs`.  A cold build and an online
    refresh both price the column here.
    """
    n, k = owners.shape
    # The same per-pair einsum as the candidate columns, once per validator.
    predictions = np.einsum(
        "pc,lpc->pl", designs, np.broadcast_to(global_params, (1, n, designs.shape[1]))
    )
    errors = (target - predictions[:, 0]) ** 2
    costs = np.zeros(n)
    span = validator_block(k)
    for start in range(0, n, span):
        block = owners[start:start + span]
        costs += np.bincount(
            block.ravel(), weights=np.repeat(errors[start:start + span], k), minlength=n
        )
    return costs


@dataclass
class AdaptiveLearningResult:
    """Outcome of Algorithm 3.

    Attributes
    ----------
    models:
        The selected per-tuple models (one ``φ_i`` per tuple).
    candidates:
        The candidate ``ℓ`` values that were evaluated.
    chosen_ell:
        The ``ℓ*_i`` selected for every tuple.
    costs:
        Validation cost matrix of shape ``(n, len(candidates))``; entry
        ``[i, c]`` is ``cost[i][candidates[c]]`` from the paper.
    validation_counts:
        How many validation tuples contributed to each tuple's cost row.
    """

    models: IndividualModels
    candidates: np.ndarray
    chosen_ell: np.ndarray
    costs: np.ndarray
    validation_counts: np.ndarray


def adaptive_learning(
    features,
    target,
    validation_neighbors: int = 10,
    stepping: int = 1,
    max_ell: Optional[int] = None,
    candidates: Optional[Sequence[int]] = None,
    alpha: float = DEFAULT_ALPHA,
    metric: str = "paper_euclidean",
    incremental: bool = True,
    include_global: bool = True,
    backend: Optional[str] = None,
) -> AdaptiveLearningResult:
    """Algorithm 3: select a per-tuple ``ℓ`` by validating against complete tuples.

    Parameters
    ----------
    features:
        Complete tuples restricted to ``F``, shape ``(n, m-1)``.
    target:
        Complete tuples' values on the incomplete attribute, shape ``(n,)``.
    validation_neighbors:
        The ``k`` used when collecting each validation tuple's neighbours
        (Line 4 of Algorithm 3); the paper reuses the imputation ``k``.
    stepping:
        The stepping ``h`` of Section V-A2 (1 = evaluate every ``ℓ``).
    max_ell:
        Optional cap on the largest candidate ``ℓ`` (defaults to ``n``).
    candidates:
        Explicit candidate list overriding ``stepping``/``max_ell``.
    alpha:
        Ridge regularization strength.
    metric:
        Distance metric for all neighbour searches.
    incremental:
        Learn the per-candidate models with the incremental U/V updates of
        Proposition 3 (True) or from scratch per candidate (False).
    include_global:
        Always add ``ℓ = n`` (the global-regression model of Proposition 2)
        to the candidate set, even when ``max_ell``/``stepping`` would skip
        it.  Because the ``ℓ = n`` model is the same for every tuple it is
        learned once, so this costs one extra ridge fit regardless of ``n``.
    backend:
        ``"vectorized"``, ``"loop"``, or ``None`` to follow the global knob
        of :mod:`repro.config`.  The vectorized backend batches the
        per-candidate learning (see :func:`learn_models_for_candidates`) and
        replaces the validator double loop of step 2 with one scatter-add
        over the flattened (validation tuple, model owner) pairs.  Both
        backends agree to ``rtol = 1e-9``.
    """
    features = np.asarray(features, dtype=float)
    target = np.asarray(target, dtype=float).ravel()
    n = features.shape[0]
    validation_neighbors = check_positive_int(validation_neighbors, "validation_neighbors")
    alpha = check_positive_float(alpha, "alpha", allow_zero=True)

    if candidates is None:
        candidate_array = candidate_ell_values(n, stepping=stepping, max_ell=max_ell)
    else:
        candidate_array = np.asarray(list(candidates), dtype=int)
        if candidate_array.size == 0:
            raise ConfigurationError("candidates must contain at least one ℓ value")

    # The ℓ = n candidate (the global model of Proposition 2) is handled
    # specially: its model does not depend on the tuple, so it is learned
    # once instead of per tuple through the neighbour ordering.
    global_candidate = bool(include_global) and n > 1 and int(candidate_array.max()) < n

    # Shared neighbour ordering (self included) reused for both the learning
    # of Φ(ℓ) and, with the self removed, the validation neighbour lookups.
    needed_length = max(int(candidate_array.max()), min(n, validation_neighbors + 1))
    learn_cache = NeighborOrderCache(
        features, metric=metric, include_self=True, max_length=needed_length
    )

    backend = config.resolve("backend", backend)
    all_parameters = learn_models_for_candidates(
        features,
        target,
        candidate_array,
        alpha=alpha,
        metric=metric,
        incremental=incremental,
        order_cache=learn_cache,
        backend=backend,
    )  # shape (L, n, d + 1)

    global_params = None
    stepped_parameters = all_parameters
    if global_candidate:
        global_params = RidgeRegression(alpha=alpha).fit(features, target).coefficients
        global_parameters = np.tile(global_params, (n, 1))[None, :, :]
        all_parameters = np.concatenate([all_parameters, global_parameters], axis=0)
        candidate_array = np.concatenate([candidate_array, [n]])

    k = min(validation_neighbors, n - 1) if n > 1 else 0
    if backend == "vectorized":
        costs, validation_counts = _validation_costs_vectorized(
            features, target, stepped_parameters, global_params, learn_cache, k
        )
    else:
        costs, validation_counts = _validation_costs_loop(
            features, target, all_parameters, learn_cache, k
        )

    # Per-tuple argmin; unvalidated tuples use the globally best candidate.
    chosen_positions = np.argmin(costs, axis=1)
    if (validation_counts == 0).any():
        global_best = int(np.argmin(costs.sum(axis=0)))
        chosen_positions = np.where(validation_counts == 0, global_best, chosen_positions)

    chosen_ell = candidate_array[chosen_positions]
    selected = all_parameters[chosen_positions, np.arange(n), :]
    models = IndividualModels(selected, chosen_ell)
    return AdaptiveLearningResult(
        models=models,
        candidates=candidate_array,
        chosen_ell=chosen_ell,
        costs=costs,
        validation_counts=validation_counts,
    )


def _validation_costs_loop(
    features: np.ndarray,
    target: np.ndarray,
    all_parameters: np.ndarray,
    learn_cache: NeighborOrderCache,
    k: int,
):
    """Reference implementation of Algorithm 3's validation step (lines 3–8)."""
    n = features.shape[0]
    n_candidates = all_parameters.shape[0]
    costs = np.zeros((n, n_candidates))
    validation_counts = np.zeros(n, dtype=int)

    # Gather, for every model owner i, the validation tuples j that count it
    # among their k nearest neighbours (excluding j itself).
    validators = [[] for _ in range(n)]
    if k > 0:
        for j in range(n):
            order = learn_cache.order_of(j)
            neighbors = [idx for idx in order if idx != j][:k]
            for i in neighbors:
                validators[i].append(j)

    designs = batched_design(features)
    for i in range(n):
        rows = validators[i]
        if not rows:
            continue
        validation_counts[i] = len(rows)
        # Predictions of tuple i's candidate models on its validation tuples:
        # (v, d+1) @ (d+1, L) -> (v, L)
        predictions = designs[rows] @ all_parameters[:, i, :].T
        errors = (target[rows, None] - predictions) ** 2
        costs[i] = errors.sum(axis=0)
    return costs, validation_counts


def _validation_costs_vectorized(
    features: np.ndarray,
    target: np.ndarray,
    stepped_parameters: np.ndarray,
    global_params: Optional[np.ndarray],
    learn_cache: NeighborOrderCache,
    k: int,
):
    """Batched validation step: one scatter-add over all (j, i) pairs.

    Every validation tuple ``j`` charges its squared imputation error under
    ``φ^{(ℓ)}_i`` to ``cost[i][ℓ]`` for each of its ``k`` nearest neighbour
    models ``i``; the whole double loop collapses into an ``einsum`` over
    flattened (j, i) pairs followed by a scatter-add on the cost matrix
    (:func:`scatter_validation_costs`).  The ``ℓ = n`` column, when
    ``global_params`` is given, comes last, from
    :func:`global_validation_costs`.
    """
    n = features.shape[0]
    n_stepped = stepped_parameters.shape[0]
    costs = np.zeros((n, n_stepped + (global_params is not None)))
    if k <= 0:
        return costs, np.zeros(n, dtype=int)

    # First k non-self neighbours of every validation tuple j, read off the
    # cached ordering matrix (include_self=True, so the self entry must be
    # dropped — it may sit anywhere among zero-distance ties).
    orders = learn_cache.order_matrix()[:, : k + 1]
    owners = drop_self_rows(orders, np.arange(n))[:, :k]  # (n, k)

    designs = batched_design(features)
    scatter_validation_costs(
        costs[:, :n_stepped], owners, designs, target, stepped_parameters
    )
    if global_params is not None:
        costs[:, n_stepped] = global_validation_costs(
            owners, designs, target, global_params
        )

    validation_counts = np.bincount(owners.ravel(), minlength=n)
    return costs, validation_counts.astype(int)
