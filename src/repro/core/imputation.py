"""The imputation phase of IIM (Algorithm 2 of the paper).

Given the individual models ``Φ`` learned over the complete tuples, an
incomplete tuple ``t_x`` is imputed in three steps:

* (S1) find its ``k`` nearest complete neighbours on ``F``;
* (S2) ask each neighbour's individual model for a candidate
  ``t^j_x[A_m] = (1, t_x[F]) φ_j`` (Formula 9);
* (S3) combine the candidates, by default with the voting weights of
  Formulas 11–12.

:func:`impute_with_individual_models` runs the three steps for a whole
batch of incomplete tuples.  On the default ``"vectorized"`` backend (see
:mod:`repro.config`) that is one batched k-nearest-neighbour call, one
``einsum`` producing every candidate of every query, and one batch combiner
from :mod:`repro.core.combine`; the ``"loop"`` backend applies
:func:`impute_one` per query as the executable reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .._validation import as_float_matrix, check_positive_int
from .. import config
from ..exceptions import ConfigurationError
from ..neighbors import BruteForceNeighbors
from ..regression import batched_design
from .combine import get_batch_combiner, get_combiner
from .learning import IndividualModels

__all__ = ["ImputationTrace", "impute_with_individual_models", "impute_one"]


@dataclass
class ImputationTrace:
    """Diagnostic record of one imputed value (useful for examples and tests)."""

    value: float
    neighbor_indices: np.ndarray
    neighbor_distances: np.ndarray
    candidates: np.ndarray
    weights: np.ndarray


def impute_one(
    query_features: np.ndarray,
    models: IndividualModels,
    features: np.ndarray,
    target: np.ndarray,
    k: int,
    combination: str = "voting",
    searcher: Optional[BruteForceNeighbors] = None,
    metric: str = "paper_euclidean",
    return_trace: bool = False,
    backend: Optional[str] = None,
):
    """Impute a single incomplete tuple (Algorithm 2).

    Parameters
    ----------
    query_features:
        The incomplete tuple's values on the complete attributes ``F``.
    models:
        Individual models learned over the complete tuples.
    features, target:
        The complete tuples split into ``F`` columns and the incomplete
        attribute column (aligned with ``models``).
    k:
        Number of imputation neighbours.
    combination:
        Candidate combination scheme (``"voting"``, ``"uniform"``,
        ``"distance"``).
    searcher:
        Optional pre-fitted neighbour searcher over ``features``.
    metric:
        Distance metric (used when ``searcher`` is not supplied).
    return_trace:
        Return an :class:`ImputationTrace` instead of the bare value.
    backend:
        Backend for the neighbour search (``"vectorized"``, ``"loop"``, or
        ``None`` to use the searcher's own setting / the global knob).
    """
    features = as_float_matrix(features, name="features")
    k = check_positive_int(k, "k")
    if models.n_models != features.shape[0]:
        raise ConfigurationError("models and features must describe the same tuples")
    if k > features.shape[0]:
        raise ConfigurationError(
            f"k={k} exceeds the number of complete tuples {features.shape[0]}"
        )
    if searcher is None:
        searcher = BruteForceNeighbors(metric=metric).fit(features)
    combiner = get_combiner(combination)

    query_features = np.asarray(query_features, dtype=float).ravel()
    distances, neighbor_indices = searcher.kneighbors(query_features, k, backend=backend)
    candidates = models.predict(neighbor_indices, query_features)
    value, weights = combiner(candidates, distances)
    if not return_trace:
        return float(value)
    return ImputationTrace(
        value=float(value),
        neighbor_indices=neighbor_indices,
        neighbor_distances=distances,
        candidates=candidates,
        weights=weights,
    )


def impute_with_individual_models(
    queries: np.ndarray,
    models: IndividualModels,
    features: np.ndarray,
    target: np.ndarray,
    k: int,
    combination: str = "voting",
    metric: str = "paper_euclidean",
    searcher: Optional[BruteForceNeighbors] = None,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Impute a batch of incomplete tuples with shared models and index.

    Parameters
    ----------
    searcher:
        Optional pre-fitted neighbour searcher over ``features``.
    backend:
        ``"vectorized"``, ``"loop"``, or ``None`` to follow the global knob.
    """
    queries = as_float_matrix(queries, name="queries")
    features = as_float_matrix(features, name="features")
    k = check_positive_int(k, "k")
    if models.n_models != features.shape[0]:
        raise ConfigurationError("models and features must describe the same tuples")
    if k > features.shape[0]:
        raise ConfigurationError(
            f"k={k} exceeds the number of complete tuples {features.shape[0]}"
        )
    if searcher is None:
        searcher = BruteForceNeighbors(metric=metric).fit(features)
    backend = config.resolve("backend", backend)

    if backend == "loop":
        values = np.empty(queries.shape[0])
        for row in range(queries.shape[0]):
            values[row] = impute_one(
                queries[row],
                models,
                features,
                target,
                k,
                combination=combination,
                searcher=searcher,
                backend=backend,
            )
        return values

    # (S1) one batched kNN call for every query.
    distances, neighbor_indices = searcher.kneighbors(queries, k, backend=backend)
    # (S2) all candidates at once: (q, p) designs against (q, k, p) models.
    designs = batched_design(queries)
    candidates = np.einsum("qp,qkp->qk", designs, models.parameters[neighbor_indices])
    # (S3) one batch combination.
    values, _ = get_batch_combiner(combination)(candidates, distances)
    return values
