"""ERACER-style neighbour regression (Mayfield et al.) — combining g and h.

ERACER models each attribute with a regression over *both* the tuple's own
other attributes (the attribute model ``g``) and aggregate statistics of its
neighbours (the tuple model ``h``) — e.g. a sensor's temperature depends on
its own humidity and on its neighbours' temperature and humidity.  Inference
iterates the regressions until the imputed values stabilise.

This implementation builds, for every tuple, the neighbour-mean vector over
its ``k`` nearest complete tuples and fits a ridge regression from
``[own F values, neighbour means of all attributes]`` to the incomplete
attribute, then applies it to the incomplete tuples with a small number of
refinement rounds.

Backends
--------
The neighbour-mean construction and prediction exist in two implementations
selected through :mod:`repro.config` (or the ``backend`` constructor
argument): ``"vectorized"`` (default) batches the neighbour searches, the
per-tuple neighbour means and the regression predictions over whole blocks
of tuples, while ``"loop"`` iterates tuple by tuple as the executable
reference.  The test suite asserts both agree to ``rtol = 1e-9``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .._validation import check_non_negative_int, check_positive_int
from .. import config
from ..neighbors import BruteForceNeighbors
from ..regression import RidgeRegression
from .base import BaseImputer

__all__ = ["ERACERImputer"]


class ERACERImputer(BaseImputer):
    """Relational (neighbour-augmented) regression imputation.

    Parameters
    ----------
    k:
        Number of neighbours whose attribute means augment the regression.
    n_iterations:
        Number of refinement rounds after the initial prediction.
    metric:
        Distance metric for the neighbour searches.
    backend:
        ``"vectorized"``, ``"loop"``, or ``None`` (default) to follow the
        global knob of :mod:`repro.config`.
    """

    name = "ERACER"

    def __init__(
        self,
        k: int = 10,
        n_iterations: int = 2,
        metric: str = "paper_euclidean",
        backend: Optional[str] = None,
    ):
        super().__init__()
        self.k = check_positive_int(k, "k")
        self.n_iterations = check_non_negative_int(n_iterations, "n_iterations")
        self.metric = metric
        self.backend = None if backend is None else config.resolve("backend", backend)

    def _impute_attribute(
        self,
        features: np.ndarray,
        target: np.ndarray,
        queries: np.ndarray,
        feature_indices: Sequence[int],
        target_index: int,
    ) -> np.ndarray:
        backend = config.resolve("backend", self.backend)
        if backend == "loop":
            return self._impute_loop(
                features, target, queries, feature_indices, target_index
            )
        complete = self._complete_values
        n_complete = features.shape[0]
        feature_idx = list(feature_indices)
        width = complete.shape[1]

        searcher = BruteForceNeighbors(metric=self.metric, backend=backend).fit(features)

        # Training side: augment every complete tuple with the mean attribute
        # vector of its nearest neighbours (excluding itself when possible) —
        # one batched search and one batched gather/mean over all tuples.
        if n_complete > 1:
            train_k = min(self.k, n_complete - 1)
            _, train_neighbors = searcher.kneighbors(features, train_k, exclude_self=True)
        else:
            _, train_neighbors = searcher.kneighbors(features, 1)
        train_neighbor_means = complete[train_neighbors].mean(axis=1)
        train_design = np.hstack([features, train_neighbor_means])
        model = RidgeRegression().fit(train_design, target)

        # Query side: initial neighbour means from the complete attributes.
        effective_k = min(self.k, features.shape[0])
        _, query_neighbors = searcher.kneighbors(queries, effective_k)
        query_neighbor_means = complete[query_neighbors].mean(axis=1)
        query_design = np.hstack([queries, query_neighbor_means])
        estimates = model.predict(query_design)

        # Refinement: re-select neighbours in the full attribute space using
        # the current estimates (relational message passing, simplified).
        full_searcher = BruteForceNeighbors(metric=self.metric, backend=backend).fit(
            complete
        )
        for _ in range(self.n_iterations):
            augmented = np.empty((queries.shape[0], width))
            augmented[:, feature_idx] = queries
            augmented[:, target_index] = estimates
            _, neighbor_sets = full_searcher.kneighbors(augmented, effective_k)
            neighbor_means = complete[neighbor_sets].mean(axis=1)
            estimates = model.predict(np.hstack([queries, neighbor_means]))
        return estimates

    def _impute_loop(
        self,
        features: np.ndarray,
        target: np.ndarray,
        queries: np.ndarray,
        feature_indices: Sequence[int],
        target_index: int,
    ) -> np.ndarray:
        """Reference implementation: one tuple at a time."""
        complete = self._complete_values
        n_complete = features.shape[0]
        feature_idx = list(feature_indices)
        width = complete.shape[1]

        searcher = BruteForceNeighbors(metric=self.metric, backend="loop").fit(features)

        train_design = np.empty((n_complete, features.shape[1] + width))
        for i in range(n_complete):
            if n_complete > 1:
                train_k = min(self.k, n_complete - 1)
                _, neighbors = searcher.kneighbors(
                    features[i], train_k, exclude_self=True
                )
            else:
                _, neighbors = searcher.kneighbors(features[i], 1)
            train_design[i, : features.shape[1]] = features[i]
            train_design[i, features.shape[1]:] = complete[neighbors].mean(axis=0)
        model = RidgeRegression().fit(train_design, target)

        effective_k = min(self.k, n_complete)
        q = queries.shape[0]
        estimates = np.empty(q)
        for i in range(q):
            _, neighbors = searcher.kneighbors(queries[i], effective_k)
            design = np.concatenate([queries[i], complete[neighbors].mean(axis=0)])
            estimates[i] = model.predict(design.reshape(1, -1))[0]

        full_searcher = BruteForceNeighbors(metric=self.metric, backend="loop").fit(
            complete
        )
        for _ in range(self.n_iterations):
            for i in range(q):
                augmented = np.empty(width)
                augmented[feature_idx] = queries[i]
                augmented[target_index] = estimates[i]
                _, neighbors = full_searcher.kneighbors(augmented, effective_k)
                design = np.concatenate(
                    [queries[i], complete[neighbors].mean(axis=0)]
                )
                estimates[i] = model.predict(design.reshape(1, -1))[0]
        return estimates
