"""Iterated local least squares imputation (Cai et al.) — the ILLS baseline.

For each incomplete tuple ILLS finds its ``k`` nearest complete neighbours,
fits a least-squares regression from the complete attributes to the
incomplete attribute *over those neighbours*, predicts the missing value,
and iterates: the new estimate is used to re-select neighbours (in the full
attribute space) and re-fit, until the estimate stabilises.  It is a tuple
model in the paper's taxonomy because the model ``h`` is learned per
incomplete tuple from its own neighbours.

Backends
--------
Like the IIM hot paths, the per-query local regressions exist in two
implementations selected through :mod:`repro.config` (or the ``backend``
constructor argument): ``"vectorized"`` gathers every query's neighbour
design block at once and solves all local least-squares systems through one
batched SVD pseudo-inverse, while ``"loop"`` keeps the original per-query
:class:`~repro.regression.OrdinaryLeastSquares` fits as the executable
reference.  The test suite asserts both agree to ``rtol = 1e-9``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .._validation import check_positive_int
from .. import config
from ..neighbors import BruteForceNeighbors
from ..regression import OrdinaryLeastSquares, batched_design
from .base import BaseImputer

__all__ = ["ILLSImputer"]


def _batched_ols_predict(
    features: np.ndarray,
    target: np.ndarray,
    neighbor_sets: np.ndarray,
    queries: np.ndarray,
) -> np.ndarray:
    """Fit one OLS model per query over its neighbours and predict in bulk.

    Solves every ``(k, d+1)`` local system through a batched Moore–Penrose
    pseudo-inverse — the same SVD-based minimum-norm solution the scalar
    :class:`OrdinaryLeastSquares` computes via ``lstsq``.  Single-neighbour
    systems use the constant model, exactly like the scalar solver.
    """
    if neighbor_sets.shape[1] == 1:
        return target[neighbor_sets[:, 0]]
    designs = batched_design(features[neighbor_sets])  # (q, k, p)
    targets = target[neighbor_sets]  # (q, k)
    coefficients = (np.linalg.pinv(designs) @ targets[..., None])[..., 0]  # (q, p)
    return np.einsum("qp,qp->q", batched_design(queries), coefficients)


class ILLSImputer(BaseImputer):
    """Iterated local least-squares imputation.

    Parameters
    ----------
    k:
        Number of neighbours per local regression.
    n_iterations:
        Number of re-selection/re-fit rounds after the initial estimate.
    metric:
        Distance metric for the neighbour searches.
    backend:
        ``"vectorized"``, ``"loop"``, or ``None`` (default) to follow the
        global knob of :mod:`repro.config`.
    """

    name = "ILLS"

    def __init__(
        self,
        k: int = 10,
        n_iterations: int = 3,
        metric: str = "paper_euclidean",
        backend: Optional[str] = None,
    ):
        super().__init__()
        self.k = check_positive_int(k, "k")
        self.n_iterations = check_positive_int(n_iterations, "n_iterations")
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
        complete = self._complete_values
        k = min(self.k, features.shape[0])
        feature_idx = list(feature_indices)
        backend = config.resolve("backend", self.backend)

        feature_searcher = BruteForceNeighbors(metric=self.metric, backend=backend).fit(
            features
        )
        full_searcher = BruteForceNeighbors(metric=self.metric, backend=backend).fit(
            complete
        )

        q = queries.shape[0]

        def fit_predict(neighbor_sets: np.ndarray) -> np.ndarray:
            if backend == "vectorized":
                return _batched_ols_predict(features, target, neighbor_sets, queries)
            estimates = np.empty(q)
            for i in range(q):
                neighbors = neighbor_sets[i]
                model = OrdinaryLeastSquares().fit(
                    features[neighbors], target[neighbors]
                )
                estimates[i] = model.predict_one(queries[i])
            return estimates

        # Initial pass: neighbours on the complete attributes only.
        _, initial_neighbors = feature_searcher.kneighbors(queries, k)
        estimates = fit_predict(initial_neighbors)

        # Iterations: re-select neighbours in the full space using the
        # current estimate, then re-fit the local regression.
        width = complete.shape[1]
        for _ in range(self.n_iterations):
            augmented = np.empty((q, width))
            augmented[:, feature_idx] = queries
            augmented[:, target_index] = estimates
            _, neighbor_sets = full_searcher.kneighbors(augmented, k)
            estimates = fit_predict(neighbor_sets)
        return estimates
