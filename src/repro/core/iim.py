"""IIM — Imputation via Individual Models (the paper's proposed method).

:class:`IIMImputer` packages the learning phase (Algorithm 1, or the
adaptive Algorithm 3) and the imputation phase (Algorithm 2) behind the same
``fit`` / ``impute`` interface as every baseline in
:mod:`repro.baselines`, so the experiment harness can treat all methods
uniformly.

Highlights
----------
* ``learning="fixed"`` uses one ``ℓ`` for every tuple (Algorithm 1);
  ``learning="adaptive"`` selects a per-tuple ``ℓ`` by validation
  (Algorithm 3) with optional stepping ``h`` and incremental U/V updates
  (Proposition 3).
* ``combination`` selects how the k candidates are aggregated: the paper's
  inverse-candidate-distance voting (default), uniform weights, or
  inverse-neighbour-distance weights.
* With ``learning="fixed", learning_neighbors=1, combination="uniform"`` the
  imputer reproduces kNN exactly (Proposition 1); with
  ``learning_neighbors=n`` it reproduces GLR (Proposition 2).  Both
  equalities are asserted in the test suite.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from .._validation import (
    check_bool,
    check_in_choices,
    check_positive_float,
    check_positive_int,
)
from ..baselines.base import BaseImputer
from .. import config
from ..exceptions import ConfigurationError
from ..neighbors import BruteForceNeighbors, get_metric
from ..regression import DEFAULT_ALPHA
from .adaptive import AdaptiveLearningResult, adaptive_learning
from .combine import COMBINERS
from .imputation import impute_with_individual_models
from .learning import IndividualModels, learn_individual_models

__all__ = ["IIMImputer"]


class IIMImputer(BaseImputer):
    """Imputation via Individual Models.

    Parameters
    ----------
    k:
        Number of imputation neighbours (Algorithm 2).
    learning:
        ``"adaptive"`` (Algorithm 3, default) or ``"fixed"`` (Algorithm 1).
    learning_neighbors:
        The fixed ``ℓ`` when ``learning="fixed"``; ignored otherwise.
        Values larger than the number of complete tuples are clamped.
    stepping:
        The stepping ``h`` of the adaptive candidate schedule.
    max_learning_neighbors:
        Optional cap on the largest candidate ``ℓ`` evaluated by adaptive
        learning (defaults to the number of complete tuples).
    validation_neighbors:
        The ``k`` used in the validation step of Algorithm 3; defaults to
        the imputation ``k``.
    incremental:
        Use the incremental U/V computation of Proposition 3 during adaptive
        learning (True, default) or learn each candidate from scratch (False).
    alpha:
        Ridge regularization strength of every individual model.
    include_global:
        During adaptive learning, always evaluate the ``ℓ = n`` candidate
        (the global model of Proposition 2) in addition to the stepped
        candidates, so the per-tuple selection can fall back to GLR-like
        behaviour on homogeneous data.
    combination:
        Candidate combination scheme: ``"voting"`` (paper default),
        ``"uniform"`` or ``"distance"``.
    metric:
        Distance metric for all neighbour searches.
    backend:
        Kernel backend for learning and imputation: ``"vectorized"``,
        ``"loop"``, or ``None`` (default) to follow the global knob of
        :mod:`repro.config`.
    """

    name = "IIM"

    def __init__(
        self,
        k: int = 10,
        learning: str = "adaptive",
        learning_neighbors: Optional[int] = None,
        stepping: int = 1,
        max_learning_neighbors: Optional[int] = None,
        validation_neighbors: Optional[int] = None,
        incremental: bool = True,
        include_global: bool = True,
        alpha: float = DEFAULT_ALPHA,
        combination: str = "voting",
        metric: str = "paper_euclidean",
        backend: Optional[str] = None,
    ):
        super().__init__()
        self.k = check_positive_int(k, "k")
        self.learning = check_in_choices(learning, "learning", ("fixed", "adaptive"))
        if self.learning == "fixed":
            if learning_neighbors is None:
                raise ConfigurationError(
                    "learning='fixed' requires learning_neighbors (the fixed ℓ)"
                )
            learning_neighbors = check_positive_int(learning_neighbors, "learning_neighbors")
        self.learning_neighbors = learning_neighbors
        self.stepping = check_positive_int(stepping, "stepping")
        if max_learning_neighbors is not None:
            max_learning_neighbors = check_positive_int(
                max_learning_neighbors, "max_learning_neighbors"
            )
        self.max_learning_neighbors = max_learning_neighbors
        if validation_neighbors is not None:
            validation_neighbors = check_positive_int(validation_neighbors, "validation_neighbors")
        self.validation_neighbors = validation_neighbors
        self.incremental = check_bool(incremental, "incremental")
        self.include_global = check_bool(include_global, "include_global")
        self.alpha = check_positive_float(alpha, "alpha", allow_zero=True)
        self.combination = check_in_choices(combination, "combination", tuple(COMBINERS))
        get_metric(metric)  # an unknown name fails here, not at the first impute
        self.metric = metric
        self.backend = None if backend is None else config.resolve("backend", backend)
        # Per-incomplete-attribute learned models, keyed by the target column.
        self._models: Dict[int, IndividualModels] = {}
        self._adaptive_results: Dict[int, AdaptiveLearningResult] = {}

    # ------------------------------------------------------------------ #
    # Learning phase (lazy, per incomplete attribute)
    # ------------------------------------------------------------------ #
    def _fit(self, complete) -> None:
        # Learning depends on which attribute is incomplete, so the actual
        # model fitting is deferred to the first imputation request per
        # attribute; fit() only resets previously-learned models.
        self._models = {}
        self._adaptive_results = {}

    def _learn_for_attribute(
        self,
        features: np.ndarray,
        target: np.ndarray,
        target_index: int,
    ) -> IndividualModels:
        cached = self._models.get(target_index)
        if cached is not None:
            return cached

        n = features.shape[0]
        if self.learning == "fixed":
            ell = min(self.learning_neighbors, n)
            models = learn_individual_models(
                features, target, ell, alpha=self.alpha, metric=self.metric,
                backend=self.backend,
            )
        else:
            validation_k = self.validation_neighbors or self.k
            result = adaptive_learning(
                features,
                target,
                validation_neighbors=validation_k,
                stepping=self.stepping,
                max_ell=self.max_learning_neighbors,
                alpha=self.alpha,
                metric=self.metric,
                incremental=self.incremental,
                include_global=self.include_global,
                backend=self.backend,
            )
            self._adaptive_results[target_index] = result
            models = result.models
        self._models[target_index] = models
        return models

    def learned_models(self, target_index: int = -1) -> IndividualModels:
        """The individual models learned for one incomplete attribute.

        ``target_index=-1`` refers to the last attribute (the paper's default
        ``A_m``).  Raises if that attribute has not been imputed yet.
        """
        self._check_fitted()
        if target_index < 0:
            target_index += self._fitted_relation.n_attributes
        if target_index not in self._models:
            raise ConfigurationError(
                f"no models learned yet for attribute index {target_index}; "
                "call impute() first or use learn_attribute()"
            )
        return self._models[target_index]

    def adaptive_result(self, target_index: int = -1) -> AdaptiveLearningResult:
        """The full adaptive-learning diagnostics for one incomplete attribute."""
        self._check_fitted()
        if target_index < 0:
            target_index += self._fitted_relation.n_attributes
        if target_index not in self._adaptive_results:
            raise ConfigurationError(
                f"no adaptive-learning result for attribute index {target_index}; "
                "the imputer may be configured with learning='fixed'"
            )
        return self._adaptive_results[target_index]

    def learn_attribute(self, target_index: int = -1) -> IndividualModels:
        """Run the (offline) learning phase for one attribute explicitly."""
        self._check_fitted()
        if target_index < 0:
            target_index += self._fitted_relation.n_attributes
        width = self._fitted_relation.n_attributes
        if not 0 <= target_index < width:
            raise ConfigurationError(f"target_index {target_index} out of range")
        feature_indices = [i for i in range(width) if i != target_index]
        complete = self._complete_values
        return self._learn_for_attribute(
            complete[:, feature_indices], complete[:, target_index], target_index
        )

    # ------------------------------------------------------------------ #
    # Artifact persistence
    # ------------------------------------------------------------------ #
    def _artifact_payload(self):
        # Persist the lazily-learned per-attribute models so a restored
        # imputer serves imputations without relearning.  The adaptive
        # diagnostics (costs, counts) are derivable and not persisted.
        metadata = {"model_attributes": sorted(self._models)}
        arrays = {}
        for target_index, models in self._models.items():
            arrays[f"models_{target_index}_parameters"] = models.parameters
            arrays[f"models_{target_index}_ell"] = models.learning_neighbors
        return metadata, arrays

    def _restore_payload(self, metadata, arrays):
        self._models = {}
        self._adaptive_results = {}
        for target_index in metadata.get("model_attributes", []):
            target_index = int(target_index)
            self._models[target_index] = IndividualModels(
                arrays[f"models_{target_index}_parameters"],
                arrays[f"models_{target_index}_ell"],
            )

    # ------------------------------------------------------------------ #
    # Imputation phase
    # ------------------------------------------------------------------ #
    def _impute_attribute(
        self,
        features: np.ndarray,
        target: np.ndarray,
        queries: np.ndarray,
        feature_indices: Sequence[int],
        target_index: int,
    ) -> np.ndarray:
        models = self._learn_for_attribute(features, target, target_index)
        k = min(self.k, features.shape[0])
        searcher = BruteForceNeighbors(metric=self.metric, backend=self.backend).fit(features)
        return impute_with_individual_models(
            queries,
            models,
            features,
            target,
            k,
            combination=self.combination,
            searcher=searcher,
            backend=self.backend,
        )
