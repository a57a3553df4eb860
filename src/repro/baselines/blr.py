"""Bayesian linear regression imputation (the MICE ``norm`` method, BLR).

A Bayesian ridge regression from ``F`` to ``A_x`` is learned over the
complete tuples; imputations are draws from the posterior-predictive
distribution (a parameter draw plus observation noise), matching the
stochastic behaviour of ``mice.norm`` used in the paper's experiments.  The
draw can be disabled for deterministic posterior-mean imputation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .._validation import check_bool, check_positive_float
from ..regression import BayesianLinearRegression
from .base import BaseImputer

__all__ = ["BLRImputer"]


class BLRImputer(BaseImputer):
    """Bayesian linear regression imputation.

    Parameters
    ----------
    prior_precision:
        Gaussian prior precision on the regression coefficients.
    sample:
        Draw from the posterior predictive (True, MICE behaviour) or use the
        posterior mean (False).
    random_state:
        Seed controlling the posterior draws.
    """

    name = "BLR"

    def __init__(self, prior_precision: float = 1e-3, sample: bool = True, random_state=None):
        super().__init__()
        self.prior_precision = check_positive_float(prior_precision, "prior_precision")
        self.sample = check_bool(sample, "sample")
        self.random_state = random_state

    def _impute_attribute(
        self,
        features: np.ndarray,
        target: np.ndarray,
        queries: np.ndarray,
        feature_indices: Sequence[int],
        target_index: int,
    ) -> np.ndarray:
        model = BayesianLinearRegression(
            prior_precision=self.prior_precision,
            sample=self.sample,
            random_state=self.random_state,
        ).fit(features, target)
        return model.predict(queries)
