"""Batched ridge solves over stacks of U/V sufficient statistics.

The vectorized learning kernels (see :mod:`repro.core.learning`) build the
Gram/moment statistics of *every* per-tuple, per-candidate ridge system in
one shot — ``U`` of shape ``(..., d+1, d+1)`` and ``V`` of shape
``(..., d+1)`` — and hand the whole stack to :func:`batched_ridge_solve`,
which resolves them with a single LAPACK call instead of one
:class:`~repro.regression.incremental_ridge.IncrementalRidge` solve per
system.  Systems built from a single row (the constant model of Section
III-A2) are the caller's to write; the learning kernel never sends them.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_positive_float
from ..exceptions import DataError
from .linear import DEFAULT_ALPHA

__all__ = ["batched_design", "batched_ridge_solve"]


def batched_design(X: np.ndarray) -> np.ndarray:
    """Prepend the constant column to a stack of feature blocks.

    Accepts any shape ``(..., d)`` and returns ``(..., d + 1)``.
    """
    X = np.asarray(X, dtype=float)
    return np.concatenate([np.ones(X.shape[:-1] + (1,)), X], axis=-1)


def batched_ridge_solve(
    U: np.ndarray,
    V: np.ndarray,
    alpha: float = DEFAULT_ALPHA,
    overwrite_u: bool = False,
) -> np.ndarray:
    """Solve ``φ = (U + αE)⁻¹ V`` for a stack of ridge systems.

    Parameters
    ----------
    U:
        Gram matrices ``XᵀX`` (constant column included), shape
        ``(..., p, p)``.
    V:
        Moment vectors ``XᵀY``, shape ``(..., p)``.
    alpha:
        Regularization strength; ``α = 0`` solves through the batched
        pseudo-inverse (matching :class:`RidgeRegression`).
    overwrite_u:
        Allow clobbering ``U`` with the regularised Gram matrices (skips one
        stack-sized allocation on the hot path).
    """
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    alpha = check_positive_float(alpha, "alpha", allow_zero=True)
    if U.shape[:-1] != V.shape:
        raise DataError(f"U {U.shape} and V {V.shape} describe different systems")
    if alpha == 0:
        return np.einsum("...ij,...j->...i", np.linalg.pinv(U), V)
    p = U.shape[-1]
    if overwrite_u:
        gram = U
        gram += alpha * np.eye(p)
    else:
        gram = U + alpha * np.eye(p)
    return np.linalg.solve(gram, V[..., None])[..., 0]
