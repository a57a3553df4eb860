"""Combination of imputation candidates (Section III-B3 of the paper).

The imputation phase produces one candidate value per imputation neighbour.
The paper combines them with a *voting* scheme: each candidate is weighted
by the inverse of its total distance to the other candidates (Formulas 11
and 12), so mutually-agreeing candidates dominate and outliers are largely
ignored.  Two ablation schemes are provided:

* ``uniform`` — the plain average (this is the weighting under which IIM
  degenerates to kNN when ``ℓ = 1``, Proposition 1);
* ``distance`` — weights from the inverse neighbour distance on ``F``
  (closer neighbours trusted more, regardless of candidate agreement).

Every combiner returns ``(value, weights)`` so callers (e.g. the
:class:`~repro.core.imputation.ImputationTrace`) can reuse the exact weights
that produced the value instead of re-deriving them.  Each scheme also has a
batch variant that combines a whole ``(q, k)`` block of candidate rows at
once — the kernel behind the vectorized imputation path; the scalar
functions are thin wrappers over it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .._validation import as_float_matrix, as_float_vector
from ..exceptions import ConfigurationError, DataError

__all__ = [
    "candidate_vote_weights",
    "candidate_vote_weights_batch",
    "combine_voting",
    "combine_uniform",
    "combine_distance",
    "combine_voting_batch",
    "combine_uniform_batch",
    "combine_distance_batch",
    "get_combiner",
    "get_batch_combiner",
    "COMBINERS",
    "BATCH_COMBINERS",
]


def candidate_vote_weights_batch(candidates: np.ndarray) -> np.ndarray:
    """Row-wise voting weights of Formula 12 for a ``(q, k)`` candidate block.

    ``c_xi = Σ_j |t^i_x - t^j_x|`` and ``w_xi = c_xi^{-1} / Σ_j c_xj^{-1}``
    per row.  Candidates at zero total distance (all candidates identical,
    or a single candidate) receive uniform weight among themselves.
    """
    return _vote_weights(as_float_matrix(candidates, name="candidates"))


def _vote_weights(candidates: np.ndarray) -> np.ndarray:
    """:func:`candidate_vote_weights_batch` over an already validated block."""
    q, k = candidates.shape
    if k == 1:
        return np.ones((q, 1))
    total_distance = np.abs(candidates[:, :, None] - candidates[:, None, :]).sum(axis=2)
    scale = total_distance.max(axis=1)
    degenerate = scale <= 0.0  # all candidates of the row identical
    # Work with distances relative to the largest one so the inversion below
    # cannot overflow for very small (or subnormal) absolute distances.
    relative = total_distance / np.where(degenerate, 1.0, scale)[:, None]
    zero = relative <= 1e-12
    has_zero = zero.any(axis=1)
    inverse = 1.0 / np.where(zero, 1.0, relative)
    weights = inverse / inverse.sum(axis=1, keepdims=True)
    # A degenerate row's candidates are all at zero total distance, so both
    # fix-ups below leave every row untouched unless some row has a zero.
    if has_zero.any():
        # (Near-)perfect agreement: candidates at zero total distance share
        # the weight equally and outliers are ignored.
        agree = zero / np.maximum(zero.sum(axis=1, keepdims=True), 1)
        weights = np.where(has_zero[:, None], agree, weights)
        weights = np.where(degenerate[:, None], 1.0 / k, weights)
    return weights


def candidate_vote_weights(candidates: np.ndarray) -> np.ndarray:
    """Weights of Formula 12 for one candidate vector (see the batch variant)."""
    candidates = as_float_vector(candidates, name="candidates")
    return candidate_vote_weights_batch(candidates.reshape(1, -1))[0]


# --------------------------------------------------------------------------- #
# Batch combiners: (q, k) candidates -> ((q,) values, (q, k) weights)
# --------------------------------------------------------------------------- #
def combine_voting_batch(
    candidates: np.ndarray, neighbor_distances: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Formula 10 with the voting weights of Formula 12 (the paper's default)."""
    candidates = as_float_matrix(candidates, name="candidates")
    weights = _vote_weights(candidates)
    return np.einsum("qk,qk->q", candidates, weights), weights


def combine_uniform_batch(
    candidates: np.ndarray, neighbor_distances: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Plain average of the candidates (uniform weights ``1/|T_x|``)."""
    candidates = as_float_matrix(candidates, name="candidates")
    weights = np.full_like(candidates, 1.0 / candidates.shape[1])
    return candidates.mean(axis=1), weights


def combine_distance_batch(
    candidates: np.ndarray, neighbor_distances: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse-neighbour-distance weighting of the candidates.

    Requires the distances of the imputation neighbours to the incomplete
    tuple on ``F``; neighbours at distance zero take all the weight.
    """
    candidates = as_float_matrix(candidates, name="candidates")
    if neighbor_distances is None:
        raise DataError("combine_distance requires the neighbour distances")
    distances = as_float_matrix(neighbor_distances, name="neighbor_distances")
    if distances.shape != candidates.shape:
        raise DataError("neighbor_distances must align with the candidates")
    zero = distances <= 0.0
    has_zero = zero.any(axis=1)
    inverse = 1.0 / np.where(zero, 1.0, distances)
    weights = inverse / inverse.sum(axis=1, keepdims=True)
    exact = zero / np.maximum(zero.sum(axis=1, keepdims=True), 1)
    weights = np.where(has_zero[:, None], exact, weights)
    return np.einsum("qk,qk->q", candidates, weights), weights


# --------------------------------------------------------------------------- #
# Scalar combiners: (k,) candidates -> (value, (k,) weights)
# --------------------------------------------------------------------------- #
def _scalar(batch_fn, candidates, neighbor_distances):
    candidates = as_float_vector(candidates, name="candidates")
    if neighbor_distances is not None:
        neighbor_distances = as_float_vector(
            neighbor_distances, name="neighbor_distances"
        ).reshape(1, -1)
    values, weights = batch_fn(candidates.reshape(1, -1), neighbor_distances)
    return float(values[0]), weights[0]


def combine_voting(
    candidates: np.ndarray, neighbor_distances: Optional[np.ndarray] = None
) -> Tuple[float, np.ndarray]:
    """Formula 10 with the voting weights of Formula 12 (the paper's default)."""
    return _scalar(combine_voting_batch, candidates, neighbor_distances)


def combine_uniform(
    candidates: np.ndarray, neighbor_distances: Optional[np.ndarray] = None
) -> Tuple[float, np.ndarray]:
    """Plain average of the candidates (uniform weights ``1/|T_x|``)."""
    return _scalar(combine_uniform_batch, candidates, neighbor_distances)


def combine_distance(
    candidates: np.ndarray, neighbor_distances: Optional[np.ndarray] = None
) -> Tuple[float, np.ndarray]:
    """Inverse-neighbour-distance weighting of the candidates."""
    return _scalar(combine_distance_batch, candidates, neighbor_distances)


#: Registry of scalar candidate-combination schemes.
COMBINERS: Dict[str, Callable[[np.ndarray, Optional[np.ndarray]], Tuple[float, np.ndarray]]] = {
    "voting": combine_voting,
    "uniform": combine_uniform,
    "distance": combine_distance,
}

#: Registry of batch candidate-combination schemes.
BATCH_COMBINERS: Dict[
    str, Callable[[np.ndarray, Optional[np.ndarray]], Tuple[np.ndarray, np.ndarray]]
] = {
    "voting": combine_voting_batch,
    "uniform": combine_uniform_batch,
    "distance": combine_distance_batch,
}


def get_combiner(name: str):
    """Look up a scalar combination scheme by name."""
    key = str(name).lower()
    if key not in COMBINERS:
        raise ConfigurationError(
            f"unknown combination scheme {name!r}; available: {sorted(COMBINERS)}"
        )
    return COMBINERS[key]


def get_batch_combiner(name: str):
    """Look up a batch combination scheme by name."""
    key = str(name).lower()
    if key not in BATCH_COMBINERS:
        raise ConfigurationError(
            f"unknown combination scheme {name!r}; available: {sorted(BATCH_COMBINERS)}"
        )
    return BATCH_COMBINERS[key]
