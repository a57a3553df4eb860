"""Distance functions used for neighbour search.

The paper defines the distance between tuples on the complete attributes
``F`` as the *normalized* Euclidean distance (Formula 1):

.. math::

    d_{x,i} = \\sqrt{\\frac{\\sum_{A \\in F} (t_x[A] - t_i[A])^2}{|F|}}

Manhattan and Chebyshev distances are provided as well for ablations; all
functions operate on plain numpy arrays and support both a single query
vector and a batch of queries.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from .._validation import as_float_matrix, as_float_vector
from ..exceptions import ConfigurationError, DataError

try:  # scipy's compiled pairwise kernels; optional, numpy fallback below.
    from scipy.spatial.distance import cdist as _cdist
except ImportError:  # pragma: no cover - exercised only without scipy
    _cdist = None

__all__ = [
    "paper_euclidean",
    "euclidean",
    "manhattan",
    "chebyshev",
    "pairwise_distances",
    "get_metric",
    "METRICS",
]


def _prepare(query: np.ndarray, data: np.ndarray) -> tuple:
    data = as_float_matrix(data, name="data")
    query = np.asarray(query, dtype=float)
    single = query.ndim == 1
    if single:
        query = query.reshape(1, -1)
    query = as_float_matrix(query, name="query")
    if query.shape[1] != data.shape[1]:
        raise DataError(
            f"query has {query.shape[1]} attributes but data has {data.shape[1]}"
        )
    return query, data, single


def paper_euclidean(query, data) -> np.ndarray:
    """Formula 1: root-mean-square difference over the shared attributes.

    Parameters
    ----------
    query:
        Either one vector of length ``m`` or a batch of shape ``(q, m)``.
    data:
        Matrix of shape ``(n, m)``.

    Returns
    -------
    numpy.ndarray
        Distances of shape ``(n,)`` for a single query or ``(q, n)`` for a
        batch.
    """
    query, data, single = _prepare(query, data)
    distances = _squared_euclidean(query, data)
    # In place: one (q, n) allocation, the same values as sqrt(d / m).
    distances /= query.shape[1]
    np.sqrt(distances, out=distances)
    return distances[0] if single else distances


def _squared_euclidean(query: np.ndarray, data: np.ndarray) -> np.ndarray:
    """A fresh ``(q, n)`` array of squared Euclidean distances."""
    if _cdist is not None:
        # Direct (non-expanded) squared differences, so identical tuples are
        # at distance exactly 0.0 — the self-exclusion logic relies on it.
        return _cdist(query, data, "sqeuclidean")
    diff = query[:, None, :] - data[None, :, :]
    # einsum contracts the squared differences without materialising diff².
    return np.einsum("qnd,qnd->qn", diff, diff)


def euclidean(query, data) -> np.ndarray:
    """Standard (non-normalized) Euclidean distance."""
    query, data, single = _prepare(query, data)
    distances = _squared_euclidean(query, data)
    np.sqrt(distances, out=distances)
    return distances[0] if single else distances


def manhattan(query, data) -> np.ndarray:
    """L1 (city-block) distance."""
    query, data, single = _prepare(query, data)
    if _cdist is not None:
        distances = _cdist(query, data, "cityblock")
    else:
        distances = np.sum(np.abs(query[:, None, :] - data[None, :, :]), axis=2)
    return distances[0] if single else distances


def chebyshev(query, data) -> np.ndarray:
    """L-infinity (maximum coordinate difference) distance."""
    query, data, single = _prepare(query, data)
    if _cdist is not None:
        distances = _cdist(query, data, "chebyshev")
    else:
        distances = np.max(np.abs(query[:, None, :] - data[None, :, :]), axis=2)
    return distances[0] if single else distances


#: Registry of metric names accepted throughout the library.
METRICS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "paper_euclidean": paper_euclidean,
    "euclidean": euclidean,
    "manhattan": manhattan,
    "chebyshev": chebyshev,
}


def get_metric(name: str) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Look up a metric function by name."""
    key = str(name).lower()
    if key not in METRICS:
        raise ConfigurationError(
            f"unknown metric {name!r}; available metrics: {sorted(METRICS)}"
        )
    return METRICS[key]


def pairwise_distances(data, metric: str = "paper_euclidean") -> np.ndarray:
    """All-pairs distance matrix of shape ``(n, n)`` under the named metric."""
    data = as_float_matrix(data, name="data")
    return get_metric(metric)(data, data)
