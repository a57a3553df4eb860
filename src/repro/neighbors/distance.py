"""Distance functions used for neighbour search.

The paper defines the distance between tuples on the complete attributes
``F`` as the *normalized* Euclidean distance (Formula 1):

.. math::

    d_{x,i} = \\sqrt{\\frac{\\sum_{A \\in F} (t_x[A] - t_i[A])^2}{|F|}}

Manhattan and Chebyshev distances are provided as well for ablations; all
functions operate on plain numpy arrays and support both a single query
vector and a batch of queries.

Each metric is a *kernel* over two 2-D float64 arrays of equal width plus
a public wrapper that validates its arguments first (:func:`_prepare`
scans both arrays for non-finite cells and makes them contiguous).
:func:`distances_to_block` validates only the query and runs the kernel
over a data block its caller vouches for — a store view's gathered rows,
which the tuple store admitted finite — so a search scans its few query
rows, not the ``(n, m)`` block, on every call.
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
    "distances_to_block",
    "METRICS",
]


def _prepare(query: np.ndarray, data: np.ndarray) -> tuple:
    data = as_float_matrix(data, name="data")
    query, single = _prepare_query(query, data.shape[1])
    return query, data, single


def _prepare_query(query, width: int) -> tuple:
    query = np.asarray(query, dtype=float)
    single = query.ndim == 1
    if single:
        query = query.reshape(1, -1)
    query = as_float_matrix(query, name="query")
    if query.shape[1] != width:
        raise DataError(
            f"query has {query.shape[1]} attributes but data has {width}"
        )
    return query, single


def _paper_euclidean_kernel(query: np.ndarray, data: np.ndarray) -> np.ndarray:
    distances = _squared_euclidean(query, data)
    # In place: one (q, n) allocation, the same values as sqrt(d / m).
    distances /= query.shape[1]
    np.sqrt(distances, out=distances)
    return distances


def _euclidean_kernel(query: np.ndarray, data: np.ndarray) -> np.ndarray:
    distances = _squared_euclidean(query, data)
    np.sqrt(distances, out=distances)
    return distances


def _manhattan_kernel(query: np.ndarray, data: np.ndarray) -> np.ndarray:
    if _cdist is not None:
        return _cdist(query, data, "cityblock")
    return np.sum(np.abs(query[:, None, :] - data[None, :, :]), axis=2)


def _chebyshev_kernel(query: np.ndarray, data: np.ndarray) -> np.ndarray:
    if _cdist is not None:
        return _cdist(query, data, "chebyshev")
    return np.max(np.abs(query[:, None, :] - data[None, :, :]), axis=2)


def _squared_euclidean(query: np.ndarray, data: np.ndarray) -> np.ndarray:
    """A fresh ``(q, n)`` array of squared Euclidean distances."""
    if _cdist is not None:
        # Direct (non-expanded) squared differences, so identical tuples are
        # at distance exactly 0.0 — the self-exclusion logic relies on it.
        return _cdist(query, data, "sqeuclidean")
    diff = query[:, None, :] - data[None, :, :]
    # einsum contracts the squared differences without materialising diff².
    return np.einsum("qnd,qnd->qn", diff, diff)


def _validated(kernel, query, data) -> np.ndarray:
    query, data, single = _prepare(query, data)
    distances = kernel(query, data)
    return distances[0] if single else distances


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
    return _validated(_paper_euclidean_kernel, query, data)


def euclidean(query, data) -> np.ndarray:
    """Standard (non-normalized) Euclidean distance."""
    return _validated(_euclidean_kernel, query, data)


def manhattan(query, data) -> np.ndarray:
    """L1 (city-block) distance."""
    return _validated(_manhattan_kernel, query, data)


def chebyshev(query, data) -> np.ndarray:
    """L-infinity (maximum coordinate difference) distance."""
    return _validated(_chebyshev_kernel, query, data)


#: Registry of metric names accepted throughout the library.
METRICS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "paper_euclidean": paper_euclidean,
    "euclidean": euclidean,
    "manhattan": manhattan,
    "chebyshev": chebyshev,
}


#: The bare kernel behind each metric: ``(q, m)`` and ``(n, m)`` finite,
#: C-contiguous float64 arrays in, ``(q, n)`` distances out, no checks.
_KERNELS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "paper_euclidean": _paper_euclidean_kernel,
    "euclidean": _euclidean_kernel,
    "manhattan": _manhattan_kernel,
    "chebyshev": _chebyshev_kernel,
}


def _lookup(registry: Dict[str, Callable], name: str) -> Callable:
    key = str(name).lower()
    if key not in registry:
        raise ConfigurationError(
            f"unknown metric {name!r}; available metrics: {sorted(registry)}"
        )
    return registry[key]


def get_metric(name: str) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Look up a metric function by name."""
    return _lookup(METRICS, name)


def distances_to_block(query, block: np.ndarray,
                       metric: str = "paper_euclidean") -> np.ndarray:
    """The named metric of ``query`` against ``block``, checking ``query`` only.

    ``query`` is validated as the public metrics validate it: one vector or
    a ``(q, m)`` batch of finite numbers, as wide as ``block``.  ``block``
    is not scanned: the caller guarantees it is a finite, C-contiguous
    ``(n, m)`` float64 array.  Returns what the public metric returns.
    """
    query, single = _prepare_query(query, block.shape[1])
    distances = _lookup(_KERNELS, metric)(query, block)
    return distances[0] if single else distances


def pairwise_distances(data, metric: str = "paper_euclidean") -> np.ndarray:
    """All-pairs distance matrix of shape ``(n, n)`` under the named metric."""
    data = as_float_matrix(data, name="data")
    return get_metric(metric)(data, data)
