"""Brute-force k-nearest-neighbour search.

This is the reference implementation of ``NN(t, F, k)`` from the paper: an
exhaustive scan under the configured metric.  It is exact and supports
every metric.

Two kernel implementations are provided (see :mod:`repro.config`):

* ``"vectorized"`` (default) — one pairwise-distance matrix per query
  block, ``np.argpartition`` top-k selection with an exact tie repair, and
  batched self-exclusion;
* ``"loop"`` — the original per-row ``np.lexsort`` scan, kept as the
  executable reference the vectorized kernels are tested against.

Both produce identical neighbour sets: ordering is by increasing distance
with ties broken by index.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .._validation import as_float_matrix, check_positive_int
from .. import config
from ..exceptions import ConfigurationError, NotFittedError
from .distance import get_metric

__all__ = ["BruteForceNeighbors", "stable_order", "topk_batch", "drop_self_rows"]


def stable_order(distances: np.ndarray) -> np.ndarray:
    """Row-wise ordering by increasing distance, ties broken by index.

    A stable argsort breaks ties by original position, which for a plain
    distance row *is* the index — exactly the ``np.lexsort((arange, d))``
    ordering of the reference loop.
    """
    return np.argsort(distances, axis=-1, kind="stable")


def drop_self_rows(order: np.ndarray, row_indices: np.ndarray) -> np.ndarray:
    """Remove each row's own index from an ordered ``(r, w)`` index block.

    ``order`` holds per-row neighbour orderings and ``row_indices`` the
    owning tuple index of each row.  A row where the self index does not
    appear (crowded out of a truncated ordering by zero-distance
    duplicates) loses its last entry instead — either way the result is
    exactly the first ``w - 1`` non-self entries, order preserved.

    Rows that start with their own index (the common case) just drop the
    first column; only the rest pay for a stable partition.
    """
    out = order[:, 1:].copy()
    rest = np.flatnonzero(order[:, 0] != row_indices)
    if rest.size:
        keep = order[rest] != row_indices[rest, None]
        kept_cols = np.argsort(~keep, axis=1, kind="stable")[:, : out.shape[1]]
        out[rest] = np.take_along_axis(order[rest], kept_cols, axis=1)
    return out


def topk_batch(distances: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Exact batched top-k of a ``(q, n)`` distance matrix.

    Uses ``np.argpartition`` to restrict the sort to ``k`` candidates per
    row, then repairs the (rare) rows where a distance tie straddles the
    partition boundary so the result matches a full stable sort exactly.

    Returns ``(distances, indices)`` of shape ``(q, k)``, ordered by
    increasing distance with ties broken by index.
    """
    n = distances.shape[1]
    if k >= n or 4 * k >= n:
        # Partitioning buys nothing near k ~ n; sort the full rows.
        order = stable_order(distances)[:, :k]
        return np.take_along_axis(distances, order, axis=1), order

    # Partition one past k so the (k+1)-th order statistic is available for
    # the boundary-tie check below.
    part = np.argpartition(distances, k, axis=1)[:, : k + 1]
    # Sorting the candidate indices first makes the stable argsort below
    # break distance ties by original index, matching the reference loop.
    part.sort(axis=1)
    # One broadcast row index serves every gather below (the same picks as
    # np.take_along_axis, without rebuilding its index arrays per call).
    row = np.arange(distances.shape[0])[:, None]
    part_dist = distances[row, part]
    inner = np.argsort(part_dist, axis=1, kind="stable")
    idx = part[row, inner[:, :k]]
    dist = part_dist[row, inner]

    # Tie repair: when the (k+1)-th smallest distance equals the k-th, the
    # partition picked an arbitrary subset of the boundary tie — redo those
    # rows with a full stable sort (exact, and rare on continuous data).
    ambiguous = dist[:, k] == dist[:, k - 1]
    dist = dist[:, :k]
    if ambiguous.any():
        rows = np.flatnonzero(ambiguous)
        order = stable_order(distances[rows])[:, :k]
        idx[rows] = order
        dist[rows] = np.take_along_axis(distances[rows], order, axis=1)
    return dist, idx


class BruteForceNeighbors:
    """Exact nearest-neighbour search by exhaustive scan.

    Parameters
    ----------
    metric:
        Name of a metric registered in :mod:`repro.neighbors.distance`;
        defaults to the paper's normalized Euclidean distance.
    backend:
        ``"vectorized"``, ``"loop"``, or ``None`` to follow the global knob
        of :mod:`repro.config`.
    """

    def __init__(self, metric: str = "paper_euclidean", backend: Optional[str] = None):
        self.metric = metric
        self.backend = None if backend is None else config.resolve("backend", backend)
        self._metric_fn = get_metric(metric)
        self._data: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def fit(self, data) -> "BruteForceNeighbors":
        """Index the reference points (rows of ``data``)."""
        self._data = as_float_matrix(data, name="data")
        return self

    @property
    def n_points(self) -> int:
        """Number of indexed reference points."""
        self._check_fitted()
        return self._data.shape[0]

    @property
    def n_features(self) -> int:
        """Dimensionality of the indexed points."""
        self._check_fitted()
        return self._data.shape[1]

    def _check_fitted(self) -> None:
        if self._data is None:
            raise NotFittedError("BruteForceNeighbors must be fitted before querying")

    def _resolve_backend(self, backend: Optional[str]) -> str:
        if backend is not None:
            return config.resolve("backend", backend)
        if self.backend is not None:
            return self.backend
        return config.get("backend")

    # ------------------------------------------------------------------ #
    def kneighbors(
        self,
        query,
        k: int,
        exclude_self: bool = False,
        backend: Optional[str] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Find the ``k`` nearest indexed points for each query.

        Parameters
        ----------
        query:
            One vector or a batch ``(q, m)`` of query points.
        k:
            Number of neighbours to return.
        exclude_self:
            When True, a reference point at distance exactly zero from the
            query is skipped once (used when the query itself belongs to the
            indexed data and should not count as its own neighbour).
        backend:
            Optional per-call backend override.

        Returns
        -------
        (distances, indices):
            Arrays of shape ``(k,)`` for a single query or ``(q, k)`` for a
            batch, sorted by increasing distance (ties broken by index for
            determinism).
        """
        self._check_fitted()
        k = check_positive_int(k, "k")
        query_array = np.asarray(query, dtype=float)
        single = query_array.ndim == 1

        available = self.n_points - (1 if exclude_self else 0)
        if k > available:
            raise ConfigurationError(
                f"requested k={k} neighbours but only {available} are available"
            )

        distances = self._metric_fn(query_array, self._data)
        if single:
            distances = distances.reshape(1, -1)

        if self._resolve_backend(backend) == "loop":
            out_dist, out_idx = self._kneighbors_loop(distances, k, exclude_self)
        else:
            out_dist, out_idx = self._kneighbors_vectorized(distances, k, exclude_self)

        if single:
            return out_dist[0], out_idx[0]
        return out_dist, out_idx

    def _kneighbors_loop(
        self, distances: np.ndarray, k: int, exclude_self: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        n_queries = distances.shape[0]
        out_dist = np.empty((n_queries, k))
        out_idx = np.empty((n_queries, k), dtype=int)
        for row in range(n_queries):
            d = distances[row]
            order = np.lexsort((np.arange(d.shape[0]), d))
            if exclude_self:
                # Skip exactly one zero-distance match (the query itself).
                if d[order[0]] == 0.0:
                    order = order[1:]
            chosen = order[:k]
            out_dist[row] = d[chosen]
            out_idx[row] = chosen
        return out_dist, out_idx

    def _kneighbors_vectorized(
        self, distances: np.ndarray, k: int, exclude_self: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        need = min(k + (1 if exclude_self else 0), distances.shape[1])
        dist, idx = topk_batch(distances, need)
        if not exclude_self:
            return dist, idx
        # Drop exactly one zero-distance match per row when present; rows
        # without one keep their first k candidates.
        offset = (dist[:, 0] == 0.0).astype(int)
        cols = offset[:, None] + np.arange(k)[None, :]
        return np.take_along_axis(dist, cols, axis=1), np.take_along_axis(idx, cols, axis=1)

    # ------------------------------------------------------------------ #
    def neighbor_order(
        self,
        query,
        exclude_self: bool = False,
        backend: Optional[str] = None,
    ) -> np.ndarray:
        """All indexed points ordered by increasing distance from ``query``.

        The adaptive-learning algorithm needs, for each tuple, the full
        ordering of its neighbours so that the sets ``NN(t, F, ℓ)`` for all
        ``ℓ`` can be read off as prefixes (the subsumption property of
        Formula 13).

        With ``exclude_self=True`` one zero-distance match is dropped per
        query when present.  For a single query the result keeps its natural
        length (``n - 1`` with a zero-distance match, ``n`` without).  For a
        *batch* of queries the result is always a rectangular ``(q, n - 1)``
        array: a row with no zero-distance match (the query is not one of
        the indexed points) is trimmed of its farthest neighbour so the rows
        stay aligned.  The previous behaviour silently produced a ragged
        object array in that case.
        """
        self._check_fitted()
        query_array = np.asarray(query, dtype=float)
        single = query_array.ndim == 1
        distances = self._metric_fn(query_array, self._data)
        if single:
            distances = distances.reshape(1, -1)

        if self._resolve_backend(backend) == "loop":
            result = self._neighbor_order_loop(distances, exclude_self, single)
        else:
            result = self._neighbor_order_vectorized(distances, exclude_self, single)
        return result[0] if single else result

    def _neighbor_order_loop(
        self, distances: np.ndarray, exclude_self: bool, single: bool
    ) -> np.ndarray:
        n = distances.shape[1]
        orders = []
        for row in range(distances.shape[0]):
            d = distances[row]
            order = np.lexsort((np.arange(n), d))
            if exclude_self:
                if d[order[0]] == 0.0:
                    order = order[1:]
                elif not single:
                    # Keep batch output rectangular: trim the farthest
                    # neighbour when there is no zero-distance match.
                    order = order[:-1]
            orders.append(order)
        return np.asarray(orders)

    def _neighbor_order_vectorized(
        self, distances: np.ndarray, exclude_self: bool, single: bool
    ) -> np.ndarray:
        n = distances.shape[1]
        order = stable_order(distances)
        if not exclude_self:
            return order
        first = np.take_along_axis(distances, order[:, :1], axis=1)[:, 0]
        drop = first == 0.0
        if single:
            return order[:, 1:] if drop[0] else order
        cols = drop.astype(int)[:, None] + np.arange(n - 1)[None, :]
        return np.take_along_axis(order, cols, axis=1)
