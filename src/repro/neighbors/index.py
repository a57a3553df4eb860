"""Facade over the neighbour-search backends plus a cached neighbour ordering.

:class:`NeighborIndex` gives the rest of the library a single entry point:
pick a backend (``"brute"`` or ``"kdtree"``), fit it on the complete
relation's ``F`` columns, and query ``NN(t, F, k)``.

:class:`NeighborOrderCache` materialises, for each indexed tuple on demand,
the ordering of the other tuples by distance.  Adaptive learning
(Algorithm 3) and the incremental computation (Section V-B) both rely on the
fact that ``NN(t, F, ℓ)`` is a *prefix* of ``NN(t, F, ℓ + h)`` (Formula 13);
caching the ordering once per tuple makes every prefix available in O(1).
The cache is lazy and can be capped at a maximum ordering length so that the
memory cost stays ``O(n · max_length)`` rather than ``O(n²)``.

:meth:`NeighborOrderCache.order_matrix` additionally materialises *all*
orderings at once as a dense ``(n, max_length)`` matrix, computed block-wise
from pairwise-distance chunks with one stable selection per row — the
entry point the vectorized learning kernels build on.

The lifecycle methods :meth:`~NeighborOrderCache.append`,
:meth:`~NeighborOrderCache.remove` and :meth:`~NeighborOrderCache.replace`
repair the cached orderings *incrementally* (see the last paragraph) and
report, per tuple, the first ordering position that changed — the signal
the online engine uses to invalidate only the affected per-tuple models.
The repaired orderings are exactly those a cold rebuild over the mutated
data would produce (same distance values, same index tie-breaks).

:class:`NeighborOrderCache` can be backed either by a private data matrix
(the standalone/batch mode) or — for the online engine — by a *store
feature view* (:class:`repro.online.store.StoreFeatureView`): an object
carrying slot references into the shared columnar tuple store instead of a
``(n, m)`` float copy.  In store-backed mode the lifecycle methods take
slot references (``append(slots=...)`` / ``replace(index, slot=...)``),
and pairwise distances are computed per shard over rows the view gathers
from the store once and keeps — bit-identical to the matrix mode, with the
store the only owner of tuple payloads.

Each repair sorts, merges and re-fills only the rows whose ordering the
mutation can change; every other row costs one vectorised scan or gather
and is reported unchanged:

* :meth:`NeighborOrderCache.append` merges the appended tuples only into
  the rows whose nearest candidate is closer than the row's last cached
  distance;
* :meth:`NeighborOrderCache.remove` renumbers every row with one index-map
  gather, then compacts — or, when a capped row went short, re-fills from
  fresh distance rows in bounded blocks — only the rows that held a
  removed tuple;
* :meth:`NeighborOrderCache.replace` re-sorts only the rows that held the
  revised tuple or that it now enters, re-fills the capped rows it fell
  out of, and takes the revised tuple's own ordering from the distance row
  it already computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .._validation import as_float_matrix, check_positive_int
from ..exceptions import ConfigurationError, DataError, NotFittedError
from .brute import BruteForceNeighbors, drop_self_rows, stable_order, topk_batch
from .distance import get_metric
from .kdtree import KDTreeNeighbors

__all__ = [
    "NeighborIndex",
    "NeighborOrderCache",
    "OrderAppendResult",
    "OrderRemoveResult",
    "OrderReplaceResult",
]

_BACKENDS = ("brute", "kdtree")


def _first_difference(new: np.ndarray, old: np.ndarray, length: int) -> np.ndarray:
    """Per row, the first column where ``new`` and ``old`` differ (else ``length``)."""
    differs = new != old
    return np.where(differs.any(axis=1), differs.argmax(axis=1), length)


class NeighborIndex:
    """Unified k-nearest-neighbour index.

    Parameters
    ----------
    metric:
        Distance metric name (see :mod:`repro.neighbors.distance`).
    backend:
        ``"brute"`` (default, supports every metric) or ``"kdtree"``
        (Euclidean family only, faster for large ``n``).
    leaf_size:
        KD-tree leaf size; ignored by the brute-force backend.
    """

    def __init__(self, metric: str = "paper_euclidean", backend: str = "brute", leaf_size: int = 32):
        if backend not in _BACKENDS:
            raise ConfigurationError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        self.metric = metric
        self.backend = backend
        self.leaf_size = leaf_size
        if backend == "kdtree":
            self._impl = KDTreeNeighbors(metric=metric, leaf_size=leaf_size)
        else:
            self._impl = BruteForceNeighbors(metric=metric)
        self._fitted = False

    def fit(self, data) -> "NeighborIndex":
        """Index the rows of ``data``."""
        self._impl.fit(as_float_matrix(data, name="data"))
        self._fitted = True
        return self

    @property
    def n_points(self) -> int:
        """Number of indexed points."""
        self._check_fitted()
        return self._impl.n_points

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError("NeighborIndex must be fitted before querying")

    def kneighbors(self, query, k: int, exclude_self: bool = False) -> Tuple[np.ndarray, np.ndarray]:
        """``NN(query, F, k)`` — distances and indices of the k nearest points."""
        self._check_fitted()
        return self._impl.kneighbors(query, k, exclude_self=exclude_self)

    def kneighbors_indices(self, query, k: int, exclude_self: bool = False) -> np.ndarray:
        """Indices only, for callers that do not need the distances."""
        return self.kneighbors(query, k, exclude_self=exclude_self)[1]


@dataclass
class OrderAppendResult:
    """Outcome of one :meth:`NeighborOrderCache.append` call.

    Attributes
    ----------
    n_before:
        Number of indexed tuples before the append.
    n_appended:
        Number of tuples added by the append.
    first_changed:
        Array of shape ``(n_before,)``: for every pre-existing tuple, the
        first position of its cached ordering that changed.  A tuple whose
        ordering merely grew at the tail reports the old effective length; a
        tuple whose ordering is completely unchanged reports the new
        effective length (so ``first_changed[i] < ell`` is exactly "the
        ``ell``-prefix of tuple ``i`` changed").
    """

    n_before: int
    n_appended: int
    first_changed: np.ndarray

    def changed_rows(self, prefix_length: int) -> np.ndarray:
        """Pre-existing tuples whose first ``prefix_length`` neighbours changed."""
        prefix_length = check_positive_int(prefix_length, "prefix_length")
        return np.flatnonzero(self.first_changed < prefix_length)


@dataclass
class OrderRemoveResult:
    """Outcome of one :meth:`NeighborOrderCache.remove` call.

    Attributes
    ----------
    n_before:
        Number of indexed tuples before the removal.
    n_removed:
        Number of tuples removed.
    first_changed:
        Array of shape ``(n_after,)``, aligned with the *surviving* tuples
        in their new (compacted) index order: the first position of each
        surviving tuple's ordering where the neighbour *identity* changed.
        A fully unchanged ordering reports the new effective length, so
        ``first_changed[i] < ell`` is exactly "the ``ell``-prefix of
        surviving tuple ``i`` changed".
    index_map:
        Array of shape ``(n_before,)`` mapping old tuple indices to their
        compacted new indices; removed tuples map to ``-1``.
    """

    n_before: int
    n_removed: int
    first_changed: np.ndarray
    index_map: np.ndarray

    def changed_rows(self, prefix_length: int) -> np.ndarray:
        """Surviving tuples (new indices) whose ``prefix_length``-prefix changed."""
        prefix_length = check_positive_int(prefix_length, "prefix_length")
        return np.flatnonzero(self.first_changed < prefix_length)

    def kept_rows(self) -> np.ndarray:
        """Old indices of the surviving tuples, in new index order."""
        return np.flatnonzero(self.index_map >= 0)


@dataclass
class OrderReplaceResult:
    """Outcome of one :meth:`NeighborOrderCache.replace` call.

    Attributes
    ----------
    index:
        The replaced tuple's index (unchanged by the operation).
    first_changed:
        Array of shape ``(n,)``: per tuple, the first ordering position
        whose neighbour identity changed (``length`` when unchanged).  Note
        this tracks ordering changes only — a tuple whose prefix still
        *contains* ``index`` at the same position has an unchanged ordering
        even though that neighbour's values changed; callers that learn
        models over the prefix values must treat those rows as dirty too.
    """

    index: int
    first_changed: np.ndarray

    def changed_rows(self, prefix_length: int) -> np.ndarray:
        """Tuples whose first ``prefix_length`` neighbours changed."""
        prefix_length = check_positive_int(prefix_length, "prefix_length")
        return np.flatnonzero(self.first_changed < prefix_length)


class NeighborOrderCache:
    """Per-tuple neighbour orderings, computed lazily and cached.

    Parameters
    ----------
    data:
        Matrix of shape ``(n, m)`` — typically the complete relation
        restricted to the complete attributes ``F``.
    metric:
        Distance metric name.
    include_self:
        Whether a tuple counts as its own nearest neighbour (the paper's
        learning phase includes the tuple itself in ``NN(t_i, F, ℓ)``;
        the validation step of Algorithm 3 excludes it).
    max_length:
        Optional cap on the ordering length kept per tuple; ``None`` keeps
        the full ordering.  Capping bounds memory at ``O(n · max_length)``.
    keep_distances:
        Also materialise the distances aligned with the cached orderings
        (needed by :meth:`append`, which enables it automatically).  Off by
        default so batch-learning callers pay for the index matrix only.
    """

    def __init__(
        self,
        data,
        metric: str = "paper_euclidean",
        include_self: bool = True,
        max_length: Optional[int] = None,
        keep_distances: bool = False,
    ):
        # A store feature view (duck-typed: it computes its own per-shard
        # pairwise distances) is kept as-is; anything else is a matrix.
        self._store_backed = hasattr(data, "pairwise") and hasattr(data, "slots")
        if self._store_backed:
            self._data = data
        else:
            self._data = as_float_matrix(data, name="data")
        self._metric_fn = get_metric(metric)
        self.metric = metric
        self.include_self = bool(include_self)
        if max_length is not None:
            max_length = check_positive_int(max_length, "max_length")
        # The *requested* cap is kept separately so the effective length can
        # grow back towards it when append() adds tuples to a store that was
        # smaller than the cap.
        self._requested_length = max_length
        self.max_length = None if max_length is None else min(max_length, self.max_neighbors())
        self.keep_distances = bool(keep_distances)
        self._cache: Dict[int, np.ndarray] = {}
        self._matrix: Optional[np.ndarray] = None
        self._dists: Optional[np.ndarray] = None

    @property
    def n_points(self) -> int:
        """Number of indexed points."""
        return self._data.shape[0]

    @property
    def data(self):
        """The indexed points: a read-only array, or the store view."""
        if self._store_backed:
            return self._data
        view = self._data.view()
        view.setflags(write=False)
        return view

    @property
    def store_backed(self) -> bool:
        """Whether the cache reads through a shared columnar store."""
        return self._store_backed

    @property
    def slots(self) -> Optional[np.ndarray]:
        """Store slots of the indexed points (store-backed mode only)."""
        return self._data.slots if self._store_backed else None

    def _pairwise(self, query) -> np.ndarray:
        """Distances of ``query`` against every indexed point."""
        if self._store_backed:
            return self._data.pairwise(query, self._metric_fn)
        return self._metric_fn(query, self._data)

    def max_neighbors(self) -> int:
        """The largest ℓ available from this cache."""
        return self.n_points if self.include_self else self.n_points - 1

    def effective_length(self) -> int:
        """The ordering length currently kept per tuple."""
        return self.max_neighbors() if self.max_length is None else self.max_length

    def _compute_order(self, index: int) -> np.ndarray:
        distances = self._pairwise(self._data[index])
        order = np.lexsort((np.arange(distances.shape[0]), distances))
        if not self.include_self:
            keep = order != index
            order = order[keep]
        limit = self.max_length
        if limit is not None:
            order = order[:limit]
        return np.ascontiguousarray(order)

    def order_of(self, index: int) -> np.ndarray:
        """Tuples ordered by increasing distance from tuple ``index``."""
        if not 0 <= index < self.n_points:
            raise ConfigurationError(f"tuple index {index} out of range")
        if self._matrix is not None:
            return self._matrix[index]
        cached = self._cache.get(index)
        if cached is None:
            cached = self._compute_order(index)
            self._cache[index] = cached
        return cached

    def _chunk_rows(self) -> int:
        """Query rows per distance block: keeps a ``(chunk, n)`` block near
        ~100k floats (measured fastest: the block plus its argpartition
        scratch stay cache-resident)."""
        n = self.n_points
        return max(32, min(n, 100_000 // max(1, n)))

    def _select_rows(self, distances: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """Cold orderings of the tuples ``owners`` from their distance rows.

        One stable selection per row (ties broken by index, exactly like the
        per-row ``np.lexsort`` of :meth:`order_of`), minus the self entry
        without ``include_self``, truncated to the effective length.
        """
        n = distances.shape[1]
        length = self.effective_length()
        # Without include_self the self entry must be dropped from the kept
        # prefix, so one extra ordered position is selected per row.
        select = min(n, length + (0 if self.include_self else 1))
        if select < n:
            _, order = topk_batch(distances, select)
        else:
            order = stable_order(distances)
        if not self.include_self:
            order = drop_self_rows(order, owners)
        return order[:, :length]

    def _cold_rows(
        self,
        rows: np.ndarray,
        chunk_size: Optional[int] = None,
        with_distances: bool = True,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Cold orderings (and distances) of ``rows`` over the current data.

        Computed block-wise, one pairwise-distance chunk of
        :meth:`_chunk_rows` query rows at a time, so refilling many rows
        never holds more than one ``(chunk, n)`` distance block.
        """
        if chunk_size is None:
            chunk_size = self._chunk_rows()
        length = self.effective_length()
        orders = np.empty((rows.shape[0], length), dtype=int)
        dists = np.empty((rows.shape[0], length)) if with_distances else None
        for start in range(0, rows.shape[0], chunk_size):
            block = rows[start : start + chunk_size]
            stop = start + block.shape[0]
            distances = self._pairwise(self._data[block])
            order = self._select_rows(distances, block)
            orders[start:stop] = order
            if dists is not None:
                dists[start:stop] = np.take_along_axis(distances, order, axis=1)
        return orders, dists

    def order_matrix(self, chunk_size: Optional[int] = None) -> np.ndarray:
        """All orderings as one ``(n, L)`` matrix (``L`` = effective length).

        The matrix is built block-wise: one pairwise-distance chunk per
        block, one stable selection per row (ties broken by index, exactly
        like the per-row ``np.lexsort`` of :meth:`order_of`), and — without
        ``include_self`` — one removal of the self entry.  The result is
        cached, after which :meth:`order_of` and :meth:`prefix` become O(1)
        row views.

        Parameters
        ----------
        chunk_size:
            Number of query rows per distance block; defaults to
            :meth:`_chunk_rows`.
        """
        if self._matrix is not None:
            return self._matrix
        self._matrix, self._dists = self._cold_rows(
            np.arange(self.n_points), chunk_size, self.keep_distances
        )
        self._cache.clear()
        return self._matrix

    def prefix(self, index: int, length: int) -> np.ndarray:
        """``NN(t_index, F, length)`` as a prefix of the cached ordering."""
        length = check_positive_int(length, "length")
        order = self.order_of(index)
        if length > order.shape[0]:
            raise ConfigurationError(
                f"requested {length} neighbours but only {order.shape[0]} are available"
            )
        return order[:length]

    # ------------------------------------------------------------------ #
    # Incremental maintenance
    # ------------------------------------------------------------------ #
    def _normalize_rows(self, rows, name: str) -> np.ndarray:
        """Coerce ``rows`` to a validated ``(b, m)`` float block.

        A single 1-D tuple becomes one row; an empty batch still has its
        attribute count checked (a ``(0, m+3)`` block is a shape error, not
        a silent no-op).  Width mismatches violate the index contract and
        raise :class:`ConfigurationError`; malformed contents (conversion
        failures, NaN/inf cells) are data problems and raise
        :class:`DataError`, matching :func:`~repro._validation.as_float_matrix`.
        """
        width = self._data.shape[1]
        try:
            rows = np.asarray(rows, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DataError(
                f"{name} could not be converted to a float array: {exc}"
            ) from exc
        if rows.ndim == 1:
            rows = rows.reshape(1, -1) if rows.size else rows.reshape(0, width)
        if rows.ndim != 2:
            raise DataError(
                f"{name} must be 2-dimensional, got shape {rows.shape}"
            )
        if rows.shape[1] != width:
            raise ConfigurationError(
                f"{name} have {rows.shape[1]} attributes, index has {width}"
            )
        if not np.all(np.isfinite(rows)):
            raise DataError(f"{name} contain NaN or infinite values")
        return np.ascontiguousarray(rows)

    def append(self, rows=None, *, slots=None) -> OrderAppendResult:
        """Add tuples to the indexed data and update every cached ordering.

        A pre-existing tuple's ordering is merged with the new candidate
        distances by one stable row-wise sort over ``L + b`` entries — but
        only when its nearest candidate is strictly closer than its last
        cached distance (a tie cannot enter: appended indices exceed every
        old one); the new tuples' orderings are computed against the grown
        store.  Both are *exactly* the orderings a cold rebuild would
        produce: the per-pair distance values are identical and ties still
        break by index (the old cached ordering and the new candidate block
        are each already in index order, so a stable sort on distance
        preserves the lexicographic order).

        The effective ordering length grows back towards the requested
        ``max_length`` cap as the store grows; while it grows every row is
        merged, so a tuple whose cached ordering held *all* points keeps a
        complete ordering.

        In store-backed mode pass ``slots`` (the columnar-store slots the
        engine appended) instead of ``rows``; the values are gathered from
        the store.

        Returns an :class:`OrderAppendResult` reporting, per pre-existing
        tuple, the first ordering position that changed.
        """
        n_before = self.n_points
        if self._store_backed:
            if slots is None:
                raise ConfigurationError(
                    "a store-backed cache grows by slots; pass append(slots=...)"
                )
            slots = np.asarray(slots, dtype=np.int64)
            rows = self._data.store.rows(slots, attrs=self._data.attrs)
        else:
            if rows is None:
                raise ConfigurationError("append requires rows (or a store view)")
            rows = self._normalize_rows(rows, "appended rows")
        if rows.shape[0] == 0:
            length = self.effective_length()
            return OrderAppendResult(
                n_before, 0, np.full(n_before, length, dtype=int)
            )
        n_appended = rows.shape[0]

        # Materialise the current orderings (and distances) before growing.
        self.keep_distances = True
        old_orders = self.order_matrix()
        old_dists = self._ensure_distances()
        old_length = old_orders.shape[1]

        n_after = n_before + n_appended
        new_indices = np.arange(n_before, n_after)

        # Distances of the appended rows against the full grown store; the
        # transpose of its left block is, by metric symmetry, bit-identical
        # to what a cold rebuild computes for the pre-existing rows.
        if self._store_backed:
            self._data = self._data.extended(slots)
        else:
            self._data = np.vstack([self._data, rows])
        appended_distances = self._pairwise(rows)

        if self._requested_length is not None:
            self.max_length = min(self._requested_length, self.max_neighbors())
        new_length = self.effective_length()

        orders = np.empty((n_after, new_length), dtype=int)
        dists = np.empty((n_after, new_length))
        # --- Orderings of the appended tuples (cold path over the full
        # store, truncated selection exactly like order_matrix()).
        orders[n_before:] = self._select_rows(appended_distances, new_indices)
        dists[n_before:] = np.take_along_axis(
            appended_distances, orders[n_before:], axis=1
        )

        # --- Merge the new candidates into the pre-existing orderings they
        # reach.  Once the capped length stops growing, a row changes only
        # when its nearest candidate is strictly closer than its last entry:
        # appended indices exceed every old one, so a tie cannot enter.
        candidate_dists = appended_distances[:, :n_before]  # (b, n_before)
        if new_length > old_length:
            touched = np.arange(n_before)
        else:
            orders[:n_before] = old_orders
            dists[:n_before] = old_dists
            touched = np.flatnonzero(
                candidate_dists.min(axis=0) < old_dists[:, -1]
            )
        concat_dists = np.hstack([old_dists[touched], candidate_dists[:, touched].T])
        concat_orders = np.hstack(
            [
                old_orders[touched],
                np.broadcast_to(new_indices, (touched.shape[0], n_appended)),
            ]
        )
        merge = np.argsort(concat_dists, axis=1, kind="stable")[:, :new_length]
        orders[touched] = np.take_along_axis(concat_orders, merge, axis=1)
        dists[touched] = np.take_along_axis(concat_dists, merge, axis=1)

        # First changed position per pre-existing tuple (old_length when the
        # ordering only grew at the tail, new_length when fully unchanged).
        padded = np.full((touched.shape[0], new_length), -1, dtype=int)
        padded[:, :old_length] = old_orders[touched]
        first_changed = np.full(n_before, new_length, dtype=int)
        first_changed[touched] = _first_difference(
            orders[touched], padded, new_length
        )

        self._matrix = orders
        self._dists = dists
        self._cache.clear()
        return OrderAppendResult(n_before, n_appended, first_changed)

    def remove(self, indices) -> OrderRemoveResult:
        """Remove tuples from the indexed data and repair every ordering.

        Every surviving ordering is renumbered into the compacted index
        space (old index tie-breaks map monotonically onto the new ones),
        which leaves the rows that held no removed tuple exact.  The rows
        that did are *compacted*: the removed entries are deleted in place,
        an order-preserving operation.  Rows whose capped ordering loses
        more entries than the new effective length allows are instead
        re-filled from fresh distance rows, a bounded block at a time (the
        dropped tail was never cached); uncapped caches never need this.

        Returns an :class:`OrderRemoveResult` carrying the per-survivor
        first-changed positions (new index space) and the old→new
        ``index_map``.
        """
        n_before = self.n_points
        indices = np.unique(np.atleast_1d(np.asarray(indices, dtype=int)))
        if indices.size == 0:
            return OrderRemoveResult(
                n_before,
                0,
                np.full(n_before, self.effective_length(), dtype=int),
                np.arange(n_before),
            )
        if indices[0] < 0 or indices[-1] >= n_before:
            raise ConfigurationError(
                f"removal indices must lie in [0, {n_before}), got "
                f"[{indices[0]}, {indices[-1]}]"
            )

        removed_mask = np.zeros(n_before, dtype=bool)
        removed_mask[indices] = True
        kept = np.flatnonzero(~removed_mask)
        index_map = np.full(n_before, -1, dtype=int)
        index_map[kept] = np.arange(kept.size)
        n_after = kept.size

        if n_after == 0:
            if self._store_backed:
                self._data = self._data.selected(np.empty(0, dtype=np.int64))
            else:
                self._data = self._data[:0].copy()
            self.max_length = None if self._requested_length is None else 0
            self._matrix = np.empty((0, 0), dtype=int)
            self._dists = np.empty((0, 0)) if self.keep_distances else None
            self._cache.clear()
            return OrderRemoveResult(
                n_before, n_before, np.empty(0, dtype=int), index_map
            )

        # Materialise the current orderings (and distances) before shrinking.
        self.keep_distances = True
        old_orders = self.order_matrix()
        old_dists = self._ensure_distances()

        if self._store_backed:
            self._data = self._data.selected(kept)
        else:
            self._data = self._data[kept]
        if self._requested_length is not None:
            self.max_length = min(self._requested_length, self.max_neighbors())
        new_length = self.effective_length()

        # --- Renumber every survivor's ordering (removed entries map to -1);
        # rows that held no removed tuple are then already exact.
        renumbered = index_map[old_orders[kept]]
        lost = (renumbered < 0).sum(axis=1)
        new_orders = renumbered[:, :new_length].copy()
        new_dists = old_dists[kept, :new_length]

        # --- Compact the rows that held a removed tuple: stable-partition
        # the kept entries to the front (order preserved), then truncate.
        # A capped row left shorter than the new length lost prefix entries
        # the cache never held beyond the cap; refill it cold instead.
        held = np.flatnonzero(lost)
        short = renumbered.shape[1] - lost[held] < new_length
        compact = held[~short]
        if compact.size:
            cols = np.argsort(renumbered[compact] < 0, axis=1, kind="stable")
            cols = cols[:, :new_length]
            new_orders[compact] = np.take_along_axis(renumbered[compact], cols, axis=1)
            new_dists[compact] = np.take_along_axis(
                old_dists[kept[compact]], cols, axis=1
            )
        refill = held[short]
        if refill.size:
            new_orders[refill], new_dists[refill] = self._cold_rows(refill)

        # First changed position per survivor: compare neighbour identities
        # against the old prefix (removed entries map to -1, never equal).
        first_changed = np.full(n_after, new_length, dtype=int)
        first_changed[held] = _first_difference(
            new_orders[held], renumbered[held, :new_length], new_length
        )

        self._matrix = new_orders
        self._dists = new_dists
        self._cache.clear()
        return OrderRemoveResult(n_before, indices.size, first_changed, index_map)

    def replace(self, index: int, row=None, *, slot=None) -> OrderReplaceResult:
        """Replace one indexed tuple's values and repair every ordering.

        Removal + merge over the kept distances, on the touched rows only:
        those holding ``index`` and those the revised tuple enters (its
        ``(distance, index)`` sorts before the row's last entry).  There
        the stale entry is dropped (its cached distance is retired) and
        the revised tuple is merged back in by one row-wise
        ``(distance, index)`` lexsort, so ties still break exactly like a
        cold rebuild.  Rows where the revised tuple fell out of a capped
        prefix are re-filled from a fresh distance row; the replaced
        tuple's own ordering comes from its candidate distance row.  Every
        other row is unchanged.

        In store-backed mode pass ``slot`` (the fresh columnar-store slot
        holding the revised tuple) instead of ``row``.
        """
        n = self.n_points
        index = int(index)
        if not 0 <= index < n:
            raise ConfigurationError(f"tuple index {index} out of range")
        if self._store_backed:
            if slot is None:
                raise ConfigurationError(
                    "a store-backed cache revises by slot; pass replace(index, slot=...)"
                )
        else:
            if row is None:
                raise ConfigurationError("replace requires a row (or a store view)")
            row = self._normalize_rows(row, "replacement row")
            if row.shape[0] != 1:
                raise ConfigurationError(
                    f"replace expects exactly one row, got {row.shape[0]}"
                )

        self.keep_distances = True
        old_orders = self.order_matrix()
        old_dists = self._ensure_distances()
        length = old_orders.shape[1]

        if self._store_backed:
            self._data = self._data.replaced(index, slot)
        else:
            data = self._data.copy()
            data[index] = row[0]
            self._data = data
        # Distances of the revised tuple against the updated store (its own
        # entry included); by metric symmetry this column doubles as every
        # other tuple's candidate distance.
        cand_dists = self._pairwise(self._data[index])

        # --- Touched rows: those holding ``index``, and those the revised
        # tuple enters, where (d, index) sorts before the row's last
        # (distance, index).  Every other ordering is unchanged.
        stale = old_orders == index
        touched = stale.any(axis=1)
        if length:
            last_dists = old_dists[:, -1]
            touched |= (cand_dists < last_dists) | (
                (cand_dists == last_dists) & (index < old_orders[:, -1])
            )
        touched[index] = False
        touched = np.flatnonzero(touched)
        held = stale[touched]

        # Retire the stale entry by pushing it past every finite distance,
        # then merge the revised candidate in by one (distance, index) sort.
        row_dists = old_dists[touched]
        row_dists[held] = np.inf
        concat_orders = np.hstack(
            [old_orders[touched], np.full((touched.shape[0], 1), index)]
        )
        concat_dists = np.hstack([row_dists, cand_dists[touched, None]])
        merge = np.lexsort((concat_orders, concat_dists), axis=1)[:, :length]
        rows = np.take_along_axis(concat_orders, merge, axis=1)
        row_dists = np.take_along_axis(concat_dists, merge, axis=1)

        # --- Re-fill rows that cannot be repaired from cached state: a row
        # whose capped ordering held ``index`` only knows length - 1 other
        # entries, so when the revised candidate lands on the final position
        # the true occupant may be an uncached tuple.
        if length < self.max_neighbors():
            refill = held.any(axis=1) & (rows[:, -1] == index)
            if refill.any():
                rows[refill], row_dists[refill] = self._cold_rows(touched[refill])

        new_orders = old_orders.copy()
        new_dists = old_dists.copy()
        new_orders[touched] = rows
        new_dists[touched] = row_dists
        # The revised tuple's own ordering comes from its distance row.
        own = self._select_rows(cand_dists[None, :], np.array([index]))[0]
        new_orders[index] = own
        new_dists[index] = cand_dists[own]

        changed = np.append(touched, index)
        first_changed = np.full(n, length, dtype=int)
        first_changed[changed] = _first_difference(
            new_orders[changed], old_orders[changed], length
        )

        self._matrix = new_orders
        self._dists = new_dists
        self._cache.clear()
        return OrderReplaceResult(index, first_changed)

    def _ensure_distances(self, chunk_size: Optional[int] = None) -> np.ndarray:
        """Backfill the distance matrix for already-materialised orderings."""
        if self._dists is not None:
            return self._dists
        matrix = self.order_matrix()
        if self._dists is not None:  # order_matrix built both just now
            return self._dists
        n = self.n_points
        if chunk_size is None:
            chunk_size = self._chunk_rows()
        dists = np.empty(matrix.shape)
        for start in range(0, n, chunk_size):
            stop = min(start + chunk_size, n)
            distances = self._pairwise(self._data[start:stop])
            dists[start:stop] = np.take_along_axis(
                distances, matrix[start:stop], axis=1
            )
        self._dists = dists
        return dists

    def restore_matrix(self, orders: np.ndarray, dists: np.ndarray) -> None:
        """Install previously materialised orderings (artifact restore path).

        ``orders``/``dists`` must be the arrays a prior :meth:`order_matrix`
        (possibly followed by :meth:`append` calls) produced for exactly the
        data this cache was constructed over.
        """
        orders = np.asarray(orders, dtype=int)
        dists = np.asarray(dists, dtype=float)
        expected = (self.n_points, self.effective_length())
        if orders.shape != expected or dists.shape != expected:
            raise ConfigurationError(
                f"restored ordering matrices must have shape {expected}, got "
                f"{orders.shape} and {dists.shape}"
            )
        self.keep_distances = True
        self._matrix = orders.copy()
        self._dists = dists.copy()
        self._cache.clear()

    @property
    def order_distances(self) -> Optional[np.ndarray]:
        """The distances aligned with :meth:`order_matrix` (``None`` until built)."""
        return self._dists

    def clear(self) -> None:
        """Drop all cached orderings (frees memory)."""
        self._cache.clear()
        self._matrix = None
        self._dists = None
