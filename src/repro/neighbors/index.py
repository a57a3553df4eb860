"""Cached neighbour orderings with exact incremental repair.

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
entry point the vectorized learning kernels build on.  Orderings are stored
as ``int32``: store indices stay below ``2**31``.

A cache is backed either by a data matrix or by a *store feature view*
(:class:`repro.online.store.StoreFeatureView`): slot references into the
shared columnar tuple store instead of a ``(n, m)`` float copy, with
pairwise distances computed over one block the view gathers from the
store once and keeps — bit-identical to the matrix, with the store the
only owner of tuple payloads.  A matrix-backed cache is read-only: it is
what the cold :class:`~repro.core.iim.IIMImputer` builds and reads.  Only
a store-backed cache — the online engine's — is mutable.  Its lifecycle
methods take store positions and slots (:meth:`~NeighborOrderCache.append`
``(slots)``, :meth:`~NeighborOrderCache.remove` ``(indices)``,
:meth:`~NeighborOrderCache.replace` ``(index, slot)``, where ``index`` and
``slot`` may also be parallel arrays), repair the cached orderings
*incrementally* and report, per tuple, the first ordering position that
changed — the signal the online engine uses to invalidate only the
affected per-tuple models.  The repaired orderings are exactly those a cold
rebuild over the mutated store would produce (same distance values, same
index tie-breaks).

Slack and the valid length
--------------------------
A store-backed cache with cap ``L`` keeps ``W = min(L + s, max_neighbors())``
entries per row, ``s = ⌈L/4⌉`` of them *slack*, and a per-row valid length
``V``: entries ``[0, V)`` are exactly the row's top ``V`` tuples by
``(distance, index)``, the rest of the row is blank (index ``-1``, distance
``+inf``), and ``V ≥ L`` after every mutation.  Readers only ever see the
first ``L`` columns (:meth:`~NeighborOrderCache.order_matrix`,
:meth:`~NeighborOrderCache.order_of`, :meth:`~NeighborOrderCache.prefix`,
:attr:`~NeighborOrderCache.order_distances`).  A row that loses an entry
compacts into its slack; appends refill the slack.  Every mutation applies
one re-fill rule: a row is re-filled from a fresh distance row, to ``W``
entries, only when its valid length dropped below ``L``
(:attr:`~NeighborOrderCache.refilled_rows` counts them).  Matrix-backed and
uncapped caches keep no slack (``s = 0``).

Each repair sorts, merges and re-fills only the rows whose ordering the
mutation can change; every other row costs one vectorised scan or gather
and is reported unchanged:

* :meth:`NeighborOrderCache.append` merges into a row only the appended
  tuples closer than its last valid entry (a row holding every tuple takes
  them all), packed per row in index order;
* :meth:`NeighborOrderCache.remove` renumbers every row with one index-map
  gather, then compacts the rows that held a removed tuple;
* :meth:`NeighborOrderCache.replace` retires the stale entries of the
  revised tuples, merges back those that sort before a row's old last
  valid entry, and takes each revised tuple's own ordering from its
  distance row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .._validation import as_float_matrix, check_positive_int
from ..exceptions import ConfigurationError
from .brute import drop_self_rows, stable_order, topk_batch
from .distance import get_metric

__all__ = [
    "NeighborOrderCache",
    "OrderAppendResult",
    "OrderRemoveResult",
    "OrderReplaceResult",
]

#: Index of a blank (past the valid length) ordering entry.
_BLANK = -1


def _first_difference(new: np.ndarray, old: np.ndarray, length: int) -> np.ndarray:
    """Per row, the first column where ``new`` and ``old`` differ (else ``length``)."""
    differs = new != old
    return np.where(differs.any(axis=1), differs.argmax(axis=1), length)


def _packed(mask: np.ndarray, values: np.ndarray, labels: np.ndarray):
    """Per row, the ``values``/``labels`` where ``mask`` holds, packed to the
    front in column order and padded with blanks to the widest row.

    Returns ``(labels, values, counts)``: ``(r, e)`` int32 labels, ``(r, e)``
    values (``+inf`` padding) and the per-row entry counts.
    """
    rows, cols = np.nonzero(mask)
    counts = np.bincount(rows, minlength=mask.shape[0])
    width = int(counts.max()) if counts.size else 0
    position = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    out_labels = np.full((mask.shape[0], width), _BLANK, dtype=np.int32)
    out_values = np.full((mask.shape[0], width), np.inf)
    out_labels[rows, position] = labels[cols]
    out_values[rows, position] = values[rows, cols]
    return out_labels, out_values, counts


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
        The replaced tuple's index (unchanged by the operation); the sorted
        distinct indices when :meth:`~NeighborOrderCache.replace` was given
        an array.
    first_changed:
        Array of shape ``(n,)``: per tuple, the first ordering position
        whose neighbour identity changed (``length`` when unchanged).  Note
        this tracks ordering changes only — a tuple whose prefix still
        *contains* a replaced tuple at the same position has an unchanged
        ordering even though that neighbour's values changed; callers that
        learn models over the prefix values must treat those rows as dirty
        too.
    """

    index: Union[int, np.ndarray]
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
        restricted to the complete attributes ``F`` — or a store feature
        view over those attributes.  Only a view-backed cache accepts
        :meth:`append`, :meth:`remove` and :meth:`replace`.
    metric:
        Distance metric name.
    include_self:
        Whether a tuple counts as its own nearest neighbour (the paper's
        learning phase includes the tuple itself in ``NN(t_i, F, ℓ)``;
        the validation step of Algorithm 3 excludes it).
    max_length:
        Optional cap ``L`` on the ordering length exposed per tuple;
        ``None`` keeps the full ordering.  Capping bounds memory at
        ``O(n · max_length)``; a store-backed cache keeps ``⌈L/4⌉`` slack
        entries per row beyond the cap (see the module docstring).
    keep_distances:
        Also materialise the distances aligned with the cached orderings of
        a matrix-backed cache.  Off by default so batch-learning callers pay
        for the index matrix only; a store-backed cache always keeps them,
        because every mutation needs them.
    """

    def __init__(
        self,
        data,
        metric: str = "paper_euclidean",
        include_self: bool = True,
        max_length: Optional[int] = None,
        keep_distances: bool = False,
    ):
        # A store feature view (duck-typed: it computes its own pairwise
        # distances) is kept as-is; anything else is a matrix.
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
        self._slack = (
            -(-max_length // 4) if self._store_backed and max_length is not None else 0
        )
        self.keep_distances = bool(keep_distances) or self._store_backed
        #: Rows re-filled from a fresh distance row by the lifecycle methods.
        self.refilled_rows = 0
        self._cache: Dict[int, np.ndarray] = {}
        # (n, W) orderings and distances, and the per-row valid lengths.
        self._matrix: Optional[np.ndarray] = None
        self._dists: Optional[np.ndarray] = None
        self._valid: Optional[np.ndarray] = None

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
        """The ordering length currently exposed per tuple."""
        return self.max_neighbors() if self.max_length is None else self.max_length

    def _width(self) -> int:
        """Entries kept per row: the exposed length plus slack, at most every
        other tuple."""
        return max(0, min(self.effective_length() + self._slack, self.max_neighbors()))

    def _resize(self) -> None:
        """Re-derive the effective cap after the indexed data grew or shrank."""
        if self._requested_length is not None:
            self.max_length = min(self._requested_length, self.max_neighbors())

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
            return self._matrix[index, : self.effective_length()]
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

    def _select_rows(
        self, distances: np.ndarray, owners: np.ndarray, width: int
    ) -> np.ndarray:
        """Cold orderings of the tuples ``owners`` from their distance rows.

        One stable selection per row (ties broken by index, exactly like the
        per-row ``np.lexsort`` of :meth:`order_of`), minus the self entry
        without ``include_self``, truncated to ``width`` entries.
        """
        n = distances.shape[1]
        # Without include_self the self entry must be dropped from the kept
        # prefix, so one extra ordered position is selected per row.
        select = min(n, width + (0 if self.include_self else 1))
        if select < n:
            _, order = topk_batch(distances, select)
        else:
            order = stable_order(distances)
        if not self.include_self:
            order = drop_self_rows(order, owners)
        return order[:, :width]

    def _cold_rows(
        self,
        rows: np.ndarray,
        chunk_size: Optional[int] = None,
        with_distances: bool = True,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Cold orderings (and distances) of ``rows`` over the current data,
        :meth:`_width` entries each.

        Computed block-wise, one pairwise-distance chunk of
        :meth:`_chunk_rows` query rows at a time, so refilling many rows
        never holds more than one ``(chunk, n)`` distance block.
        """
        if chunk_size is None:
            chunk_size = self._chunk_rows()
        width = self._width()
        orders = np.empty((rows.shape[0], width), dtype=np.int32)
        dists = np.empty((rows.shape[0], width)) if with_distances else None
        for start in range(0, rows.shape[0], chunk_size):
            block = rows[start : start + chunk_size]
            stop = start + block.shape[0]
            distances = self._pairwise(self._data[block])
            order = self._select_rows(distances, block, width)
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
        row views.  A store-backed cache builds its slack columns too and
        returns a view of the first ``L``.

        Parameters
        ----------
        chunk_size:
            Number of query rows per distance block; defaults to
            :meth:`_chunk_rows`.
        """
        if self._matrix is None:
            self._matrix, self._dists = self._cold_rows(
                np.arange(self.n_points), chunk_size, self.keep_distances
            )
            self._valid = np.full(self.n_points, self._matrix.shape[1], dtype=np.int32)
            self._cache.clear()
        return self._matrix[:, : self.effective_length()]

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
    # Incremental maintenance (store-backed caches only)
    # ------------------------------------------------------------------ #
    def _check_mutable(self) -> None:
        if not self._store_backed:
            raise ConfigurationError(
                "a matrix-backed NeighborOrderCache is read-only; build it "
                "over a store feature view to append, remove or replace"
            )

    def _install(
        self, orders: np.ndarray, dists: np.ndarray, valid: np.ndarray, rows
    ) -> None:
        """Apply the re-fill rule to ``rows``, then make the arrays current.

        A row whose valid length fell below the exposed length is re-filled
        from a fresh distance row, to the full width.
        """
        short = rows[valid[rows] < self.effective_length()]
        if short.size:
            orders[short], dists[short] = self._cold_rows(short)
            valid[short] = orders.shape[1]
            self.refilled_rows += int(short.size)
        self._matrix = orders
        self._dists = dists
        self._valid = valid
        self._cache.clear()

    def _last_valid(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per row, the index and distance of the last valid entry."""
        n, width = self._matrix.shape
        if not width:
            return np.full(n, _BLANK), np.full(n, np.inf)
        flat = np.arange(0, n * width, width) + np.maximum(self._valid - 1, 0)
        return self._matrix.ravel()[flat], self._dists.ravel()[flat]

    def append(self, slots) -> OrderAppendResult:
        """Add the tuples at store ``slots`` and update every cached ordering.

        An appended tuple enters a pre-existing row only when its distance
        is strictly below the row's last valid distance (a tie cannot enter:
        appended indices exceed every old one), or when the row holds every
        tuple.  Only those entering candidates are merged, packed per row in
        index order, by one stable row-wise sort over ``W + e`` entries
        (``e`` the most candidates entering any one row); the valid length
        rises by the number that entered, up to ``W``.  The new tuples'
        orderings are computed against the grown store.  Both are *exactly*
        the orderings a cold rebuild would produce: the per-pair distance
        values are identical and ties still break by index (the old cached
        ordering and the packed candidates are each already in index order,
        so a stable sort on distance preserves the lexicographic order).

        The effective ordering length grows back towards the requested
        ``max_length`` cap as the store grows; while it grows every row
        holds every tuple, so every row takes every candidate.

        ``slots`` are the columnar-store slots the engine appended; their
        values are gathered from the store.

        Returns an :class:`OrderAppendResult` reporting, per pre-existing
        tuple, the first ordering position that changed.
        """
        self._check_mutable()
        n_before = self.n_points
        slots = np.asarray(slots, dtype=np.int64)
        n_appended = slots.shape[0]
        if n_appended == 0:
            length = self.effective_length()
            return OrderAppendResult(
                n_before, 0, np.full(n_before, length, dtype=int)
            )
        rows = self._data.store.rows(slots, attrs=self._data.attrs)

        # Materialise the current orderings (and distances) before growing.
        old_length = self.order_matrix().shape[1]
        old_orders, old_dists, old_valid = self._matrix, self._dists, self._valid
        _, last_dists = self._last_valid()
        complete = old_valid == self.max_neighbors()

        n_after = n_before + n_appended
        new_indices = np.arange(n_before, n_after)

        # Distances of the appended rows against the full grown store; the
        # transpose of its left block is, by metric symmetry, bit-identical
        # to what a cold rebuild computes for the pre-existing rows.
        self._data = self._data.extended(slots)
        appended_distances = self._pairwise(rows)
        self._resize()
        new_length = self.effective_length()
        width = self._width()

        orders = np.empty((n_after, width), dtype=np.int32)
        dists = np.empty((n_after, width))
        valid = np.empty(n_after, dtype=np.int32)
        # --- Orderings of the appended tuples (cold path over the full
        # store, truncated selection exactly like order_matrix()).
        orders[n_before:] = self._select_rows(appended_distances, new_indices, width)
        dists[n_before:] = np.take_along_axis(
            appended_distances, orders[n_before:], axis=1
        )
        valid[n_before:] = width
        old_width = old_orders.shape[1]
        orders[:n_before, :old_width] = old_orders
        orders[:n_before, old_width:] = _BLANK
        dists[:n_before, :old_width] = old_dists
        dists[:n_before, old_width:] = np.inf
        valid[:n_before] = old_valid

        # --- Merge the entering candidates into the rows they reach.
        candidate_dists = appended_distances[:, :n_before]  # (b, n_before)
        touched = np.flatnonzero(
            (candidate_dists.min(axis=0) < last_dists) | complete
        )
        first_changed = np.full(n_before, new_length, dtype=int)
        if touched.size:
            candidate_dists = candidate_dists[:, touched].T  # (t, b)
            enters = (candidate_dists < last_dists[touched, None]) | complete[
                touched, None
            ]
            packed_orders, packed_dists, entered = _packed(
                enters, candidate_dists, new_indices
            )
            concat_dists = np.hstack([old_dists[touched], packed_dists])
            concat_orders = np.hstack([old_orders[touched], packed_orders])
            merge = np.argsort(concat_dists, axis=1, kind="stable")[:, :width]
            # Entries past the new valid length are blanks (+inf sorts last).
            orders[touched, : merge.shape[1]] = np.take_along_axis(
                concat_orders, merge, axis=1
            )
            dists[touched, : merge.shape[1]] = np.take_along_axis(
                concat_dists, merge, axis=1
            )
            valid[touched] = np.minimum(old_valid[touched] + entered, width)

            # First changed position per touched tuple (old_length when the
            # ordering only grew at the tail).
            padded = np.full((touched.shape[0], new_length), _BLANK, dtype=np.int32)
            padded[:, :old_length] = old_orders[touched, :old_length]
            first_changed[touched] = _first_difference(
                orders[touched, :new_length], padded, new_length
            )

        self._install(orders, dists, valid, touched)
        return OrderAppendResult(n_before, n_appended, first_changed)

    def remove(self, indices) -> OrderRemoveResult:
        """Remove tuples from the indexed data and repair every ordering.

        Every surviving ordering is renumbered into the compacted index
        space (old index tie-breaks map monotonically onto the new ones),
        which leaves the rows that held no removed tuple exact.  The rows
        that did are *compacted*: the removed entries are deleted in place,
        an order-preserving operation, and the valid length drops by the
        number of entries lost inside it.  Only a row whose valid length
        fell below the new effective length is re-filled from a fresh
        distance row; uncapped caches never need this.

        Returns an :class:`OrderRemoveResult` carrying the per-survivor
        first-changed positions (new index space) and the old→new
        ``index_map``.
        """
        self._check_mutable()
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
        # One extra trailing entry maps blank (-1) entries to blanks too.
        renumber = np.full(n_before + 1, _BLANK, dtype=np.int32)
        renumber[kept] = np.arange(kept.size)
        index_map = renumber[:n_before]
        n_after = kept.size

        if n_after == 0:
            self._data = self._data.selected(kept)
            self.max_length = None if self._requested_length is None else 0
            self._matrix = np.empty((0, 0), dtype=np.int32)
            self._dists = np.empty((0, 0))
            self._valid = np.empty(0, dtype=np.int32)
            self._cache.clear()
            return OrderRemoveResult(
                n_before, n_before, np.empty(0, dtype=int), index_map
            )

        # Materialise the current orderings (and distances) before shrinking.
        self.order_matrix()
        old_orders, old_dists, old_valid = self._matrix, self._dists, self._valid
        old_width = old_orders.shape[1]

        self._data = self._data.selected(kept)
        self._resize()
        new_length = self.effective_length()
        width = self._width()

        # --- Renumber every survivor's ordering (removed entries map to -1);
        # rows that held no removed tuple are then already exact.
        renumbered = renumber[old_orders[kept]]
        gone = renumbered < 0
        old_valid = old_valid[kept]
        lost = gone.sum(axis=1) - (old_width - old_valid)
        valid = np.minimum(old_valid - lost, width).astype(np.int32)
        new_orders = renumbered[:, :width].copy()
        new_dists = old_dists[kept, :width]

        # --- Compact the rows that held a removed tuple: stable-partition
        # the kept entries to the front (order preserved), then truncate.
        held = np.flatnonzero(lost)
        if held.size:
            cols = np.argsort(gone[held], axis=1, kind="stable")[:, :width]
            new_orders[held] = np.take_along_axis(renumbered[held], cols, axis=1)
            held_dists = np.take_along_axis(old_dists[kept[held]], cols, axis=1)
            held_dists[np.arange(width) >= valid[held, None]] = np.inf
            new_dists[held] = held_dists

        self._install(new_orders, new_dists, valid, held)
        # First changed position per survivor: compare neighbour identities
        # against the old prefix (removed entries map to -1, never equal).
        first_changed = np.full(n_after, new_length, dtype=int)
        first_changed[held] = _first_difference(
            new_orders[held, :new_length], renumbered[held, :new_length], new_length
        )
        return OrderRemoveResult(n_before, indices.size, first_changed, index_map)

    def replace(self, index, slot) -> OrderReplaceResult:
        """Point indexed tuples at revised store slots and repair every
        ordering.

        ``index`` and ``slot`` are one tuple index and the fresh
        columnar-store slot holding its revised values, or parallel arrays
        of them (a run of updates); an index given twice keeps its last
        slot.

        Removal + merge over the kept distances, on the touched rows only:
        those holding a revised tuple and those a revised tuple enters (its
        new ``(distance, index)`` sorts before the row's old last valid
        entry; a row holding every tuple takes them all).  There the stale
        entries are retired and the entering tuples merged back by one
        row-wise ``(distance, index)`` lexsort, so ties still break exactly
        like a cold rebuild; the valid length becomes ``V - held +
        entered``, up to ``W``.  Each revised tuple's own ordering comes
        from its distance row.  Every other row is unchanged.
        """
        self._check_mutable()
        n = self.n_points
        scalar = np.ndim(index) == 0
        indices = np.atleast_1d(np.asarray(index, dtype=np.int64))
        slots = np.atleast_1d(np.asarray(slot, dtype=np.int64))
        if indices.shape != slots.shape or indices.ndim != 1:
            raise ConfigurationError(
                "replace takes one index and slot, or parallel 1-D arrays of them"
            )
        out_of_range = indices[(indices < 0) | (indices >= n)]
        if out_of_range.size:
            raise ConfigurationError(f"tuple index {out_of_range[0]} out of range")
        # A repeated index keeps its last slot.
        indices, last = np.unique(indices[::-1], return_index=True)
        slots = slots[::-1][last]

        self.order_matrix()
        old_orders, old_dists, old_valid = self._matrix, self._dists, self._valid
        length = self.effective_length()
        width = old_orders.shape[1]
        last_orders, last_dists = self._last_valid()
        complete = old_valid == self.max_neighbors()

        self._data = self._data.replaced(indices, slots)
        # Distances of the revised tuples against the updated store (their
        # own entries included); by metric symmetry these rows double as
        # every other tuple's candidate distances.
        cand_dists = self._pairwise(self._data[indices])  # (k, n)

        # --- Touched rows: those holding a revised tuple, and those a
        # revised tuple enters, where (d, index) sorts before the row's old
        # last valid (distance, index).  The revised rows are rebuilt whole.
        # One membership gather; the extra trailing entry keeps blanks out.
        member = np.zeros(n + 1, dtype=bool)
        member[indices] = True
        stale = member[old_orders]
        candidates = cand_dists.T  # (n, k)
        enters = (
            (candidates < last_dists[:, None])
            | ((candidates == last_dists[:, None]) & (indices < last_orders[:, None]))
            | complete[:, None]
        )
        touched = stale.any(axis=1) | enters.any(axis=1)
        touched[indices] = False
        touched = np.flatnonzero(touched)

        # Retire the stale entries as blanks, then merge the entering
        # candidates in by one (distance, index) sort; blanks sort last.
        row_orders = old_orders[touched]
        row_dists = old_dists[touched]
        retired = stale[touched]
        row_orders[retired] = _BLANK
        row_dists[retired] = np.inf
        packed_orders, packed_dists, entered = _packed(
            enters[touched], candidates[touched], indices
        )
        concat_orders = np.hstack([row_orders, packed_orders])
        concat_dists = np.hstack([row_dists, packed_dists])
        merge = np.lexsort((concat_orders, concat_dists), axis=1)[:, :width]

        new_orders = old_orders.copy()
        new_dists = old_dists.copy()
        valid = old_valid.copy()
        new_orders[touched] = np.take_along_axis(concat_orders, merge, axis=1)
        new_dists[touched] = np.take_along_axis(concat_dists, merge, axis=1)
        valid[touched] = np.minimum(
            old_valid[touched] - retired.sum(axis=1) + entered, width
        )
        # The revised tuples' own orderings come from their distance rows.
        own = self._select_rows(cand_dists, indices, width)
        new_orders[indices] = own
        new_dists[indices] = np.take_along_axis(cand_dists, own, axis=1)
        valid[indices] = width

        self._install(new_orders, new_dists, valid, touched)
        changed = np.concatenate([touched, indices])
        first_changed = np.full(n, length, dtype=int)
        first_changed[changed] = _first_difference(
            new_orders[changed, :length], old_orders[changed, :length], length
        )
        return OrderReplaceResult(int(indices[0]) if scalar else indices, first_changed)

    def restore_matrix(self, orders: np.ndarray, dists: np.ndarray) -> None:
        """Install previously materialised orderings (artifact restore path).

        ``orders``/``dists`` must be the exposed ``(n, L)`` arrays a prior
        :meth:`order_matrix` (possibly followed by lifecycle calls) produced
        for exactly the data this cache was constructed over.  The restored
        rows start with valid length ``L`` and blank slack.
        """
        orders = np.asarray(orders, dtype=int)
        dists = np.asarray(dists, dtype=float)
        n, length = self.n_points, self.effective_length()
        if orders.shape != (n, length) or dists.shape != (n, length):
            raise ConfigurationError(
                f"restored ordering matrices must have shape {(n, length)}, got "
                f"{orders.shape} and {dists.shape}"
            )
        width = self._width()
        self._matrix = np.full((n, width), _BLANK, dtype=np.int32)
        self._matrix[:, :length] = orders
        self._dists = np.full((n, width), np.inf)
        self._dists[:, :length] = dists
        self._valid = np.full(n, length, dtype=np.int32)
        self._cache.clear()

    @property
    def order_distances(self) -> Optional[np.ndarray]:
        """The distances aligned with :meth:`order_matrix` (``None`` until built)."""
        if self._dists is None:
            return None
        return self._dists[:, : self.effective_length()]

    @property
    def order_nbytes(self) -> int:
        """Bytes of the backing orderings, distances and valid lengths
        (slack included; 0 until built)."""
        return sum(
            int(array.nbytes)
            for array in (self._matrix, self._dists, self._valid)
            if array is not None
        )

    def clear(self) -> None:
        """Drop all cached orderings (frees memory)."""
        self._cache.clear()
        self._matrix = None
        self._dists = None
        self._valid = None
