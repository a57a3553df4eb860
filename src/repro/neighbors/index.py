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
a store-backed cache — the online engine's — is mutable.  One method
changes it: :meth:`~NeighborOrderCache.repair` takes a batch of mutations
as three runs — revised indices with their fresh store slots, deleted
indices and appended slots — repairs the cached orderings
*incrementally*, once, and reports, per surviving tuple, the first
ordering position that changed and the first that holds a revised tuple
— the signals the online engine uses to invalidate only the affected
per-tuple models.  :meth:`~NeighborOrderCache.append` ``(slots)``,
:meth:`~NeighborOrderCache.remove` ``(indices)`` and
:meth:`~NeighborOrderCache.replace` ``(index, slot)`` are one-run calls of
it.  The repaired orderings are exactly those a cold rebuild over the
mutated store would produce (same distance values, same index
tie-breaks).

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

A repair sorts, merges and re-fills only the rows whose ordering the
mutations can change; every other row costs one vectorised gather and is
reported unchanged:

* every surviving row is renumbered into the new index space by one
  gather (the order of survivors is kept, so a row that holds no revised
  or deleted tuple and takes no candidate is then exact);
* the revised and appended tuples are priced against the final data by
  one distance call; their own orderings come from those rows, and the
  same rows are every other tuple's candidates;
* a candidate enters a row only when it sorts before the row's old last
  valid ``(distance, index)`` entry (an appended tuple only when strictly
  closer: its index exceeds every survivor's), or when the row held every
  tuple;
* one merge retires the revised and deleted entries of the rows holding
  them and sorts the entering candidates in by ``(distance, index)``.
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
    "OrderRepairResult",
    "OrderReplaceResult",
]

#: Index of a blank (past the valid length) ordering entry.
_BLANK = -1


def _first_difference(new: np.ndarray, old: np.ndarray, length: int) -> np.ndarray:
    """Per row, the first of the ``length`` columns where ``new`` and ``old``
    differ (else ``length``); ``old`` is cut, or padded with blanks, to
    ``length`` columns."""
    if old.shape[1] < length:
        old = np.hstack(
            [old, np.full((old.shape[0], length - old.shape[1]), _BLANK, old.dtype)]
        )
    differs = new[:, :length] != old[:, :length]
    return np.where(differs.any(axis=1), differs.argmax(axis=1), length)


def _packed(rows: np.ndarray, labels: np.ndarray, values: np.ndarray, n_rows: int):
    """The ``labels``/``values`` of entries owned by ``rows`` (sorted), each
    row's packed to the front in the given order and padded with blanks to
    the widest row.

    Returns ``(labels, values, counts)``: ``(n_rows, e)`` int32 labels,
    ``(n_rows, e)`` values (``+inf`` padding) and the per-row entry counts.
    """
    counts = np.bincount(rows, minlength=n_rows)
    width = int(counts.max()) if counts.size else 0
    position = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    out_labels = np.full((n_rows, width), _BLANK, dtype=np.int32)
    out_values = np.full((n_rows, width), np.inf)
    out_labels[rows, position] = labels
    out_values[rows, position] = values
    return out_labels, out_values, counts


def _merged(orders: np.ndarray, dists: np.ndarray, width: int, revised: bool):
    """Each row's entries in ``(distance, index)`` order, cut or padded with
    blanks to ``width`` columns.

    A repair hands every row its surviving entries, already in that order,
    followed by the entering candidates in index order, so one stable sort
    by distance orders it unless a revised tuple (``revised``: one is among
    the candidates) ties an entry with a larger index; only the rows where
    such a tie left two indices out of order are sorted again, by
    ``(distance, index)``.
    """
    n_rows, columns = dists.shape
    flat = np.argsort(dists, axis=1, kind="stable")
    flat += np.arange(0, n_rows * columns, columns)[:, None]
    sorted_orders, sorted_dists = np.take(orders, flat), np.take(dists, flat)
    if revised:
        tied = (sorted_dists[:, 1:] == sorted_dists[:, :-1]) & (
            sorted_orders[:, 1:] < sorted_orders[:, :-1]
        )
        rows = np.flatnonzero(tied.any(axis=1))
        if rows.size:
            order = np.lexsort((orders[rows], dists[rows]), axis=1)
            sorted_orders[rows] = np.take_along_axis(orders[rows], order, axis=1)
            sorted_dists[rows] = np.take_along_axis(dists[rows], order, axis=1)
    if columns < width:
        pad = width - columns
        return (
            np.hstack([sorted_orders, np.full((n_rows, pad), _BLANK, np.int32)]),
            np.hstack([sorted_dists, np.full((n_rows, pad), np.inf)]),
        )
    return sorted_orders[:, :width], sorted_dists[:, :width]


@dataclass
class OrderRepairResult:
    """Outcome of one :meth:`NeighborOrderCache.repair` call.

    Attributes
    ----------
    index_map:
        Array of shape ``(n_before,)`` mapping old tuple indices to new
        ones; deleted tuples map to ``-1``.  Survivors keep their order,
        revised tuples included, and the appended tuples follow them.
    first_changed:
        Array of shape ``(n_kept,)``, aligned with the surviving tuples in
        their new index order: the first position of each survivor's
        exposed ordering whose neighbour *identity* differs from its old
        ordering renumbered (the effective length when none does), so
        ``first_changed[i] < ell`` is exactly "the ``ell``-prefix of
        survivor ``i`` changed".
    first_revised:
        Array of shape ``(n_kept,)``: per survivor, the first exposed
        position that holds a revised tuple (the effective length when
        none does).  Such a prefix keeps its identities but not its values.
    """

    index_map: np.ndarray
    first_changed: np.ndarray
    first_revised: np.ndarray

    def kept_rows(self) -> np.ndarray:
        """Old indices of the surviving tuples, in new index order."""
        return np.flatnonzero(self.index_map >= 0)


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
        too (:attr:`OrderRepairResult.first_revised` reports them).
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
            return self._data.pairwise(query, self.metric)
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
                "over a store feature view to repair it"
            )

    def _last_valid(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per row, the index and distance of the last valid entry."""
        n, width = self._matrix.shape
        if not width:
            return np.full(n, _BLANK), np.full(n, np.inf)
        flat = np.arange(0, n * width, width) + np.maximum(self._valid - 1, 0)
        return self._matrix.ravel()[flat], self._dists.ravel()[flat]

    def repair(self, revised=(), fresh=(), deleted=(), appended=()) -> OrderRepairResult:
        """Replay one batch of mutations and repair every ordering once.

        The tuples ``revised`` now read the store slots ``fresh`` (parallel
        arrays), the tuples ``deleted`` leave, and the tuples at the store
        slots ``appended`` join after every survivor; indices are the
        cache's current ones, and no tuple is both revised and deleted.
        The repaired orderings are exactly those a cold rebuild over the
        final data produces (the module docstring says how).  A revised
        candidate at a row's threshold distance is ranked by its old index,
        which orders survivors as the new indices do.  A merged row's valid
        length becomes ``V − retired + entered``, up to ``W``, and a row
        left below the exposed length is re-filled.

        Returns an :class:`OrderRepairResult`.
        """
        self._check_mutable()
        n = self.n_points
        revised = np.asarray(revised, dtype=np.int64).reshape(-1)
        fresh = np.asarray(fresh, dtype=np.int64).reshape(-1)
        deleted = np.sort(np.asarray(deleted, dtype=np.int64).reshape(-1))
        appended = np.asarray(appended, dtype=np.int64).reshape(-1)
        if fresh.shape != revised.shape:
            raise ConfigurationError("every revised tuple needs one fresh slot")
        order = np.argsort(revised, kind="stable")
        revised, fresh = revised[order], fresh[order]
        named = np.concatenate([revised, deleted])
        if named.size and (
            named.min() < 0 or named.max() >= n or np.unique(named).size < named.size
        ):
            raise ConfigurationError(
                f"revised and deleted tuples must be distinct indices in [0, {n})"
            )
        if not (named.size or appended.size):
            length = self.effective_length()
            return OrderRepairResult(
                np.arange(n), np.full(n, length), np.full(n, length)
            )

        self.order_matrix()
        old_orders, old_dists, old_valid = self._matrix, self._dists, self._valid
        last_orders, last_dists = self._last_valid()
        complete = old_valid == self.max_neighbors()
        alive = np.ones(n, dtype=bool)
        alive[deleted] = False
        kept = np.flatnonzero(alive)
        n_kept = kept.shape[0]
        # Old → new indices; one extra trailing entry maps blanks to blanks.
        index_map = np.full(n + 1, _BLANK, dtype=np.int32)
        index_map[kept] = np.arange(n_kept)
        moved = index_map[revised].astype(np.int64)
        n_after = n_kept + appended.shape[0]

        self._data = self._data.repaired(kept, moved, fresh, appended)
        self._resize()
        if n_after == 0:
            self.max_length = None if self._requested_length is None else 0
            self._install(
                np.empty((0, 0), dtype=np.int32), np.empty((0, 0)),
                np.empty(0, dtype=np.int32), np.empty(0, dtype=int),
            )
            return OrderRepairResult(index_map[:n], np.empty(0, int), np.empty(0, int))
        length = self.effective_length()
        width = self._width()

        # --- The candidates: revised and appended tuples, in index order.
        candidates = np.concatenate([moved, np.arange(n_kept, n_after)])
        if candidates.size:
            cand_dists = self._pairwise(
                np.take(self._data.block(), candidates, axis=0)
            )
        else:
            cand_dists = np.empty((0, n_after))
        own = self._select_rows(cand_dists, candidates, width)

        # --- The survivors' old entries in the new index space (identities:
        # revised tuples keep theirs), and which of them are stale.
        rows = old_orders if not deleted.size else np.take(old_orders, kept, axis=0)
        renumbered = rows if not deleted.size else np.take(index_map, rows)
        stale = None
        if named.size:
            member = np.zeros(n + 1, dtype=bool)
            member[named] = True
            stale = np.take(member, rows)

        # --- Entering candidates, against each row's old last valid entry.
        to_rows = cand_dists[:, :n_kept]
        limits = np.take(last_dists, kept)
        enters = to_rows < limits
        if revised.size:
            enters[: revised.size] |= (to_rows[: revised.size] == limits) & (
                revised[:, None] < np.take(last_orders, kept)
            )
        enters |= np.take(complete, kept)
        enters[:, moved] = False  # revised rows are rebuilt whole
        # The entering (candidate, row) pairs, row by row in index order.
        pairs = np.flatnonzero(enters)
        pairs = pairs[np.argsort(pairs % n_kept, kind="stable")]
        entering, entered_rows = np.divmod(pairs, n_kept)
        merged = np.zeros(n_kept, dtype=bool) if stale is None else stale.any(axis=1)
        merged[entered_rows] = True
        merged[moved] = False
        merged = np.flatnonzero(merged)

        orders = np.empty((n_after, width), dtype=np.int32)
        dists = np.empty((n_after, width))
        valid = np.empty(n_after, dtype=np.int32)
        keep = min(width, old_orders.shape[1])
        kept_dists = old_dists if not deleted.size else np.take(old_dists, kept, axis=0)
        orders[:n_kept, :keep] = renumbered[:, :keep]
        orders[:n_kept, keep:] = _BLANK
        dists[:n_kept, :keep] = kept_dists[:, :keep]
        dists[:n_kept, keep:] = np.inf
        valid[:n_kept] = np.minimum(np.take(old_valid, kept), width)

        # --- One merge: retire the stale entries as blanks, then sort the
        # entering candidates in.
        if merged.size:
            row_orders = np.take(renumbered, merged, axis=0)
            row_dists = np.take(kept_dists, merged, axis=0)
            retired = 0
            if stale is not None:
                row_stale = np.take(stale, merged, axis=0)
                row_orders[row_stale] = _BLANK
                row_dists[row_stale] = np.inf
                retired = row_stale.sum(axis=1)
            slot = np.empty(n_kept, dtype=np.int64)
            slot[merged] = np.arange(merged.size)
            packed_orders, packed_dists, entered = _packed(
                np.take(slot, entered_rows),
                np.take(candidates, entering),
                np.take(cand_dists, entering * n_after + entered_rows),
                merged.size,
            )
            orders[merged], dists[merged] = _merged(
                np.hstack([row_orders, packed_orders]),
                np.hstack([row_dists, packed_dists]),
                width,
                bool(revised.size),
            )
            valid[merged] = np.minimum(
                np.take(old_valid, np.take(kept, merged)) - retired + entered, width
            )
        orders[candidates] = own
        dists[candidates] = np.take_along_axis(cand_dists, own, axis=1)
        valid[candidates] = width
        self._install(orders, dists, valid, merged)

        # --- Per survivor: the first exposed position whose identity moved,
        # and the first that holds a revised tuple.
        rebuilt = np.concatenate([merged, moved])
        final = np.take(orders, rebuilt, axis=0)
        first_changed = np.full(n_kept, length, dtype=int)
        first_changed[rebuilt] = _first_difference(
            final, np.take(renumbered, rebuilt, axis=0), length
        )
        first_revised = np.full(n_kept, length, dtype=int)
        if revised.size:
            is_revised = np.zeros(n_after + 1, dtype=bool)
            is_revised[moved] = True
            held = np.take(is_revised, final[:, :length])
            first_revised[rebuilt] = np.where(
                held.any(axis=1), held.argmax(axis=1), length
            )
        return OrderRepairResult(index_map[:n], first_changed, first_revised)

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

    def append(self, slots) -> OrderAppendResult:
        """Add the tuples at store ``slots`` (:meth:`repair` with an
        appended run only).

        An appended tuple enters a row only when strictly closer than the
        row's last valid entry, since its index exceeds every old one, or
        when the row holds every tuple.  The effective ordering length
        grows back towards the requested ``max_length`` cap as the store
        grows; while it grows every row holds every tuple.
        """
        n_before = self.n_points
        result = self.repair(appended=slots)
        return OrderAppendResult(
            n_before, self.n_points - n_before, result.first_changed
        )

    def remove(self, indices) -> OrderRemoveResult:
        """Remove tuples (:meth:`repair` with a deleted run only); duplicate
        indices collapse.

        Survivors compact in order; a row that held a removed tuple loses
        valid length by the entries it lost, and is re-filled only when it
        falls below the effective length.
        """
        indices = np.unique(np.asarray(indices, dtype=np.int64))
        n_before = self.n_points
        result = self.repair(deleted=indices)
        return OrderRemoveResult(
            n_before, indices.size, result.first_changed, result.index_map
        )

    def replace(self, index, slot) -> OrderReplaceResult:
        """Point indexed tuples at revised store slots (:meth:`repair` with
        a revised run only).

        ``index`` and ``slot`` are one tuple index and the fresh
        columnar-store slot holding its revised values, or parallel arrays
        of them (a run of updates); an index given twice keeps its last
        slot.
        """
        scalar = np.ndim(index) == 0
        indices = np.atleast_1d(np.asarray(index, dtype=np.int64))
        slots = np.atleast_1d(np.asarray(slot, dtype=np.int64))
        if indices.shape != slots.shape or indices.ndim != 1:
            raise ConfigurationError(
                "replace takes one index and slot, or parallel 1-D arrays of them"
            )
        # A repeated index keeps its last slot.
        indices, last = np.unique(indices[::-1], return_index=True)
        result = self.repair(revised=indices, fresh=slots[::-1][last])
        return OrderReplaceResult(
            int(indices[0]) if scalar else indices, result.first_changed
        )

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
