"""Sharded columnar tuple store shared by every online model state.

Before this module each :class:`~repro.neighbors.NeighborOrderCache` owned a
private ``(n, |F|)`` feature-submatrix copy and every engine attribute state
a private target-column copy, each rewritten by every mutation.  The
classes here give every tuple payload **one** owner, a columnar store, which
model states read through slot references:

* :class:`ColumnarTupleStore` — the single owner of every tuple payload.
  One array per attribute, partitioned into **fixed-capacity row shards**:
  appends only ever allocate new shards (existing rows are never copied or
  reallocated), deletes recycle rows through a free list, and updates write
  the revised tuple into a *fresh* slot so the old version stays readable.
  Retired slots are kept on a pending list until :meth:`release` — the MVCC
  discipline that lets a lazily-synced model state replay a mutation
  journal against the exact intermediate values each operation saw.
* :class:`StoreFeatureView` — an immutable ``(n, m-1)`` *view* of the
  store: an array of slot references plus an excluded (target) attribute.
  The rows it reads never change, so it gathers them once, per shard, on
  first use and keeps those blocks for its lifetime; pairwise distances
  are computed **per shard** (one bounded ``(q, shard)`` block at a time)
  and are bit-identical to a monolithic metric call over a materialised
  matrix.
* :func:`sharded_topk` / :class:`ShardedNeighbors` — neighbour queries as a
  per-shard top-K selection followed by one exact cross-shard merge; the
  merged result reproduces the global ``(distance, index)`` lexsort order
  *including ties* (asserted against the unsharded reference in the test
  suite).
* :class:`MutationJournal` — the engine's mutation log as a **bounded ring
  buffer**.  Entries hold store slot references only (the payloads are
  durable in the store the moment the mutation lands), so journal memory is
  ``O(capacity)`` integers regardless of how wide the tuples are or how
  long a lazy burst runs; overflowing entries spill off the ring, advancing
  the replay floor, and report the slots they owned so the store can
  recycle them.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError, DataError, NotFittedError
from ..obs import count_journal_spill, count_store_rows
from .._validation import check_positive_int
from ..neighbors.brute import stable_order, topk_batch
from ..neighbors.distance import get_metric

__all__ = [
    "ColumnarTupleStore",
    "StoreFeatureView",
    "ShardedNeighbors",
    "MutationJournal",
    "sharded_topk",
]


class ColumnarTupleStore:
    """A mutable store of complete tuples: sharded, columnar, slot-addressed.

    Parameters
    ----------
    width:
        Number of attributes ``m`` per tuple.
    shard_capacity:
        Rows per shard.  Each attribute of each shard is one contiguous
        ``(shard_capacity,)`` float array; growing the store appends shards
        and never moves existing rows.

    Addressing
    ----------
    A **slot** is a stable physical row id: ``shard = slot // capacity``,
    ``offset = slot % capacity``.  The **logical** store order (what the
    engine exposes as tuple indices) is the ``live_slots`` array: logical
    index ``i`` lives in slot ``live_slots[i]``.  Deletes compact the
    logical order but leave slots in place; updates allocate a fresh slot
    for the new version.  Retired slots move to a *pending* list and stay
    readable until :meth:`release` hands them back to the free list.
    """

    def __init__(self, width: int, shard_capacity: int = 4096):
        self.width = check_positive_int(width, "width")
        self.shard_capacity = check_positive_int(shard_capacity, "shard_capacity")
        # columns[attr][shard] -> (shard_capacity,) float array
        self._columns: List[List[np.ndarray]] = [[] for _ in range(self.width)]
        self._live = np.empty(0, dtype=np.int64)
        self._free: List[int] = []
        self._pending: set = set()
        self._n_allocated = 0  # high-water slot mark (shards * capacity used)
        self.recycled_slots = 0  # free-list reuses (observability)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_live(self) -> int:
        """Number of live (logically visible) tuples."""
        return int(self._live.shape[0])

    @property
    def n_shards(self) -> int:
        """Number of allocated shards."""
        return len(self._columns[0])

    @property
    def n_slots(self) -> int:
        """Total allocated slot capacity across shards."""
        return self.n_shards * self.shard_capacity

    @property
    def n_pending(self) -> int:
        """Retired slots still retained for journal replay."""
        return len(self._pending)

    @property
    def n_free(self) -> int:
        """Slots available for recycling."""
        return len(self._free)

    @property
    def live_slots(self) -> np.ndarray:
        """The logical-order slot array (read-only view)."""
        view = self._live.view()
        view.setflags(write=False)
        return view

    @property
    def nbytes(self) -> int:
        """Resident payload bytes (columns + logical order)."""
        column_bytes = sum(
            shard.nbytes for column in self._columns for shard in column
        )
        return int(column_bytes + self._live.nbytes)

    def shards_of(self, slots: np.ndarray) -> np.ndarray:
        """Shard ids intersected by ``slots`` (the per-mutation dirty set)."""
        slots = np.asarray(slots, dtype=np.int64)
        return np.unique(slots // self.shard_capacity)

    def live_rows_per_shard(self) -> np.ndarray:
        """Live-row count per shard (a shard can shrink to zero and refill)."""
        counts = np.zeros(max(self.n_shards, 1), dtype=int)
        if self._live.size:
            shard_ids, shard_counts = np.unique(
                self._live // self.shard_capacity, return_counts=True
            )
            counts[shard_ids] = shard_counts
        return counts[: self.n_shards]

    # ------------------------------------------------------------------ #
    # Slot allocation
    # ------------------------------------------------------------------ #
    def _allocate(self, count: int) -> np.ndarray:
        slots = []
        if self._free:
            self._free.sort(reverse=True)  # pop lowest slots first
            while self._free and len(slots) < count:
                slots.append(self._free.pop())
            self.recycled_slots += len(slots)
        while len(slots) < count:
            if self._n_allocated == self.n_slots:
                for column in self._columns:
                    column.append(np.empty(self.shard_capacity))
            slots.append(self._n_allocated)
            self._n_allocated += 1
        return np.asarray(slots, dtype=np.int64)

    def _write(self, slots: np.ndarray, values: np.ndarray) -> None:
        shard_ids = slots // self.shard_capacity
        offsets = slots - shard_ids * self.shard_capacity
        for shard in np.unique(shard_ids):
            mask = shard_ids == shard
            block_offsets = offsets[mask]
            for attr in range(self.width):
                self._columns[attr][shard][block_offsets] = values[mask, attr]

    # ------------------------------------------------------------------ #
    # Mutations
    # ------------------------------------------------------------------ #
    def append(self, values: np.ndarray) -> np.ndarray:
        """Add complete tuples; returns the slots they were written to."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != self.width:
            raise DataError(
                f"appended block must have shape (b, {self.width}), got "
                f"{values.shape}"
            )
        if values.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        slots = self._allocate(values.shape[0])
        self._write(slots, values)
        self._live = np.concatenate([self._live, slots])
        count_store_rows("append", values.shape[0])
        return slots

    def delete(self, indices: np.ndarray) -> np.ndarray:
        """Retire the tuples at the given *logical* indices.

        Surviving tuples compact in order.  Returns the retired slots; they
        stay readable (pending) until :meth:`release`.
        """
        indices = np.asarray(indices, dtype=np.int64)
        retired = self._live[indices]
        keep = np.ones(self.n_live, dtype=bool)
        keep[indices] = False
        self._live = self._live[keep]
        self._pending.update(int(s) for s in retired)
        count_store_rows("delete", retired.shape[0])
        return retired

    def update(self, index: int, row: np.ndarray) -> Tuple[int, int]:
        """Write a revised tuple into a fresh slot; returns (old, new) slots.

        The old version stays readable (pending) until :meth:`release` — the
        retention that lets journal replay reconstruct intermediate states.
        """
        row = np.asarray(row, dtype=float).reshape(1, -1)
        if row.shape[1] != self.width:
            raise DataError(
                f"updated row must have {self.width} attributes, got {row.shape[1]}"
            )
        old_slot = int(self._live[index])
        new_slot = int(self._allocate(1)[0])
        self._write(np.asarray([new_slot], dtype=np.int64), row)
        self._live[index] = new_slot
        self._pending.add(old_slot)
        count_store_rows("update", 1)
        return old_slot, new_slot

    def release(self, slots: Iterable[int]) -> None:
        """Hand retired slots back to the free list for recycling."""
        for slot in np.asarray(list(slots), dtype=np.int64).ravel():
            slot = int(slot)
            if slot in self._pending:
                self._pending.discard(slot)
                self._free.append(slot)

    def clear_live(self) -> np.ndarray:
        """Retire every live tuple (the all-rows-deleted state)."""
        return self.delete(np.arange(self.n_live))

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def column(self, attr: int, slots: Optional[np.ndarray] = None) -> np.ndarray:
        """One attribute's values, gathered by slot (default: live order)."""
        if slots is None:
            slots = self._live
        return self.rows(slots, attrs=(attr,))[:, 0]

    def rows(
        self, slots: np.ndarray, attrs: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Materialise the tuples at ``slots`` (optionally a column subset).

        The slots are grouped by shard once for every column; when they
        all sit in one shard each column is one direct gather.
        """
        slots = np.asarray(slots, dtype=np.int64)
        attrs = tuple(range(self.width)) if attrs is None else tuple(attrs)
        out = np.empty((slots.shape[0], len(attrs)))
        shard_ids = slots // self.shard_capacity
        offsets = slots - shard_ids * self.shard_capacity
        if slots.size and shard_ids.min() == shard_ids.max():
            groups = [(int(shard_ids[0]), slice(None), offsets)]
        else:
            groups = []
            for shard in np.unique(shard_ids):
                positions = np.flatnonzero(shard_ids == shard)
                groups.append((int(shard), positions, offsets[positions]))
        for position, attr in enumerate(attrs):
            column = self._columns[attr]
            for shard, positions, shard_offsets in groups:
                out[positions, position] = column[shard][shard_offsets]
        return out

    def matrix(self) -> np.ndarray:
        """The live store as a dense ``(n, m)`` matrix (materialised copy)."""
        return self.rows(self._live)

    def feature_view(
        self, exclude: Optional[int] = None, slots: Optional[np.ndarray] = None
    ) -> "StoreFeatureView":
        """A slot-indirected view of the store minus one (target) attribute.

        The view owns a copy of ``slots`` (default: the live order), so a
        caller writing to its own array later cannot change the view.
        """
        slots = self._live if slots is None else slots
        return StoreFeatureView(self, np.array(slots, dtype=np.int64), exclude)


class StoreFeatureView:
    """A ``(n, m-1)`` feature view: slot references into a columnar store.

    A view is immutable once built, and the cache of gathered rows below
    rests on that:

    * it owns its read-only ``slots`` array (logical order), and the view
      mutators (:meth:`extended`, :meth:`selected`, :meth:`replaced`)
      return *new* views sharing the store — the shapes the incremental
      cache maintenance needs for append/remove/replace, which swaps the
      neighbour cache's view on every mutation;
    * the store never rewrites a slot that a resident engine state still
      references: updates write the revised tuple into a fresh slot, and
      retired slots stay pending until the mutation journal releases them.

    So the rows a view reads never change.  :meth:`blocks` gathers them
    once, per shard, on first use and keeps the read-only
    ``(positions, block)`` pairs for the view's lifetime: resident memory
    is one ``(n, m-1)`` float block plus ``n`` positions, and
    :meth:`pairwise` / :func:`sharded_topk` allocate only the ``(q,
    shard)`` distance blocks and their output.  :meth:`materialize`,
    ``__getitem__`` and ``__array__`` still return fresh arrays.
    """

    def __init__(
        self,
        store: ColumnarTupleStore,
        slots: np.ndarray,
        exclude: Optional[int] = None,
    ):
        self.store = store
        self.slots = np.asarray(slots, dtype=np.int64).view()
        self.slots.setflags(write=False)
        self.exclude = None if exclude is None else int(exclude)
        if self.exclude is not None and not 0 <= self.exclude < store.width:
            raise ConfigurationError(
                f"excluded attribute {exclude} out of range for width {store.width}"
            )
        self.attrs = tuple(
            a for a in range(store.width) if a != self.exclude
        )
        self._blocks: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None

    # -- ndarray-ish protocol ------------------------------------------- #
    @property
    def shape(self) -> Tuple[int, int]:
        return (int(self.slots.shape[0]), len(self.attrs))

    def __len__(self) -> int:
        return int(self.slots.shape[0])

    def materialize(self, positions: Optional[np.ndarray] = None) -> np.ndarray:
        """Gather rows (all, or the given logical positions) as a matrix."""
        slots = self.slots if positions is None else self.slots[positions]
        return self.store.rows(slots, attrs=self.attrs)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        block = self.materialize()
        return block if dtype is None else block.astype(dtype)

    def __getitem__(self, key):
        """Rows by ndarray row indexing: ints (negative included), slices,
        int arrays and boolean masks."""
        slots = self.slots[key]
        block = self.store.rows(np.ravel(slots), attrs=self.attrs)
        return block.reshape(np.shape(slots) + (len(self.attrs),))

    # -- view mutators (new views; the store is never touched) ----------- #
    def extended(self, slots: np.ndarray) -> "StoreFeatureView":
        """The view grown by appended slots (logical order preserved)."""
        grown = np.concatenate([self.slots, np.asarray(slots, dtype=np.int64)])
        return StoreFeatureView(self.store, grown, self.exclude)

    def selected(self, positions: np.ndarray) -> "StoreFeatureView":
        """The view restricted to the given logical positions, in order."""
        return StoreFeatureView(
            self.store, self.slots[np.asarray(positions, dtype=np.int64)],
            self.exclude,
        )

    def replaced(self, positions, slots) -> "StoreFeatureView":
        """The view with logical ``positions`` pointed at fresh ``slots``
        (one of each, or parallel arrays of distinct positions)."""
        revised = self.slots.copy()
        revised[np.asarray(positions, dtype=np.int64)] = np.asarray(
            slots, dtype=np.int64
        )
        return StoreFeatureView(self.store, revised, self.exclude)

    # -- per-shard distance kernel --------------------------------------- #
    def shard_groups(self) -> List[Tuple[int, np.ndarray]]:
        """Logical positions grouped by the shard holding their slot."""
        shard_ids = self.slots // self.store.shard_capacity
        if shard_ids.size and shard_ids.min() == shard_ids.max():
            return [(int(shard_ids[0]), np.arange(shard_ids.size))]
        return [
            (int(shard), np.flatnonzero(shard_ids == shard))
            for shard in np.unique(shard_ids)
        ]

    def blocks(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The viewed rows as read-only per-shard ``(positions, block)`` pairs.

        Gathered on the first call and kept for the view's lifetime (see
        the class docstring for why they cannot go stale).
        """
        if self._blocks is None:
            blocks = []
            for _, positions in self.shard_groups():
                block = self.materialize(positions)
                positions.setflags(write=False)
                block.setflags(write=False)
                blocks.append((positions, block))
            self._blocks = blocks
        return self._blocks

    @property
    def gathered(self) -> bool:
        """Whether :meth:`blocks` has gathered the viewed rows yet."""
        return self._blocks is not None

    @property
    def gathered_bytes(self) -> int:
        """Bytes held by the gathered blocks and their positions (0 before)."""
        if self._blocks is None:
            return 0
        return int(sum(p.nbytes + b.nbytes for p, b in self._blocks))

    def pairwise(self, query, metric_fn) -> np.ndarray:
        """Distances of ``query`` against every viewed row, shard by shard.

        Row-wise metrics compute each pair independently, so assembling the
        ``(q, n)`` result from per-shard blocks is bit-identical to one
        monolithic ``metric_fn(query, materialised_matrix)`` call — only
        shards actually referenced by the view are ever touched.
        """
        query = np.asarray(query, dtype=float)
        single = query.ndim == 1
        query_block = query.reshape(1, -1) if single else query
        n = self.shape[0]
        out = np.empty((query_block.shape[0], n))
        for positions, block in self.blocks():
            out[:, positions] = metric_fn(query_block, block)
        return out[0] if single else out


def sharded_topk(
    view: StoreFeatureView, query, metric_fn, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Top-``k`` nearest viewed rows per query, merged across shards.

    Each shard contributes its ``k`` best candidates by ``(distance,
    logical index)`` (ties broken by index exactly like the unsharded
    kernel, because positions within a shard group ascend); one final
    lexsort over the pooled candidates then reproduces the global
    ``np.lexsort((index, distance))`` prefix **exactly**, distance ties
    across shard boundaries included.

    Returns ``(distances, indices)`` of shape ``(q, k)`` in logical view
    index space.
    """
    query = np.asarray(query, dtype=float)
    single = query.ndim == 1
    query_block = query.reshape(1, -1) if single else query
    n = view.shape[0]
    k = check_positive_int(k, "k")
    if k > n:
        raise ConfigurationError(f"requested k={k} neighbours but only {n} exist")

    candidate_dists: List[np.ndarray] = []
    candidate_positions: List[np.ndarray] = []
    for positions, block in view.blocks():
        distances = metric_fn(query_block, block)
        take = min(k, positions.shape[0])
        block_dists, block_order = topk_batch(distances, take)
        candidate_dists.append(block_dists)
        candidate_positions.append(positions[block_order])
    pool_dists = np.hstack(candidate_dists)
    pool_positions = np.hstack(candidate_positions)
    merge = np.lexsort((pool_positions, pool_dists), axis=1)[:, :k]
    dists = np.take_along_axis(pool_dists, merge, axis=1)
    positions = np.take_along_axis(pool_positions, merge, axis=1)
    if single:
        return dists[0], positions[0]
    return dists, positions


class ShardedNeighbors:
    """Drop-in neighbour searcher serving queries straight off a store view.

    Mirrors :class:`~repro.neighbors.BruteForceNeighbors.kneighbors` —
    identical distances, identical tie-breaks — without assembling one
    ``(n, m-1)`` feature matrix: candidates are selected per shard over the
    view's kept blocks and merged exactly (:func:`sharded_topk`).
    """

    def __init__(self, view: StoreFeatureView, metric: str = "paper_euclidean"):
        self.view = view
        self.metric = metric
        self._metric_fn = get_metric(metric)

    @property
    def n_points(self) -> int:
        return self.view.shape[0]

    def kneighbors(self, query, k: int) -> Tuple[np.ndarray, np.ndarray]:
        if self.n_points == 0:
            raise NotFittedError("the store view is empty; append tuples first")
        if k > self.n_points:
            raise ConfigurationError(
                f"requested k={k} neighbours but only {self.n_points} are "
                f"available"
            )
        query = np.asarray(query, dtype=float)
        single = query.ndim == 1
        query_block = query.reshape(1, -1) if single else query
        dist, idx = sharded_topk(self.view, query_block, self._metric_fn, k)
        if single:
            return dist[0], idx[0]
        return dist, idx


class MutationJournal:
    """The engine's mutation log as a bounded ring buffer of slot references.

    Every entry is ``(version, op, payload)`` where the payload holds store
    slots / logical indices only — never tuple values (those are durable in
    the columnar store by the time the entry is recorded).  When the ring
    overflows, the oldest entries spill: the replay floor advances (states
    older than it full-rebuild instead of replaying) and the spilled
    entries are handed back so their retired slots can be recycled.
    """

    def __init__(self, capacity: int = 512):
        self.capacity = check_positive_int(capacity, "capacity")
        self._entries: Deque[Tuple[int, str, object]] = deque()
        self.floor = 0
        self.spills = 0  # entries dropped by ring overflow (observability)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Approximate resident bytes (slot/index arrays only)."""
        total = 0
        for _, op, payload in self._entries:
            if op == "append":
                total += payload.nbytes
            elif op == "delete":
                total += payload[0].nbytes + payload[1].nbytes
            else:  # update: three plain ints
                total += 24
        return total

    def record(
        self, version: int, op: str, payload
    ) -> List[Tuple[int, str, object]]:
        """Append one entry; returns the entries spilled by the ring bound."""
        self._entries.append((version, op, payload))
        spilled: List[Tuple[int, str, object]] = []
        while len(self._entries) > self.capacity:
            spilled.append(self._entries.popleft())
        if spilled:
            self.spills += len(spilled)
            self.floor = max(self.floor, spilled[-1][0])
            count_journal_spill(len(spilled))
        return spilled

    def since(self, version: int) -> Optional[List[Tuple[str, object]]]:
        """Ops recorded after ``version``; ``None`` when some have spilled."""
        if version < self.floor:
            return None
        return [(op, payload) for v, op, payload in self._entries if v > version]

    def prune(self, horizon: int) -> List[Tuple[int, str, object]]:
        """Drop (and return) entries every resident state has replayed."""
        dropped: List[Tuple[int, str, object]] = []
        while self._entries and self._entries[0][0] <= horizon:
            dropped.append(self._entries.popleft())
        self.floor = max(self.floor, horizon)
        return dropped

    def advance_floor(self, version: int) -> None:
        """Raise the replay floor without recording an entry."""
        self.floor = max(self.floor, version)

    def clear(self) -> List[Tuple[int, str, object]]:
        """Drop every entry (store emptied); returns them for slot release."""
        dropped = list(self._entries)
        self._entries.clear()
        return dropped
