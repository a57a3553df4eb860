"""Batch neighbour-search kernels vs. the reference loops.

Covers the exact-equivalence of the vectorized top-k (including tie repair
at the ``argpartition`` boundary), the batched self-exclusion, the
rectangular ``neighbor_order`` batch contract (regression test for the
ragged-array bug with ``exclude_self=True``), the bulk
:meth:`NeighborOrderCache.order_matrix`, and :func:`drop_self_rows`
against the stable-partition implementation it replaced.
"""

import numpy as np
import pytest

from repro.neighbors import BruteForceNeighbors, NeighborOrderCache
from repro.neighbors.brute import drop_self_rows, topk_batch


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(11)
    points = rng.normal(size=(40, 3))
    points[9] = points[4]  # duplicate -> zero-distance tie
    points[23] = points[4]
    return points


class TestBatchKneighbors:
    @pytest.mark.parametrize("exclude_self", [False, True])
    @pytest.mark.parametrize("k", [1, 3, 39])
    def test_matches_loop_backend(self, data, exclude_self, k):
        searcher = BruteForceNeighbors().fit(data)
        queries = np.vstack([data[:6], data.mean(axis=0)])
        d_loop, i_loop = searcher.kneighbors(
            queries, k, exclude_self=exclude_self, backend="loop"
        )
        d_fast, i_fast = searcher.kneighbors(
            queries, k, exclude_self=exclude_self, backend="vectorized"
        )
        np.testing.assert_array_equal(i_fast, i_loop)
        np.testing.assert_array_equal(d_fast, d_loop)

    def test_tie_break_by_index(self):
        # Three indexed points all at the same distance from the query: the
        # top-2 must be the two smallest indices, whichever backend runs.
        points = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [5.0, 5.0]])
        searcher = BruteForceNeighbors(metric="euclidean").fit(points)
        for backend in ("loop", "vectorized"):
            _, idx = searcher.kneighbors(np.zeros((1, 2)), 2, backend=backend)
            np.testing.assert_array_equal(idx[0], [0, 1])

    def test_boundary_tie_repair_matches_full_sort(self):
        # Many duplicate distances straddling the partition boundary.
        points = np.zeros((12, 2))
        points[:8, 0] = 1.0  # eight points at distance 1
        points[8:, 0] = 2.0
        searcher = BruteForceNeighbors(metric="euclidean").fit(points)
        query = np.zeros((1, 2))
        for k in (2, 5, 8):
            _, idx = searcher.kneighbors(query, k, backend="vectorized")
            np.testing.assert_array_equal(idx[0], np.arange(k))


def _topk_take_along(distances, k):
    """The ``np.take_along_axis`` form of :func:`topk_batch`'s gathers."""
    part = np.argpartition(distances, k, axis=1)[:, : k + 1]
    part.sort(axis=1)
    part_dist = np.take_along_axis(distances, part, axis=1)
    inner = np.argsort(part_dist, axis=1, kind="stable")
    idx = np.take_along_axis(part, inner, axis=1)[:, :k]
    dist = np.take_along_axis(part_dist, inner, axis=1)
    ambiguous = dist[:, k] == dist[:, k - 1]
    dist = dist[:, :k]
    rows = np.flatnonzero(ambiguous)
    order = np.argsort(distances[rows], axis=1, kind="stable")[:, :k]
    idx[rows] = order
    dist[rows] = np.take_along_axis(distances[rows], order, axis=1)
    return dist, idx, rows


class TestTopkGathers:
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_matches_the_take_along_axis_form(self, k):
        rng = np.random.default_rng(5)
        # Half the rows continuous, half drawn from six values, so boundary
        # ties force the tie-repair rows.
        distances = np.vstack([
            rng.uniform(size=(20, 50)),
            rng.integers(0, 6, size=(20, 50)).astype(float),
        ])
        want_dist, want_idx, repaired = _topk_take_along(distances, k)
        assert repaired.size and repaired.min() >= 20
        dist, idx = topk_batch(distances, k)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(dist, want_dist)
        assert idx.dtype == want_idx.dtype


class TestNeighborOrderBatch:
    @pytest.mark.parametrize("backend", ["loop", "vectorized"])
    def test_exclude_self_mixed_batch_is_rectangular(self, data, backend):
        # Regression test: a batch mixing queries that ARE indexed points
        # with queries that are NOT used to produce a ragged list that
        # np.asarray mangled into an object array.  Rows without a
        # zero-distance match are trimmed of their farthest neighbour so the
        # result is a dense (q, n - 1) integer matrix.
        searcher = BruteForceNeighbors().fit(data)
        queries = np.vstack([data[5], data.mean(axis=0) + 10.0, data[17]])
        order = searcher.neighbor_order(queries, exclude_self=True, backend=backend)
        assert order.dtype != object
        assert order.shape == (3, data.shape[0] - 1)
        # Member rows drop themselves; the foreign row keeps its n-1 nearest.
        assert 5 not in order[0]
        assert 17 not in order[2]
        full = searcher.neighbor_order(queries[1], backend=backend)
        np.testing.assert_array_equal(order[1], full[:-1])

    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_backends_agree(self, data, exclude_self):
        searcher = BruteForceNeighbors().fit(data)
        queries = np.vstack([data[:5], data[:2] + 0.5])
        loop = searcher.neighbor_order(queries, exclude_self=exclude_self, backend="loop")
        fast = searcher.neighbor_order(
            queries, exclude_self=exclude_self, backend="vectorized"
        )
        np.testing.assert_array_equal(fast, loop)

    def test_single_query_keeps_natural_length(self, data):
        searcher = BruteForceNeighbors().fit(data)
        n = data.shape[0]
        for backend in ("loop", "vectorized"):
            member = searcher.neighbor_order(data[3], exclude_self=True, backend=backend)
            foreign = searcher.neighbor_order(
                data.mean(axis=0) + 10.0, exclude_self=True, backend=backend
            )
            assert member.shape == (n - 1,)
            assert foreign.shape == (n,)


class TestOrderMatrix:
    @pytest.mark.parametrize("include_self", [True, False])
    def test_matches_per_row_orders(self, data, include_self):
        lazy = NeighborOrderCache(data, include_self=include_self)
        bulk = NeighborOrderCache(data, include_self=include_self)
        matrix = bulk.order_matrix(chunk_size=7)
        assert matrix.shape == (data.shape[0], lazy.max_neighbors())
        for i in range(data.shape[0]):
            np.testing.assert_array_equal(matrix[i], lazy.order_of(i))

    def test_respects_max_length_and_feeds_prefix(self, data):
        cache = NeighborOrderCache(data, include_self=True, max_length=9)
        matrix = cache.order_matrix()
        assert matrix.shape == (data.shape[0], 9)
        np.testing.assert_array_equal(cache.prefix(4, 6), matrix[4, :6])

    def test_clear_drops_matrix(self, data):
        cache = NeighborOrderCache(data, max_length=5)
        cache.order_matrix()
        cache.clear()
        assert cache._matrix is None


def _drop_self_reference(order, row_indices):
    """The stable-partition implementation every row once paid for."""
    keep = order != row_indices[:, None]
    kept_cols = np.argsort(~keep, axis=1, kind="stable")[:, : order.shape[1] - 1]
    return np.take_along_axis(order, kept_cols, axis=1)


class TestDropSelfRows:
    def test_three_row_cases_match_the_reference(self):
        order = np.array(
            [
                [0, 4, 2, 7],  # row 0: self first
                [0, 1, 5, 3],  # row 1: behind a zero-distance duplicate (0 < 1)
                [3, 5, 6, 4],  # row 2: self crowded out of a truncated row
            ]
        )
        owners = np.arange(3)
        got = drop_self_rows(order, owners)
        np.testing.assert_array_equal(got, _drop_self_reference(order, owners))
        np.testing.assert_array_equal(got, [[4, 2, 7], [0, 5, 3], [3, 5, 6]])

    def test_leaves_its_input_alone(self):
        order = np.array([[1, 0, 2], [1, 2, 0]])
        before = order.copy()
        drop_self_rows(order, np.arange(2))
        np.testing.assert_array_equal(order, before)

    @pytest.mark.parametrize("width", [2, 5, 40])
    def test_matches_the_reference_on_orderings_with_duplicates(self, data, width):
        order = BruteForceNeighbors().fit(data).neighbor_order(data)[:, :width]
        owners = np.arange(data.shape[0])
        np.testing.assert_array_equal(
            drop_self_rows(order, owners), _drop_self_reference(order, owners)
        )
