"""Tests for brute-force search and the order cache."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, NotFittedError
from repro.neighbors import BruteForceNeighbors, NeighborOrderCache


@pytest.fixture
def points():
    rng = np.random.default_rng(0)
    return rng.normal(size=(120, 3))


class TestBruteForce:
    def test_nearest_is_itself_when_included(self, points):
        searcher = BruteForceNeighbors().fit(points)
        _, idx = searcher.kneighbors(points[7], 1)
        assert idx[0] == 7

    def test_exclude_self_skips_query_point(self, points):
        searcher = BruteForceNeighbors().fit(points)
        _, idx = searcher.kneighbors(points[7], 3, exclude_self=True)
        assert 7 not in idx

    def test_distances_sorted_ascending(self, points):
        searcher = BruteForceNeighbors().fit(points)
        dist, _ = searcher.kneighbors(points[0], 10)
        assert (np.diff(dist) >= 0).all()

    def test_matches_naive_computation(self, points):
        searcher = BruteForceNeighbors().fit(points)
        query = np.array([0.1, -0.2, 0.3])
        dist, idx = searcher.kneighbors(query, 5)
        naive = np.sqrt(np.mean((points - query) ** 2, axis=1))
        expected_idx = np.argsort(naive, kind="stable")[:5]
        np.testing.assert_array_equal(idx, expected_idx)
        np.testing.assert_allclose(dist, naive[expected_idx])

    def test_batch_queries(self, points):
        searcher = BruteForceNeighbors().fit(points)
        dist, idx = searcher.kneighbors(points[:4], 3)
        assert dist.shape == (4, 3)
        assert idx.shape == (4, 3)

    def test_k_larger_than_data_raises(self, points):
        searcher = BruteForceNeighbors().fit(points)
        with pytest.raises(ConfigurationError):
            searcher.kneighbors(points[0], 1000)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            BruteForceNeighbors().kneighbors(np.zeros(3), 1)

    def test_tie_breaking_prefers_lower_index(self):
        data = np.array([[0.0], [1.0], [1.0], [2.0]])
        searcher = BruteForceNeighbors().fit(data)
        _, idx = searcher.kneighbors(np.array([1.0]), 2)
        np.testing.assert_array_equal(idx, [1, 2])


class TestNeighborOrderCache:
    def test_prefix_subsumption(self, points):
        cache = NeighborOrderCache(points, include_self=True)
        small = cache.prefix(5, 4)
        large = cache.prefix(5, 9)
        np.testing.assert_array_equal(small, large[:4])

    def test_first_neighbor_is_self_when_included(self, points):
        cache = NeighborOrderCache(points, include_self=True)
        assert cache.prefix(11, 1)[0] == 11

    def test_self_excluded_when_requested(self, points):
        cache = NeighborOrderCache(points, include_self=False)
        assert 11 not in cache.order_of(11)

    def test_max_length_caps_order(self, points):
        cache = NeighborOrderCache(points, max_length=6)
        assert cache.order_of(0).shape[0] == 6

    def test_prefix_beyond_cap_raises(self, points):
        cache = NeighborOrderCache(points, max_length=6)
        with pytest.raises(ConfigurationError):
            cache.prefix(0, 10)

    def test_matches_brute_force_order(self, points):
        cache = NeighborOrderCache(points, include_self=True)
        searcher = BruteForceNeighbors().fit(points)
        _, expected = searcher.kneighbors(points[2], 15)
        np.testing.assert_array_equal(cache.prefix(2, 15), expected)

    def test_clear_resets_cache(self, points):
        cache = NeighborOrderCache(points)
        cache.order_of(0)
        cache.clear()
        assert cache._cache == {}
