"""Tests for the distance metrics (Formula 1 and friends)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DataError
from repro.neighbors import (
    METRICS,
    chebyshev,
    euclidean,
    get_metric,
    manhattan,
    paper_euclidean,
    pairwise_distances,
)


class TestPaperEuclidean:
    def test_matches_formula_1(self):
        # d = sqrt(sum (x-y)^2 / |F|)
        query = np.array([1.0, 2.0])
        data = np.array([[4.0, 6.0]])
        expected = np.sqrt(((3.0**2) + (4.0**2)) / 2)
        assert paper_euclidean(query, data)[0] == pytest.approx(expected)

    @pytest.mark.parametrize("scipy_kernel", [True, False], ids=["cdist", "einsum"])
    def test_in_place_root_equals_the_two_temporary_expression(
        self, monkeypatch, scipy_kernel
    ):
        from repro.neighbors import distance as distance_module

        rng = np.random.default_rng(3)
        data = rng.normal(size=(300, 5))
        data[150:] = data[:150]  # exact duplicates: zero distances
        query = data[::7].copy()
        if scipy_kernel:
            squared = distance_module._cdist(query, data, "sqeuclidean")
        else:
            monkeypatch.setattr(distance_module, "_cdist", None)
            diff = query[:, None, :] - data[None, :, :]
            squared = np.einsum("qnd,qnd->qn", diff, diff)
        got = paper_euclidean(query, data)
        np.testing.assert_array_equal(got, np.sqrt(squared / 5))
        assert (got == 0.0).sum() >= 2 * query.shape[0]
        np.testing.assert_array_equal(euclidean(query, data), np.sqrt(squared))

    def test_zero_distance_to_itself(self):
        point = np.array([1.0, -2.0, 3.0])
        assert paper_euclidean(point, point.reshape(1, -1))[0] == 0.0

    def test_batch_shape(self):
        queries = np.zeros((3, 2))
        data = np.ones((5, 2))
        assert paper_euclidean(queries, data).shape == (3, 5)

    def test_scaling_relationship_with_euclidean(self):
        rng = np.random.default_rng(0)
        query = rng.normal(size=4)
        data = rng.normal(size=(6, 4))
        np.testing.assert_allclose(
            paper_euclidean(query, data) * np.sqrt(4), euclidean(query, data)
        )

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DataError):
            paper_euclidean(np.array([1.0, 2.0]), np.array([[1.0, 2.0, 3.0]]))


class TestOtherMetrics:
    def test_manhattan(self):
        assert manhattan(np.array([0.0, 0.0]), np.array([[1.0, -2.0]]))[0] == pytest.approx(3.0)

    def test_chebyshev(self):
        assert chebyshev(np.array([0.0, 0.0]), np.array([[1.0, -2.0]]))[0] == pytest.approx(2.0)

    def test_metric_registry_lookup(self):
        for name in METRICS:
            assert callable(get_metric(name))

    def test_unknown_metric_raises(self):
        with pytest.raises(ConfigurationError):
            get_metric("cosine")


class TestPairwise:
    def test_pairwise_matrix_properties(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(10, 3))
        matrix = pairwise_distances(data)
        assert matrix.shape == (10, 10)
        np.testing.assert_allclose(np.diag(matrix), 0.0, atol=1e-12)
        np.testing.assert_allclose(matrix, matrix.T)
        assert (matrix >= 0).all()
