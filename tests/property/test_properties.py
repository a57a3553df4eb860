"""Property-based tests (hypothesis) on the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import candidate_vote_weights, combine_uniform, combine_voting
from repro.core.learning import learn_individual_models
from repro.data import Relation, inject_missing
from repro.metrics import purity_score, r_squared, rms_error
from repro.neighbors import BruteForceNeighbors, paper_euclidean
from repro.regression import IncrementalRidge, RidgeRegression

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def matrices(min_rows=2, max_rows=30, min_cols=1, max_cols=5):
    return hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(
            st.integers(min_rows, max_rows), st.integers(min_cols, max_cols)
        ),
        elements=st.floats(min_value=-100, max_value=100, allow_nan=False, width=64),
    )


class TestDistanceProperties:
    @given(matrices(min_rows=2, max_rows=15, min_cols=1, max_cols=4))
    @settings(max_examples=40, deadline=None)
    def test_distances_nonnegative_and_zero_on_self(self, data):
        distances = paper_euclidean(data[0], data)
        assert (distances >= 0).all()
        assert distances[0] == pytest.approx(0.0, abs=1e-9)

    @given(matrices(min_rows=4, max_rows=20, min_cols=1, max_cols=3))
    @settings(max_examples=30, deadline=None)
    def test_neighbor_distances_monotone_in_k(self, data):
        searcher = BruteForceNeighbors().fit(data)
        dist, _ = searcher.kneighbors(data.mean(axis=0), min(5, data.shape[0]))
        assert (np.diff(dist) >= -1e-12).all()


class TestCombinationProperties:
    @given(hnp.arrays(np.float64, st.integers(1, 10),
                      elements=st.floats(-1e4, 1e4, allow_nan=False, width=64)))
    @settings(max_examples=60, deadline=None)
    def test_voting_weights_are_a_distribution(self, candidates):
        weights = candidate_vote_weights(candidates)
        assert weights.shape == candidates.shape
        assert (weights >= 0).all()
        assert weights.sum() == pytest.approx(1.0)

    @given(hnp.arrays(np.float64, st.integers(1, 10),
                      elements=st.floats(-1e4, 1e4, allow_nan=False, width=64)))
    @settings(max_examples=60, deadline=None)
    def test_combined_value_within_candidate_range(self, candidates):
        for combiner in (combine_voting, combine_uniform):
            value, weights = combiner(candidates)
            assert candidates.min() - 1e-9 <= value <= candidates.max() + 1e-9
            assert weights.sum() == pytest.approx(1.0)

    @given(hnp.arrays(np.float64, st.integers(2, 8),
                      elements=st.floats(-100, 100, allow_nan=False, width=64)),
           st.floats(-50, 50, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_voting_translation_equivariance(self, candidates, shift):
        shifted, _ = combine_voting(candidates + shift)
        base, _ = combine_voting(candidates)
        assert shifted == pytest.approx(base + shift, abs=1e-6)


class TestRegressionProperties:
    @given(matrices(min_rows=5, max_rows=25, min_cols=1, max_cols=3))
    @settings(max_examples=40, deadline=None)
    def test_ridge_reproduces_exact_linear_data(self, X):
        coefficients = np.arange(1, X.shape[1] + 2, dtype=float)
        y = coefficients[0] + X @ coefficients[1:]
        design = np.hstack([np.ones((X.shape[0], 1)), X])
        assume(np.linalg.matrix_rank(design) == X.shape[1] + 1)
        # The α = 0 path solves through the pseudo-inverse of the Gram
        # matrix, whose conditioning is the design's squared; keep the
        # exact-reproduction claim to examples where it can hold in float64.
        assume(np.linalg.cond(design) < 1e5)
        model = RidgeRegression(alpha=0.0).fit(X, y)
        np.testing.assert_allclose(model.predict(X), y, atol=1e-4)

    @given(matrices(min_rows=4, max_rows=20, min_cols=1, max_cols=3),
           st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_incremental_ridge_invariant_to_batching(self, X, n_batches):
        rng = np.random.default_rng(0)
        y = rng.normal(size=X.shape[0])
        whole = IncrementalRidge(n_features=X.shape[1]).partial_fit(X, y)
        batched = IncrementalRidge(n_features=X.shape[1])
        for chunk in np.array_split(np.arange(X.shape[0]), n_batches):
            if chunk.size:
                batched.partial_fit(X[chunk], y[chunk])
        np.testing.assert_allclose(whole.solve(), batched.solve(), atol=1e-6)


class TestMetricProperties:
    @given(hnp.arrays(np.float64, st.integers(1, 30),
                      elements=st.floats(-1e3, 1e3, allow_nan=False, width=64)))
    @settings(max_examples=50, deadline=None)
    def test_rms_zero_iff_identical(self, truth):
        assert rms_error(truth, truth) == 0.0

    @given(hnp.arrays(np.float64, st.integers(2, 30),
                      elements=st.floats(-1e3, 1e3, allow_nan=False, width=64)),
           hnp.arrays(np.float64, st.integers(2, 30),
                      elements=st.floats(-1e3, 1e3, allow_nan=False, width=64)))
    @settings(max_examples=50, deadline=None)
    def test_rms_symmetric(self, a, b):
        size = min(a.shape[0], b.shape[0])
        assert rms_error(a[:size], b[:size]) == pytest.approx(rms_error(b[:size], a[:size]))

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_purity_bounds_and_perfect_case(self, labels):
        labels = np.array(labels)
        assert purity_score(labels, labels) == 1.0
        shuffled = np.zeros_like(labels)
        assert 0.0 < purity_score(labels, shuffled) <= 1.0

    @given(hnp.arrays(np.float64, st.integers(2, 30),
                      elements=st.floats(-1e3, 1e3, allow_nan=False, width=64)))
    @settings(max_examples=50, deadline=None)
    def test_r_squared_of_truth_is_one(self, truth):
        assume(np.std(truth) > 1e-9)
        assert r_squared(truth, truth) == pytest.approx(1.0)


class TestInjectionProperties:
    @given(st.integers(20, 60), st.integers(2, 5), st.floats(0.05, 0.3),
           st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_injection_counts_and_recoverability(self, n, m, fraction, seed):
        rng = np.random.default_rng(seed)
        relation = Relation(rng.normal(size=(n, m)))
        result = inject_missing(relation, fraction=fraction, random_state=seed)
        expected = max(1, int(round(fraction * n)))
        assert len(result) == expected
        # Putting the truth back yields the original matrix.
        restored = result.dirty.values
        restored[result.rows, result.attributes] = result.truth
        np.testing.assert_array_equal(restored, relation.raw)


class TestLearningProperties:
    @given(st.integers(5, 25), st.integers(1, 5), st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_individual_models_shape_and_finiteness(self, n, ell, seed):
        assume(ell <= n)
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(n, 2))
        target = rng.normal(size=n)
        models = learn_individual_models(features, target, ell)
        assert models.parameters.shape == (n, 3)
        assert np.isfinite(models.parameters).all()
