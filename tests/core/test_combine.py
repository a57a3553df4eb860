"""Tests for the candidate-combination schemes (Formulas 10-12)."""

import numpy as np
import pytest

from repro.core import (
    COMBINERS,
    candidate_vote_weights,
    candidate_vote_weights_batch,
    combine_distance,
    combine_uniform,
    combine_voting,
    combine_voting_batch,
    get_combiner,
)
from repro.exceptions import ConfigurationError, DataError


class TestVoteWeights:
    def test_weights_sum_to_one(self):
        weights = candidate_vote_weights(np.array([1.0, 1.2, 5.0]))
        assert weights.sum() == pytest.approx(1.0)

    def test_agreeing_candidates_get_higher_weight(self):
        # Formula 11/12: the outlying candidate receives the lowest weight.
        weights = candidate_vote_weights(np.array([1.0, 1.1, 9.0]))
        assert weights[2] == weights.min()
        assert weights[0] > weights[2]
        assert weights[1] > weights[2]

    def test_single_candidate_full_weight(self):
        np.testing.assert_array_equal(candidate_vote_weights(np.array([3.0])), [1.0])

    def test_identical_candidates_uniform_weights(self):
        weights = candidate_vote_weights(np.array([2.0, 2.0, 2.0]))
        np.testing.assert_allclose(weights, 1.0 / 3.0)

    def test_paper_example_3_weights(self):
        # Candidates 1.19, 1.21, 1.19 -> weights 50/125, 25/125, 50/125.
        weights = candidate_vote_weights(np.array([1.19, 1.21, 1.19]))
        np.testing.assert_allclose(weights, [0.4, 0.2, 0.4], atol=1e-9)


def _voting_with_both_fixups(candidates):
    """Formula 12 with its two ``np.where`` fix-ups applied to every block."""
    q, k = candidates.shape
    total = np.abs(candidates[:, :, None] - candidates[:, None, :]).sum(axis=2)
    scale = total.max(axis=1)
    degenerate = scale <= 0.0
    relative = total / np.where(degenerate, 1.0, scale)[:, None]
    zero = relative <= 1e-12
    has_zero = zero.any(axis=1)
    inverse = 1.0 / np.where(zero, 1.0, relative)
    weights = inverse / inverse.sum(axis=1, keepdims=True)
    agree = zero / np.maximum(zero.sum(axis=1, keepdims=True), 1)
    weights = np.where(has_zero[:, None], agree, weights)
    weights = np.where(degenerate[:, None], 1.0 / k, weights)
    return np.einsum("qk,qk->q", candidates, weights), weights


class TestVotingFixups:
    @pytest.mark.parametrize("degenerate_rows", [[], [0], [2, 5]])
    def test_batch_matches_the_two_where_form(self, degenerate_rows):
        rng = np.random.default_rng(3)
        candidates = rng.normal(size=(8, 6))
        candidates[1, :3] = candidates[1, 0]  # a repeated-value subset
        candidates[4, 2:] = 0.0
        for row in degenerate_rows:
            candidates[row] = candidates[row, 0]  # all candidates equal
        want_values, want_weights = _voting_with_both_fixups(candidates)
        values, weights = combine_voting_batch(candidates)
        np.testing.assert_array_equal(values, want_values)
        np.testing.assert_array_equal(weights, want_weights)
        np.testing.assert_array_equal(
            candidate_vote_weights_batch(candidates), want_weights
        )

    def test_batch_still_validates_its_candidates(self):
        with pytest.raises(DataError):
            combine_voting_batch(np.array([[1.0, np.inf]]))
        with pytest.raises(DataError):
            candidate_vote_weights_batch(np.array([[np.nan, 1.0]]))


class TestCombiners:
    def test_voting_matches_paper_example_3(self):
        value, weights = combine_voting(np.array([1.19, 1.21, 1.19]))
        assert value == pytest.approx(1.194, abs=1e-3)
        np.testing.assert_allclose(weights, [0.4, 0.2, 0.4], atol=1e-9)

    def test_uniform_is_plain_mean(self):
        value, weights = combine_uniform(np.array([1.0, 2.0, 6.0]))
        assert value == pytest.approx(3.0)
        np.testing.assert_allclose(weights, 1.0 / 3.0)

    def test_voting_between_min_and_max(self):
        candidates = np.array([0.5, 2.0, 10.0])
        value, _ = combine_voting(candidates)
        assert candidates.min() <= value <= candidates.max()

    def test_distance_combiner_prefers_close_neighbor(self):
        candidates = np.array([1.0, 5.0])
        value, _ = combine_distance(candidates, np.array([0.1, 10.0]))
        assert value < 2.0

    def test_distance_combiner_zero_distance_takes_all(self):
        value, weights = combine_distance(np.array([1.0, 5.0]), np.array([0.0, 1.0]))
        assert value == pytest.approx(1.0)
        np.testing.assert_allclose(weights, [1.0, 0.0])

    def test_combiner_value_matches_weighted_candidates(self):
        # The returned weights are exactly the ones that produced the value,
        # so callers (e.g. the imputation trace) can reuse them directly.
        candidates = np.array([0.8, 1.4, 1.1, 7.0])
        distances = np.array([0.2, 0.4, 0.9, 1.5])
        for name, combiner in COMBINERS.items():
            value, weights = combiner(candidates, distances)
            assert weights.sum() == pytest.approx(1.0)
            assert value == pytest.approx(float(candidates @ weights))

    def test_distance_combiner_requires_distances(self):
        with pytest.raises(DataError):
            combine_distance(np.array([1.0, 2.0]))

    def test_distance_combiner_alignment_checked(self):
        with pytest.raises(DataError):
            combine_distance(np.array([1.0, 2.0]), np.array([1.0]))

    def test_registry_contains_three_schemes(self):
        assert set(COMBINERS) == {"voting", "uniform", "distance"}

    def test_get_combiner_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            get_combiner("median")
