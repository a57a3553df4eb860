"""Tests for the individual-model learning phase (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import (
    candidate_ell_values,
    learn_candidate_models_for_rows,
    learn_individual_models,
    learn_models_for_candidates,
)
from repro.core import learning
from repro.core.learning import IndividualModels
from repro.exceptions import ConfigurationError
from repro.neighbors import NeighborOrderCache
from repro.regression import RidgeRegression


@pytest.fixture
def figure1_arrays(figure1_relation):
    values = figure1_relation.raw
    return values[:, :1], values[:, 1]


class TestLearnIndividualModels:
    def test_one_model_per_tuple(self, figure1_arrays):
        features, target = figure1_arrays
        models = learn_individual_models(features, target, ell=4)
        assert models.n_models == 8
        assert models.parameters.shape == (8, 2)

    def test_paper_example_2_parameters(self, figure1_arrays):
        # Phi from Example 2: phi_1 = phi_2 = (5.56, -0.87), phi_8 = (-4.36, 1.11).
        features, target = figure1_arrays
        models = learn_individual_models(features, target, ell=4)
        np.testing.assert_allclose(models[0], [5.56, -0.87], atol=0.02)
        np.testing.assert_allclose(models[1], [5.56, -0.87], atol=0.02)
        np.testing.assert_allclose(models[7], [-4.36, 1.11], atol=0.02)

    def test_ell_one_gives_constant_models(self, figure1_arrays):
        features, target = figure1_arrays
        models = learn_individual_models(features, target, ell=1)
        np.testing.assert_allclose(models.parameters[:, 0], target)
        np.testing.assert_allclose(models.parameters[:, 1], 0.0)

    def test_ell_n_gives_global_model_for_all(self, figure1_arrays):
        features, target = figure1_arrays
        models = learn_individual_models(features, target, ell=8)
        global_model = RidgeRegression(alpha=1e-3).fit(features, target)
        for i in range(8):
            np.testing.assert_allclose(models[i], global_model.coefficients, atol=1e-9)

    def test_ell_exceeding_n_rejected(self, figure1_arrays):
        features, target = figure1_arrays
        with pytest.raises(ConfigurationError):
            learn_individual_models(features, target, ell=9)

    def test_learning_neighbors_recorded(self, figure1_arrays):
        features, target = figure1_arrays
        models = learn_individual_models(features, target, ell=3)
        assert (models.learning_neighbors == 3).all()

    def test_predict_applies_selected_models(self, figure1_arrays):
        features, target = figure1_arrays
        models = learn_individual_models(features, target, ell=4)
        candidates = models.predict([4, 3, 5], np.array([5.0]))
        # Example 3: t5 and t6 suggest ~1.19, t4 suggests ~1.21 (the paper
        # rounds the parameters to two decimals, hence the loose tolerance).
        np.testing.assert_allclose(candidates, [1.19, 1.21, 1.19], atol=0.05)


class TestCandidateEllValues:
    def test_stepping_one_covers_all(self):
        np.testing.assert_array_equal(candidate_ell_values(5), [1, 2, 3, 4, 5])

    def test_stepping_three_matches_paper_example_5(self):
        np.testing.assert_array_equal(candidate_ell_values(8, stepping=3), [1, 4, 7])

    def test_max_ell_cap(self):
        np.testing.assert_array_equal(candidate_ell_values(100, stepping=10, max_ell=35),
                                      [1, 11, 21, 31])


class TestLearnModelsForCandidates:
    def test_incremental_matches_from_scratch(self, figure1_arrays):
        features, target = figure1_arrays
        candidates = [1, 3, 5, 8]
        incremental = learn_models_for_candidates(features, target, candidates, incremental=True)
        scratch = learn_models_for_candidates(features, target, candidates, incremental=False)
        np.testing.assert_allclose(incremental, scratch, atol=1e-8)

    def test_incremental_matches_on_random_data(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(40, 3))
        target = rng.normal(size=40)
        candidates = list(range(1, 41, 4))
        incremental = learn_models_for_candidates(features, target, candidates, incremental=True)
        scratch = learn_models_for_candidates(features, target, candidates, incremental=False)
        np.testing.assert_allclose(incremental, scratch, atol=1e-7)

    def test_each_candidate_row_matches_single_ell_learning(self, figure1_arrays):
        features, target = figure1_arrays
        candidates = [2, 4, 6]
        stacked = learn_models_for_candidates(features, target, candidates)
        for c, ell in enumerate(candidates):
            single = learn_individual_models(features, target, ell)
            np.testing.assert_allclose(stacked[c], single.parameters, atol=1e-8)

    def test_candidates_must_increase(self, figure1_arrays):
        features, target = figure1_arrays
        with pytest.raises(ConfigurationError):
            learn_models_for_candidates(features, target, [3, 2])

    def test_candidates_out_of_range_rejected(self, figure1_arrays):
        features, target = figure1_arrays
        with pytest.raises(ConfigurationError):
            learn_models_for_candidates(features, target, [0, 4])

    def test_shared_order_cache_supported(self, figure1_arrays):
        features, target = figure1_arrays
        cache = NeighborOrderCache(features, include_self=True)
        result = learn_models_for_candidates(features, target, [2, 4], order_cache=cache)
        assert result.shape == (2, 8, 2)


class TestIndividualModelsContainer:
    def test_alignment_validation(self):
        with pytest.raises(ConfigurationError):
            IndividualModels(np.zeros((3, 2)), np.zeros(2))

    def test_getitem_returns_copy(self, figure1_arrays):
        features, target = figure1_arrays
        models = learn_individual_models(features, target, ell=2)
        row = models[0]
        row[:] = 0
        assert not np.allclose(models[0], 0)


class TestMaskedRefreshSolve:
    """``first_solved`` solves only each row's candidates from its entry on,
    and every solved entry is bit-equal to the unmasked call's."""

    @pytest.fixture
    def store(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(90, 3))
        features[60:] = features[:30]  # zero-distance ties
        target = features @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=90)
        orders = NeighborOrderCache(features, include_self=True).order_matrix()
        rows = rng.choice(90, size=40, replace=False)
        return features, target, orders[rows], rng

    @pytest.mark.parametrize("candidates", [[1, 5, 9, 13], [1, 2, 6, 7, 15], [3, 7, 11]],
                             ids=["uniform", "non-uniform", "no-constant"])
    @pytest.mark.parametrize("incremental", [True, False], ids=["incremental", "straightforward"])
    @pytest.mark.parametrize("block_rows", [None, 7], ids=["one-block", "row-blocks"])
    def test_solved_entries_equal_the_unmasked_call(
        self, store, candidates, incremental, block_rows, monkeypatch
    ):
        features, target, orders, rng = store
        if block_rows is not None:
            monkeypatch.setattr(learning, "_chunk_rows", lambda n, *_: min(n, block_rows))
        full = learn_candidate_models_for_rows(
            features, target, candidates, orders, incremental=incremental
        )
        # A row whose ordering first changed at rank ρ re-solves ℓ > ρ.
        ranks = rng.integers(0, candidates[-1] + 1, size=orders.shape[0])
        first = np.searchsorted(candidates, ranks, side="right")
        masked = learn_candidate_models_for_rows(
            features, target, candidates, orders, incremental=incremental,
            first_solved=first,
        )
        solved = np.arange(len(candidates))[:, None] >= first[None, :]
        np.testing.assert_array_equal(masked[solved], full[solved])
        assert np.isnan(masked[~solved]).all()
        if candidates[0] == 1:
            # ℓ = 1 is the constant model of Section III-A2.
            constant = np.zeros((orders.shape[0], features.shape[1] + 1))
            constant[:, 0] = target[orders[:, 0]]
            np.testing.assert_array_equal(full[0], constant)
            np.testing.assert_array_equal(masked[0, solved[0]], constant[solved[0]])

    def test_the_unmasked_call_matches_the_full_relation_kernel(self, store):
        features, target, _, _ = store
        orders = NeighborOrderCache(features, include_self=True).order_matrix()
        for incremental in (True, False):
            np.testing.assert_array_equal(
                learn_candidate_models_for_rows(
                    features, target, [1, 4, 7, 10], orders, incremental=incremental
                ),
                learn_models_for_candidates(
                    features, target, [1, 4, 7, 10], incremental=incremental
                ),
            )

    def test_first_solved_must_align_with_the_rows(self, store):
        features, target, orders, _ = store
        with pytest.raises(ConfigurationError):
            learn_candidate_models_for_rows(
                features, target, [1, 5], orders, first_solved=np.zeros(3, dtype=int)
            )
