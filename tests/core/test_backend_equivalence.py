"""Equivalence of the vectorized batch kernels and the reference loops.

Every hot-path kernel exists twice (see :mod:`repro.config`): the batched
``"vectorized"`` implementation and the original per-tuple ``"loop"``
reference.  These tests assert the two agree to ``rtol = 1e-9`` across the
learning variants (fixed/adaptive, incremental on/off), all three candidate
combiners, and the self-exclusion edge cases, on data salted with duplicate
rows so distance ties are actually exercised.
"""

import numpy as np
import pytest

import repro
from repro import config
from repro.core.adaptive import adaptive_learning
from repro.core.imputation import impute_with_individual_models
from repro.core.learning import learn_individual_models, learn_models_for_candidates
from repro.data.missing import inject_missing
from repro.exceptions import ConfigurationError

RTOL = 1e-9
ATOL = 1e-12


@pytest.fixture(scope="module")
def tied_data():
    """Random features/target with duplicated rows (distance ties)."""
    rng = np.random.default_rng(42)
    features = rng.normal(size=(90, 3))
    features[7] = features[2]
    features[41] = features[2]
    features[60] = features[59]
    target = features @ np.array([1.5, -2.0, 0.5]) + rng.normal(scale=0.2, size=90)
    return features, target


@pytest.fixture(scope="module")
def queries(tied_data):
    features, _ = tied_data
    rng = np.random.default_rng(7)
    # A mix of unseen points and exact copies of indexed rows.
    return np.vstack([rng.normal(size=(6, 3)), features[3], features[2]])


class TestConfigKnob:
    def test_default_backend_is_vectorized(self):
        assert repro.config.get("backend") in ("vectorized", "loop")

    def test_use_backend_restores_previous(self):
        before = repro.config.get("backend")
        with config.override("backend", "loop"):
            assert repro.config.get("backend") == "loop"
        assert repro.config.get("backend") == before

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            repro.config.set("backend", "gpu")
        with pytest.raises(ConfigurationError):
            config.resolve("backend", "nope")


class TestLearningEquivalence:
    @pytest.mark.parametrize("ell", [1, 2, 13, 90])
    def test_fixed_learning(self, tied_data, ell):
        features, target = tied_data
        loop = learn_individual_models(features, target, ell, backend="loop")
        fast = learn_individual_models(features, target, ell, backend="vectorized")
        np.testing.assert_allclose(
            fast.parameters, loop.parameters, rtol=RTOL, atol=ATOL
        )
        np.testing.assert_array_equal(fast.learning_neighbors, loop.learning_neighbors)

    @pytest.mark.parametrize("incremental", [True, False])
    def test_candidate_learning(self, tied_data, incremental):
        features, target = tied_data
        candidates = [1, 4, 9, 25, 60]
        loop = learn_models_for_candidates(
            features, target, candidates, incremental=incremental, backend="loop"
        )
        fast = learn_models_for_candidates(
            features, target, candidates, incremental=incremental, backend="vectorized"
        )
        np.testing.assert_allclose(fast, loop, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("alpha", [0.0, 1e-3])
    def test_candidate_learning_alpha_paths(self, tied_data, alpha):
        features, target = tied_data
        loop = learn_models_for_candidates(
            features, target, [1, 10, 30], alpha=alpha, backend="loop"
        )
        fast = learn_models_for_candidates(
            features, target, [1, 10, 30], alpha=alpha, backend="vectorized"
        )
        np.testing.assert_allclose(fast, loop, rtol=RTOL, atol=1e-9)

    def test_global_knob_selects_backend(self, tied_data):
        features, target = tied_data
        with config.override("backend", "loop"):
            loop = learn_models_for_candidates(features, target, [1, 8])
        with config.override("backend", "vectorized"):
            fast = learn_models_for_candidates(features, target, [1, 8])
        np.testing.assert_allclose(fast, loop, rtol=RTOL, atol=ATOL)


class TestAdaptiveEquivalence:
    @pytest.mark.parametrize("incremental", [True, False])
    @pytest.mark.parametrize("stepping", [1, 7])
    def test_adaptive_learning(self, tied_data, incremental, stepping):
        features, target = tied_data
        loop = adaptive_learning(
            features,
            target,
            validation_neighbors=6,
            stepping=stepping,
            max_ell=40,
            incremental=incremental,
            backend="loop",
        )
        fast = adaptive_learning(
            features,
            target,
            validation_neighbors=6,
            stepping=stepping,
            max_ell=40,
            incremental=incremental,
            backend="vectorized",
        )
        np.testing.assert_array_equal(fast.candidates, loop.candidates)
        np.testing.assert_array_equal(fast.validation_counts, loop.validation_counts)
        np.testing.assert_allclose(fast.costs, loop.costs, rtol=RTOL, atol=ATOL)
        np.testing.assert_array_equal(fast.chosen_ell, loop.chosen_ell)
        np.testing.assert_allclose(
            fast.models.parameters, loop.models.parameters, rtol=RTOL, atol=ATOL
        )


class TestImputationEquivalence:
    @pytest.mark.parametrize("combination", ["voting", "uniform", "distance"])
    @pytest.mark.parametrize("k", [1, 5])
    def test_batch_imputation(self, tied_data, queries, combination, k):
        features, target = tied_data
        models = adaptive_learning(
            features, target, validation_neighbors=5, stepping=10, backend="loop"
        ).models
        loop = impute_with_individual_models(
            queries, models, features, target, k, combination=combination, backend="loop"
        )
        fast = impute_with_individual_models(
            queries, models, features, target, k, combination=combination,
            backend="vectorized",
        )
        np.testing.assert_allclose(fast, loop, rtol=RTOL, atol=ATOL)

    def test_empty_query_batch_rejected(self, tied_data):
        from repro.exceptions import DataError

        features, target = tied_data
        models = learn_individual_models(features, target, 3)
        with pytest.raises(DataError):
            impute_with_individual_models(
                np.empty((0, features.shape[1])), models, features, target, 3
            )


class TestImputerEquivalence:
    @pytest.mark.parametrize("learning", ["fixed", "adaptive"])
    def test_end_to_end(self, asf_small, learning):
        injection = inject_missing(asf_small, fraction=0.05, random_state=3)
        kwargs = dict(k=5, learning=learning, stepping=10, max_learning_neighbors=30)
        if learning == "fixed":
            kwargs["learning_neighbors"] = 8
        loop = repro.IIMImputer(backend="loop", **kwargs)
        fast = repro.IIMImputer(backend="vectorized", **kwargs)
        imputed_loop = loop.fit(injection.dirty).impute(injection.dirty)
        imputed_fast = fast.fit(injection.dirty).impute(injection.dirty)
        np.testing.assert_allclose(
            imputed_fast.raw, imputed_loop.raw, rtol=RTOL, atol=ATOL
        )
