"""Tests for the imputation phase (Algorithm 2) and the IIMImputer facade."""

import numpy as np
import pytest

from repro.core import (
    IIMImputer,
    ImputationTrace,
    impute_one,
    impute_with_individual_models,
    learn_individual_models,
)
from repro.data import inject_missing, load_dataset
from repro.exceptions import ConfigurationError
from repro.metrics import rms_error


@pytest.fixture
def figure1_setup(figure1_relation):
    values = figure1_relation.raw
    features, target = values[:, :1], values[:, 1]
    models = learn_individual_models(features, target, ell=4)
    return features, target, models


class TestImputeOne:
    def test_paper_example_3_value(self, figure1_setup):
        features, target, models = figure1_setup
        value = impute_one(np.array([5.0]), models, features, target, k=3)
        assert value == pytest.approx(1.19, abs=0.02)

    def test_much_closer_to_truth_than_knn_in_example(self, figure1_setup):
        # Truth of tx[A2] is 1.8; kNN (mean of t4,t5,t6) gives ~3.43.
        features, target, models = figure1_setup
        iim_value = impute_one(np.array([5.0]), models, features, target, k=3)
        knn_value = target[[3, 4, 5]].mean()
        assert abs(iim_value - 1.8) < abs(knn_value - 1.8)

    def test_trace_contents(self, figure1_setup):
        features, target, models = figure1_setup
        trace = impute_one(np.array([5.0]), models, features, target, k=3, return_trace=True)
        assert isinstance(trace, ImputationTrace)
        assert set(trace.neighbor_indices.tolist()) == {3, 4, 5}
        assert trace.weights.sum() == pytest.approx(1.0)
        assert trace.candidates.shape == (3,)

    def test_k_larger_than_data_rejected(self, figure1_setup):
        features, target, models = figure1_setup
        with pytest.raises(ConfigurationError):
            impute_one(np.array([5.0]), models, features, target, k=100)

    def test_combination_schemes_give_finite_values(self, figure1_setup):
        features, target, models = figure1_setup
        for scheme in ("voting", "uniform", "distance"):
            value = impute_one(
                np.array([5.0]), models, features, target, k=3, combination=scheme
            )
            assert np.isfinite(value)

    def test_batch_helper_matches_single_calls(self, figure1_setup):
        features, target, models = figure1_setup
        queries = np.array([[5.0], [1.0]])
        batch = impute_with_individual_models(queries, models, features, target, k=3)
        singles = [impute_one(q, models, features, target, k=3) for q in queries]
        np.testing.assert_allclose(batch, singles)


class TestIIMImputerConfiguration:
    def test_fixed_learning_requires_ell(self):
        with pytest.raises(ConfigurationError):
            IIMImputer(learning="fixed")

    def test_invalid_learning_mode(self):
        with pytest.raises(ConfigurationError):
            IIMImputer(learning="magic")

    def test_invalid_combination(self):
        with pytest.raises(ConfigurationError):
            IIMImputer(combination="median")

    def test_name_is_iim(self):
        assert IIMImputer().name == "IIM"

    @pytest.mark.parametrize("flag", ["incremental", "include_global"])
    @pytest.mark.parametrize("value", ["false", "no", 1, None])
    def test_non_boolean_flags_are_refused(self, flag, value):
        with pytest.raises(ConfigurationError, match=flag):
            IIMImputer(**{flag: value})

    def test_numpy_booleans_are_accepted(self):
        imputer = IIMImputer(incremental=np.False_, include_global=np.True_)
        assert imputer.incremental is False and imputer.include_global is True

    def test_unknown_metric_is_refused_at_construction(self):
        with pytest.raises(ConfigurationError, match="available metrics"):
            IIMImputer(metric="nope")


class TestIIMImputerBehaviour:
    def test_imputes_all_missing_cells(self, asf_injection):
        imputer = IIMImputer(k=5, learning="fixed", learning_neighbors=15)
        imputed = imputer.fit(asf_injection.dirty).impute(asf_injection.dirty)
        assert imputed.is_complete()

    def test_adaptive_better_than_worst_fixed(self, asf_injection):
        # Adaptive learning must not be worse than both extreme fixed settings.
        errors = {}
        for label, kwargs in {
            "ell1": dict(learning="fixed", learning_neighbors=1),
            "elln": dict(learning="fixed", learning_neighbors=180),
            "adaptive": dict(learning="adaptive", stepping=10, max_learning_neighbors=60),
        }.items():
            imputer = IIMImputer(k=5, **kwargs)
            values = imputer.fit(asf_injection.dirty).impute_cells(asf_injection)
            errors[label] = rms_error(asf_injection.truth, values)
        assert errors["adaptive"] <= max(errors["ell1"], errors["elln"])

    def test_learning_neighbors_clamped_to_n(self, asf_injection):
        imputer = IIMImputer(k=5, learning="fixed", learning_neighbors=10**6)
        imputed = imputer.fit(asf_injection.dirty).impute(asf_injection.dirty)
        assert imputed.is_complete()

    def test_learned_models_accessible_after_impute(self, asf_injection):
        imputer = IIMImputer(k=5, learning="fixed", learning_neighbors=10)
        imputer.fit(asf_injection.dirty).impute(asf_injection.dirty)
        target_index = int(asf_injection.attributes[0])
        models = imputer.learned_models(target_index)
        assert models.n_models == asf_injection.dirty.complete_part().n_tuples

    def test_learned_models_before_impute_raises(self, asf_injection):
        imputer = IIMImputer(k=5, learning="fixed", learning_neighbors=10)
        imputer.fit(asf_injection.dirty)
        with pytest.raises(ConfigurationError):
            imputer.learned_models(0)

    def test_adaptive_result_diagnostics(self, asf_injection):
        imputer = IIMImputer(k=5, learning="adaptive", stepping=20, max_learning_neighbors=60)
        imputer.fit(asf_injection.dirty).impute(asf_injection.dirty)
        target_index = int(asf_injection.attributes[0])
        result = imputer.adaptive_result(target_index)
        assert result.costs.shape[0] == result.chosen_ell.shape[0]
        assert set(result.chosen_ell).issubset(set(result.candidates.tolist()))

    def test_adaptive_result_unavailable_for_fixed(self, asf_injection):
        imputer = IIMImputer(k=5, learning="fixed", learning_neighbors=10)
        imputer.fit(asf_injection.dirty).impute(asf_injection.dirty)
        with pytest.raises(ConfigurationError):
            imputer.adaptive_result(int(asf_injection.attributes[0]))

    def test_learn_attribute_explicitly(self, asf_injection):
        imputer = IIMImputer(k=5, learning="fixed", learning_neighbors=10)
        imputer.fit(asf_injection.dirty)
        models = imputer.learn_attribute(-1)
        assert models.n_models == asf_injection.dirty.complete_part().n_tuples

    def test_incremental_and_straightforward_agree(self, asf_injection):
        values = {}
        for label, incremental in (("inc", True), ("scratch", False)):
            imputer = IIMImputer(
                k=5, learning="adaptive", stepping=15, max_learning_neighbors=60,
                incremental=incremental,
            )
            values[label] = imputer.fit(asf_injection.dirty).impute_cells(asf_injection)
        np.testing.assert_allclose(values["inc"], values["scratch"], atol=1e-6)

    def test_beats_knn_and_glr_on_heterogeneous_data(self):
        relation = load_dataset("asf", size=500)
        injection = inject_missing(relation, fraction=0.05, random_state=0)
        from repro.baselines import GLRImputer, KNNImputer

        iim = IIMImputer(k=10, learning="adaptive", stepping=5, max_learning_neighbors=100,
                         validation_neighbors=30)
        errors = {
            "IIM": rms_error(injection.truth, iim.fit(injection.dirty).impute_cells(injection)),
            "kNN": rms_error(
                injection.truth, KNNImputer(k=10).fit(injection.dirty).impute_cells(injection)
            ),
            "GLR": rms_error(
                injection.truth, GLRImputer().fit(injection.dirty).impute_cells(injection)
            ),
        }
        assert errors["IIM"] < errors["kNN"]
        assert errors["IIM"] < errors["GLR"]
