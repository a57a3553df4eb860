"""Behavioural tests for every baseline imputation method."""

import numpy as np
import pytest

from repro.baselines import (
    BLRImputer,
    ERACERImputer,
    GLRImputer,
    GMMImputer,
    IFCImputer,
    ILLSImputer,
    KNNEnsembleImputer,
    KNNImputer,
    LoessImputer,
    MeanImputer,
    PMMImputer,
    SVDImputer,
    XGBImputer,
    make_imputer,
    paper_table2_methods,
)
from repro.data import Relation, Schema, inject_missing, load_dataset
from repro.exceptions import ConfigurationError, DataError
from repro.metrics import rms_error


@pytest.fixture(scope="module")
def linear_injection():
    """Exactly linear data: A4 = A1 + 2*A2 - A3; missing cells on A4 only."""
    rng = np.random.default_rng(0)
    X = rng.uniform(-5, 5, size=(120, 3))
    target = X[:, 0] + 2 * X[:, 1] - X[:, 2]
    relation = Relation(np.column_stack([X, target]), Schema(["A1", "A2", "A3", "A4"]))
    from repro.data.missing import inject_missing_attribute

    return inject_missing_attribute(relation, "A4", 15, random_state=1)


@pytest.fixture(scope="module")
def asf_injection_module():
    relation = load_dataset("asf", size=250)
    return inject_missing(relation, fraction=0.05, random_state=2)


def _run(imputer, injection):
    return imputer.fit(injection.dirty).impute_cells(injection)


class TestMeanImputer:
    def test_imputes_column_mean(self, linear_injection):
        values = _run(MeanImputer(), linear_injection)
        complete_mean = linear_injection.dirty.complete_part().column("A4").mean()
        np.testing.assert_allclose(values, complete_mean)


class TestKNNImputer:
    def test_exact_on_duplicated_tuples(self):
        # When an identical complete tuple exists, 1-NN recovers the value.
        base = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
        values = np.vstack([base, base])
        relation = Relation(values)
        from repro.data.missing import inject_missing_cells

        injection = inject_missing_cells(relation, [(0, 2)])
        imputed = _run(KNNImputer(k=1), injection)
        assert imputed[0] == pytest.approx(3.0)

    def test_reasonable_on_linear_data(self, linear_injection):
        values = _run(KNNImputer(k=5), linear_injection)
        assert rms_error(linear_injection.truth, values) < np.std(linear_injection.truth)

    def test_distance_weighting_differs_from_uniform(self, asf_injection_module):
        uniform = _run(KNNImputer(k=10, weighting="uniform"), asf_injection_module)
        weighted = _run(KNNImputer(k=10, weighting="distance"), asf_injection_module)
        assert not np.allclose(uniform, weighted)

    def test_k_capped_at_available_tuples(self):
        relation = Relation(np.random.default_rng(0).normal(size=(6, 3)))
        from repro.data.missing import inject_missing_cells

        injection = inject_missing_cells(relation, [(0, 1)])
        imputed = _run(KNNImputer(k=100), injection)
        assert np.isfinite(imputed).all()


class TestKNNEnsemble:
    def test_close_to_knn_but_not_identical(self, asf_injection_module):
        knn = _run(KNNImputer(k=5), asf_injection_module)
        knne = _run(KNNEnsembleImputer(k=5), asf_injection_module)
        assert knne.shape == knn.shape
        assert np.isfinite(knne).all()
        assert not np.allclose(knn, knne)


class TestGLRImputer:
    def test_recovers_exact_linear_relation(self, linear_injection):
        values = _run(GLRImputer(), linear_injection)
        np.testing.assert_allclose(values, linear_injection.truth, atol=0.05)


class TestLoessImputer:
    def test_good_on_linear_data(self, linear_injection):
        values = _run(LoessImputer(k=20), linear_injection)
        assert rms_error(linear_injection.truth, values) < 0.5


class TestBLRImputer:
    def test_posterior_mean_recovers_linear_relation(self, linear_injection):
        values = _run(BLRImputer(sample=False), linear_injection)
        np.testing.assert_allclose(values, linear_injection.truth, atol=0.1)

    def test_sampling_is_seed_reproducible(self, linear_injection):
        a = _run(BLRImputer(sample=True, random_state=3), linear_injection)
        b = _run(BLRImputer(sample=True, random_state=3), linear_injection)
        np.testing.assert_array_equal(a, b)

    def test_sample_must_be_a_boolean(self):
        with pytest.raises(ConfigurationError, match="sample"):
            BLRImputer(sample="false")
        assert BLRImputer(sample=np.False_).sample is False


class TestPMMImputer:
    def test_imputations_are_observed_values(self, linear_injection):
        values = _run(PMMImputer(random_state=0), linear_injection)
        observed = set(np.round(linear_injection.dirty.complete_part().column("A4"), 9))
        assert all(np.round(v, 9) in observed for v in values)

    def test_reasonable_accuracy(self, linear_injection):
        values = _run(PMMImputer(random_state=0), linear_injection)
        assert rms_error(linear_injection.truth, values) < np.std(linear_injection.truth)


class TestXGBImputer:
    def test_better_than_mean_on_linear_data(self, linear_injection):
        xgb = _run(XGBImputer(n_estimators=40, random_state=0), linear_injection)
        mean = _run(MeanImputer(), linear_injection)
        assert rms_error(linear_injection.truth, xgb) < rms_error(linear_injection.truth, mean)


class TestIFCImputer:
    def test_finite_and_better_than_nothing(self, asf_injection_module):
        values = _run(IFCImputer(n_clusters=4, random_state=0), asf_injection_module)
        assert np.isfinite(values).all()

    def test_cluster_count_capped(self):
        relation = Relation(np.random.default_rng(0).normal(size=(8, 3)))
        from repro.data.missing import inject_missing_cells

        injection = inject_missing_cells(relation, [(0, 0)])
        values = _run(IFCImputer(n_clusters=50, random_state=0), injection)
        assert np.isfinite(values).all()


class TestGMMImputer:
    def test_better_than_mean_on_clustered_data(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0.0, 0.0, 0.0], [10.0, 10.0, 10.0]])
        labels = rng.integers(0, 2, size=200)
        values = centers[labels] + rng.normal(scale=0.5, size=(200, 3))
        relation = Relation(values)
        injection = inject_missing(relation, fraction=0.1, random_state=1)
        gmm = GMMImputer(n_components=2, random_state=0)
        mean = MeanImputer()
        err_gmm = rms_error(injection.truth, _run(gmm, injection))
        err_mean = rms_error(injection.truth, _run(mean, injection))
        assert err_gmm < err_mean


class TestSVDImputer:
    def test_recovers_low_rank_structure(self):
        rng = np.random.default_rng(0)
        factors = rng.normal(size=(100, 2))
        loadings = rng.normal(size=(2, 5))
        relation = Relation(factors @ loadings)
        injection = inject_missing(relation, fraction=0.1, random_state=0)
        values = _run(SVDImputer(rank=2), injection)
        assert rms_error(injection.truth, values) < 0.5 * np.std(injection.truth)

    def test_rejects_two_attribute_data(self):
        relation = Relation(np.random.default_rng(0).normal(size=(30, 2)))
        injection = inject_missing(relation, fraction=0.1, random_state=0)
        with pytest.raises(DataError):
            _run(SVDImputer(), injection)


class TestILLSImputer:
    def test_good_on_linear_data(self, linear_injection):
        values = _run(ILLSImputer(k=15), linear_injection)
        assert rms_error(linear_injection.truth, values) < 0.75


class TestERACERImputer:
    def test_good_on_linear_data(self, linear_injection):
        values = _run(ERACERImputer(k=10), linear_injection)
        assert rms_error(linear_injection.truth, values) < 1.0


class TestAllBaselinesSmoke:
    @pytest.mark.parametrize("method", paper_table2_methods())
    def test_every_baseline_fills_all_cells(self, asf_injection_module, method):
        if method == "XGB":
            imputer = make_imputer(method, n_estimators=10)
        else:
            imputer = make_imputer(method)
        imputed = imputer.fit(asf_injection_module.dirty).impute(asf_injection_module.dirty)
        assert imputed.is_complete()

    @pytest.mark.parametrize("method", ["kNN", "GLR", "LOESS", "ERACER", "ILLS", "kNNE"])
    def test_deterministic_methods_are_reproducible(self, asf_injection_module, method):
        a = make_imputer(method).fit(asf_injection_module.dirty).impute_cells(asf_injection_module)
        b = make_imputer(method).fit(asf_injection_module.dirty).impute_cells(asf_injection_module)
        np.testing.assert_array_equal(a, b)
