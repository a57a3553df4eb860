"""ILLS and ERACER: vectorized batch kernels vs. the reference loops."""

import numpy as np
import pytest

from repro import ERACERImputer, ILLSImputer, config, load_dataset
from repro.data.missing import inject_missing
from repro.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def injection():
    relation = load_dataset("asf", size=220)
    return inject_missing(relation, fraction=0.08, random_state=2)


@pytest.fixture(scope="module")
def ccpp_injection():
    relation = load_dataset("ccpp", size=200)
    return inject_missing(relation, fraction=0.1, random_state=3)


@pytest.mark.parametrize("cls", [ILLSImputer, ERACERImputer])
@pytest.mark.parametrize("fixture_name", ["injection", "ccpp_injection"])
def test_loop_vs_vectorized_equivalence(cls, fixture_name, request):
    injected = request.getfixturevalue(fixture_name)
    outputs = {}
    for backend in ("loop", "vectorized"):
        imputer = cls(k=8, backend=backend)
        outputs[backend] = imputer.fit(injected.dirty).impute(injected.dirty).raw
    np.testing.assert_allclose(
        outputs["vectorized"], outputs["loop"], rtol=1e-9, atol=1e-12
    )


@pytest.mark.parametrize("cls", [ILLSImputer, ERACERImputer])
def test_global_knob_selects_backend(cls, injection):
    pinned = cls(k=6, backend="loop").fit_impute(injection.dirty).raw
    with config.override("backend", "loop"):
        knob = cls(k=6).fit_impute(injection.dirty).raw
    np.testing.assert_array_equal(pinned, knob)
    with config.override("backend", "vectorized"):
        vectorized = cls(k=6).fit_impute(injection.dirty).raw
    np.testing.assert_allclose(vectorized, pinned, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("cls", [ILLSImputer, ERACERImputer])
def test_invalid_backend_rejected(cls):
    with pytest.raises(ConfigurationError):
        cls(backend="gpu")


def test_small_neighborhoods_still_agree(injection):
    """k smaller than the feature count exercises rank-deficient systems."""
    for cls in (ILLSImputer, ERACERImputer):
        loop = cls(k=2, backend="loop").fit_impute(injection.dirty).raw
        fast = cls(k=2, backend="vectorized").fit_impute(injection.dirty).raw
        np.testing.assert_allclose(fast, loop, rtol=1e-9, atol=1e-9)


def test_ills_single_neighbor_uses_constant_model(injection):
    """k=1 systems must fall back to the constant model on both backends."""
    loop = ILLSImputer(k=1, backend="loop").fit_impute(injection.dirty).raw
    fast = ILLSImputer(k=1, backend="vectorized").fit_impute(injection.dirty).raw
    np.testing.assert_allclose(fast, loop, rtol=1e-9, atol=1e-12)
