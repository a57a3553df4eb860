"""Shared fixtures of the online engine tests."""

import numpy as np
import pytest

from repro.core import (
    adaptive_learning,
    learn_individual_models,
    learn_models_for_candidates,
)
from repro.neighbors import NeighborOrderCache


@pytest.fixture
def assert_cold_state():
    """A check that a model state's arrays equal the cold learning
    functions' bit for bit over ``store``, the rows in the state's order.

    The reference orders the store's feature block with a matrix-backed
    cache of the state's cap, then runs ``learn_individual_models``, or
    ``learn_models_for_candidates`` and ``adaptive_learning`` — the cold
    imputer's path, which shares no code with the state's build above the
    kernels.
    """

    def check(state, store):
        imputer = state.engine.imputer
        n = store.shape[0]
        # Row-major, as the state's gathered block (the global ridge fit's
        # rounding follows the layout).
        features = np.ascontiguousarray(store[:, state.feature_indices])
        target = store[:, state.target_index]
        cache = NeighborOrderCache(
            features, metric=imputer.metric, include_self=True,
            max_length=state._requested_cache_length(),
        )
        np.testing.assert_array_equal(state.cache.order_matrix(), cache.order_matrix())
        if imputer.learning == "fixed":
            models = learn_individual_models(
                features, target, min(imputer.learning_neighbors, n),
                alpha=imputer.alpha, metric=imputer.metric,
                order_cache=cache, backend="vectorized",
            )
            np.testing.assert_array_equal(state.parameters, models.parameters)
        else:
            np.testing.assert_array_equal(
                state.all_parameters,
                learn_models_for_candidates(
                    features, target, state.candidates, alpha=imputer.alpha,
                    metric=imputer.metric, incremental=imputer.incremental,
                    order_cache=cache, backend="vectorized",
                ),
            )
            cold = adaptive_learning(
                features, target,
                validation_neighbors=imputer.validation_neighbors or imputer.k,
                stepping=imputer.stepping,
                max_ell=imputer.max_learning_neighbors,
                alpha=imputer.alpha,
                metric=imputer.metric,
                incremental=imputer.incremental,
                include_global=imputer.include_global,
                backend="vectorized",
            )
            np.testing.assert_array_equal(
                np.append(state.candidates, n) if state.global_active
                else state.candidates,
                cold.candidates,
            )
            costs = state.costs
            if state.global_active:
                costs = np.hstack([costs, state.global_costs[:, None]])
            np.testing.assert_array_equal(costs, cold.costs)
            np.testing.assert_array_equal(state.counts, cold.validation_counts)
            models = cold.models
        np.testing.assert_array_equal(state.models.parameters, models.parameters)
        np.testing.assert_array_equal(
            state.models.learning_neighbors, models.learning_neighbors
        )

    return check


@pytest.fixture
def sync_each_mutation():
    """Wrap an engine so each append, delete and update is followed by one
    impute of a stored row with every cached attribute blanked.

    A mutation only versions the store; the read brings every resident
    model state up to date with it, so a test's ``eager`` case replays
    each mutation on its own.
    """

    def wrap(engine):
        for name in ("append", "delete", "update"):
            mutate = getattr(type(engine), name)

            def synced(*args, _mutate=mutate, **kwargs):
                _mutate(engine, *args, **kwargs)
                cached = engine.cached_attributes()
                if cached:
                    store = engine.store
                    query = store.rows(store.live_slots[:1]).copy()
                    query[:, cached] = np.nan
                    engine.impute_batch(query)
                return engine

            setattr(engine, name, synced)
        return engine

    return wrap
