"""API-vs-direct equivalence: the facade must add nothing and change nothing."""

import numpy as np
import pytest

from repro.api import (
    BatchSession,
    ImputeRequest,
    MutationOp,
    OnlineSession,
    SessionConfig,
    create_session,
    restore_session,
)
from repro.baselines import available_methods, make_imputer
from repro.data import Relation, load_dataset
from repro.data.missing import inject_missing
from repro.exceptions import (
    ConfigurationError,
    DataError,
    NotFittedError,
    UnsupportedOperationError,
)
from repro.online import OnlineImputationEngine

#: Seeds for the stochastic methods so direct and session runs coincide.
METHOD_OVERRIDES = {
    "BLR": {"random_state": 0},
    "PMM": {"random_state": 0},
    "IIM": {"k": 5, "stepping": 5, "max_learning_neighbors": 20},
}

ENGINE_PARAMS = dict(k=4, learning="adaptive", stepping=3, max_learning_neighbors=12)


@pytest.fixture(scope="module")
def injection():
    relation = load_dataset("asf", size=150)
    return inject_missing(relation, fraction=0.06, random_state=0)


@pytest.fixture(scope="module")
def stream_values():
    return load_dataset("sn", size=140).raw


class TestBatchSessionEquivalence:
    @pytest.mark.parametrize("method", available_methods())
    def test_bit_identical_to_direct_calls(self, method, injection):
        """Every registry method through a session == calling it directly."""
        overrides = METHOD_OVERRIDES.get(method, {})
        direct = make_imputer(method, **overrides)
        direct_values = direct.fit(injection.dirty).impute(injection.dirty).raw

        session = BatchSession(method, **overrides)
        session_values = session.fit(injection.dirty).impute(injection.dirty)

        np.testing.assert_array_equal(session_values, direct_values)

    def test_impute_accepts_request_array_and_relation(self, injection):
        session = BatchSession("Mean").fit(injection.dirty)
        from_relation = session.impute(injection.dirty)
        from_array = session.impute(injection.dirty.raw.copy())
        from_request = session.impute(ImputeRequest(injection.dirty.raw.copy()))
        np.testing.assert_array_equal(from_relation, from_array)
        np.testing.assert_array_equal(from_relation, from_request)

    def test_save_restore_round_trip(self, injection, tmp_path):
        session = BatchSession("kNN", k=4).fit(injection.dirty)
        expected = session.impute(injection.dirty)
        session.save(tmp_path / "knn")

        restored = BatchSession.restore(tmp_path / "knn")
        np.testing.assert_array_equal(restored.impute(injection.dirty), expected)
        sniffed = restore_session(tmp_path / "knn")
        assert isinstance(sniffed, BatchSession)
        np.testing.assert_array_equal(sniffed.impute(injection.dirty), expected)

    def test_mutation_unsupported(self, injection):
        session = BatchSession("Mean").fit(injection.dirty)
        assert not session.capabilities.supports_mutation
        with pytest.raises(UnsupportedOperationError):
            session.mutate([MutationOp.append(injection.dirty.raw[:1])])

    def test_counters_track_usage(self, injection):
        session = BatchSession("Mean")
        session.fit(injection.dirty)
        session.impute(injection.dirty)
        stats = session.stats()
        assert stats["kind"] == "batch"
        assert stats["counters"]["fits"] == 1
        assert stats["counters"]["impute_batches"] == 1
        assert stats["counters"]["imputed_cells"] == injection.dirty.n_missing_cells

    def test_rejects_unknown_method_and_override(self):
        with pytest.raises(ConfigurationError, match="did you mean"):
            BatchSession("knnn")
        with pytest.raises(ConfigurationError, match="unknown override"):
            BatchSession("kNN", neighbors=5)


class TestOnlineSessionEquivalence:
    def test_lifecycle_trace_matches_raw_engine(self, stream_values):
        """append/delete/update/impute/save/restore == the raw engine."""
        values = stream_values
        engine = OnlineImputationEngine(**ENGINE_PARAMS)
        session = OnlineSession(**ENGINE_PARAMS)

        engine.append(values[:80])
        session.fit(values[:80])

        engine.append(values[80:110])
        engine.update(5, values[110])
        engine.delete([0, 17, 44])
        session.mutate([
            MutationOp.append(values[80:110]),
            MutationOp.update(5, values[110]),
            MutationOp.delete([0, 17, 44]),
        ])

        queries = values[110:120].copy()
        queries[:, 0] = np.nan
        queries[::3, 1] = np.nan
        direct_values = engine.impute_batch(queries)
        session_values = session.impute(ImputeRequest(queries))
        np.testing.assert_allclose(
            session_values, direct_values, rtol=1e-9, atol=0
        )
        # Same engine under the facade ⇒ actually bit-identical.
        np.testing.assert_array_equal(session_values, direct_values)

    def test_save_restore_round_trip(self, stream_values, tmp_path):
        session = OnlineSession(**ENGINE_PARAMS)
        session.fit(stream_values[:60])
        queries = stream_values[60:66].copy()
        queries[:, 1] = np.nan
        expected = session.impute(queries)
        session.save(tmp_path / "engine")

        restored = OnlineSession.restore(tmp_path / "engine")
        np.testing.assert_array_equal(restored.impute(queries), expected)
        sniffed = restore_session(tmp_path / "engine")
        assert isinstance(sniffed, OnlineSession)
        np.testing.assert_array_equal(sniffed.impute(queries), expected)

        # The restored session keeps mutating like the original would.
        continued = OnlineSession(**ENGINE_PARAMS)
        continued.fit(stream_values[:60])
        continued.mutate([MutationOp.append(stream_values[66:90])])
        restored.mutate([MutationOp.append(stream_values[66:90])])
        np.testing.assert_allclose(
            restored.impute(queries), continued.impute(queries), rtol=1e-9
        )

    def test_fit_twice_rejected(self, stream_values):
        session = OnlineSession(**ENGINE_PARAMS).fit(stream_values[:40])
        with pytest.raises(ConfigurationError, match="already fitted"):
            session.fit(stream_values[40:60])

    def test_fit_uses_complete_part_only(self, stream_values):
        dirty = stream_values[:40].copy()
        dirty[3, 0] = np.nan
        session = OnlineSession(**ENGINE_PARAMS).fit(dirty)
        assert session.engine.n_tuples == 39

    def test_fit_without_complete_tuples_rejected(self):
        session = OnlineSession(**ENGINE_PARAMS)
        with pytest.raises(DataError):
            session.fit(np.full((3, 2), np.nan))

    def test_impute_before_fit_raises_not_fitted(self, stream_values):
        session = OnlineSession(**ENGINE_PARAMS)
        queries = stream_values[:2].copy()
        queries[:, 0] = np.nan
        with pytest.raises(NotFittedError):
            session.impute(queries)

    def test_stats_surface_engine_counters_and_memory(self, stream_values):
        session = OnlineSession(**ENGINE_PARAMS).fit(stream_values[:50])
        queries = stream_values[50:54].copy()
        queries[:, 1] = np.nan
        session.impute(queries)
        stats = session.stats()
        assert stats["kind"] == "online"
        assert stats["capabilities"]["supports_mutation"]
        assert stats["counters"] == session.engine.stats
        assert stats["memory"] == session.engine.memory_stats()
        assert stats["n_tuples"] == 50

    def test_wrapping_engine_and_kwargs_mutually_exclusive(self):
        engine = OnlineImputationEngine(**ENGINE_PARAMS)
        with pytest.raises(ConfigurationError):
            OnlineSession(engine, k=3)


class TestSessionStatsUniformity:
    def test_same_shape_for_both_kinds(self, injection, stream_values):
        batch = BatchSession("Mean").fit(injection.dirty)
        online = OnlineSession(**ENGINE_PARAMS).fit(stream_values[:40])
        batch_stats, online_stats = batch.stats(), online.stats()
        shared = {
            "protocol", "kind", "method", "capabilities", "fitted",
            "n_tuples", "n_attributes", "counters", "memory",
        }
        assert shared <= set(batch_stats)
        assert shared <= set(online_stats)
        assert batch_stats["protocol"] == online_stats["protocol"] == 1


class TestCreateSession:
    def test_auto_dispatch(self):
        assert isinstance(create_session(method="kNN"), BatchSession)
        assert isinstance(
            create_session(method="IIM", params={"k": 4}), OnlineSession
        )
        assert isinstance(
            create_session(method="IIM", mode="batch", params={"k": 4}),
            BatchSession,
        )

    def test_config_and_kwargs_mutually_exclusive(self):
        with pytest.raises(ConfigurationError):
            create_session(SessionConfig(method="kNN"), method="Mean")

    def test_engine_knobs_forwarded(self):
        session = create_session(
            method="IIM", params={"k": 4},
            engine={"model_cache_size": 3},
        )
        assert session.engine.model_cache_size == 3

    def test_restore_session_rejects_unknown_artifacts(self, tmp_path):
        with pytest.raises(ConfigurationError):
            restore_session(tmp_path / "nothing-here")
