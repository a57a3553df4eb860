"""Tests for the typed message layer and the error taxonomy."""

import numpy as np
import pytest

from repro.api import (
    PROTOCOL_VERSION,
    ImputeRequest,
    MutationOp,
    SessionConfig,
    decode_rows,
    encode_rows,
    error_code,
)
from repro.exceptions import (
    ConfigurationError,
    DataError,
    MissingValueError,
    NotFittedError,
    ProtocolError,
    ReproError,
    SchemaError,
    UnsupportedOperationError,
)


class TestRowCodec:
    def test_nan_round_trips_as_null(self):
        values = np.array([[1.0, np.nan], [np.nan, 4.0]])
        wire = encode_rows(values)
        assert wire == [[1.0, None], [None, 4.0]]
        np.testing.assert_array_equal(decode_rows(wire), values)

    def test_single_row_is_promoted(self):
        decoded = decode_rows([1.0, None, 3.0])
        assert decoded.shape == (1, 3)
        assert np.isnan(decoded[0, 1])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ProtocolError):
            decode_rows([[1.0, 2.0], [3.0]])

    def test_non_numeric_cells_rejected(self):
        with pytest.raises(ProtocolError):
            decode_rows([[1.0, "two"]])
        with pytest.raises(ProtocolError):
            decode_rows([[True, 1.0]])

    def test_integer_beyond_float_range_is_a_data_error(self):
        with pytest.raises(DataError, match=r"rows\[1\]\[0\].*float range"):
            decode_rows([[1.0, 2.0], [-(10**400), None]])

    def test_empty_payload_rejected(self):
        with pytest.raises(ProtocolError):
            decode_rows([])
        with pytest.raises(ProtocolError):
            decode_rows(None)


class TestImputeRequest:
    def test_counts(self):
        request = ImputeRequest(np.array([[1.0, np.nan], [np.nan, np.nan]]))
        assert request.n_queries == 2
        assert request.n_missing == 3

    def test_wire_round_trip(self):
        request = ImputeRequest(np.array([[1.0, np.nan]]))
        clone = ImputeRequest.from_wire(request.to_wire())
        np.testing.assert_array_equal(clone.values, request.values)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            ImputeRequest(np.empty((0, 3)))

    def test_missing_rows_field_rejected(self):
        with pytest.raises(ProtocolError):
            ImputeRequest.from_wire({"values": [[1.0]]})


class TestMutationOp:
    def test_append_wire_round_trip(self):
        op = MutationOp.append([[1.0, 2.0], [3.0, 4.0]])
        clone = MutationOp.from_wire(op.to_wire())
        assert clone.kind == "append"
        np.testing.assert_array_equal(clone.rows, op.rows)

    def test_delete_wire_round_trip(self):
        op = MutationOp.delete([3, 1, 4])
        clone = MutationOp.from_wire(op.to_wire())
        np.testing.assert_array_equal(clone.indices, [3, 1, 4])

    def test_update_wire_round_trip(self):
        op = MutationOp.update(7, [1.5, 2.5])
        clone = MutationOp.from_wire(op.to_wire())
        assert clone.index == 7
        np.testing.assert_array_equal(clone.row, [1.5, 2.5])

    def test_invalid_ops_rejected(self):
        with pytest.raises(ConfigurationError):
            MutationOp("upsert")
        with pytest.raises(DataError):
            MutationOp.delete([])
        with pytest.raises(ProtocolError):
            MutationOp.from_wire({"op": "delete", "indices": [1.5]})
        with pytest.raises(ProtocolError):
            MutationOp.from_wire({"op": "upsert"})
        with pytest.raises(ProtocolError):
            MutationOp.from_wire({"op": "update", "row": [1.0]})
        # A boolean index and a multi-row payload are client bugs, not data.
        with pytest.raises(ProtocolError):
            MutationOp.from_wire({"op": "update", "index": True, "row": [1.0]})
        with pytest.raises(ProtocolError):
            MutationOp.from_wire(
                {"op": "update", "index": 2, "row": [[1.0, 2.0], [9.0, 9.0]]}
            )


class TestSessionConfig:
    def test_auto_mode_follows_capabilities(self):
        assert SessionConfig(method="IIM").resolved_mode() == "online"
        assert SessionConfig(method="kNN").resolved_mode() == "batch"

    def test_method_name_canonicalised(self):
        assert SessionConfig(method="knn").method == "kNN"

    def test_unknown_method_gets_suggestions(self):
        with pytest.raises(ConfigurationError, match="did you mean"):
            SessionConfig(method="knnn")

    def test_online_mode_requires_mutation_capability(self):
        with pytest.raises(ConfigurationError, match="online mode"):
            SessionConfig(method="Mean", mode="online")

    def test_engine_knobs_rejected_for_batch_methods(self):
        with pytest.raises(ConfigurationError, match="engine knobs"):
            SessionConfig(method="kNN", engine={"model_cache_size": 2})

    def test_unknown_engine_knob_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine knobs"):
            SessionConfig(method="IIM", engine={"sharding": 4})
        # A removed knob is unknown too.
        for removed in (
            "incremental_fallback_fraction", "shard_capacity", "journal_capacity",
            "refresh_policy",
        ):
            with pytest.raises(ConfigurationError, match="unknown engine knobs"):
                SessionConfig(method="IIM", engine={removed: 1})

    def test_wire_round_trip(self):
        config = SessionConfig(
            method="IIM", mode="online", params={"k": 5},
            engine={"model_cache_size": 2},
        )
        clone = SessionConfig.from_wire(config.to_wire())
        assert clone == config

    def test_unknown_wire_fields_rejected(self):
        with pytest.raises(ProtocolError):
            SessionConfig.from_wire({"method": "IIM", "knobs": {}})


class TestErrorTaxonomy:
    @pytest.mark.parametrize(
        "exc, code",
        [
            (ProtocolError("x"), "protocol"),
            (UnsupportedOperationError("x"), "unsupported"),
            (ConfigurationError("x"), "configuration"),
            (NotFittedError("x"), "not_fitted"),
            (SchemaError("x"), "schema"),
            (MissingValueError("x"), "missing_value"),
            (DataError("x"), "data"),
            (ReproError("x"), "error"),
            (ValueError("x"), "internal"),
        ],
    )
    def test_stable_codes(self, exc, code):
        assert error_code(exc) == code

    def test_protocol_version_is_one(self):
        assert PROTOCOL_VERSION == 1
