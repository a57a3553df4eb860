"""WAL unit coverage: framing, rotation, torn tails, truncation, sessions."""

import numpy as np
import pytest

from repro import config
from repro.api import MutationOp, OnlineSession
from repro.data import load_dataset
from repro.exceptions import ConfigurationError
from repro.reliability import WriteAheadLog, read_wal
from repro.reliability.wal import FRAME_HEADER_BYTES, SEGMENT_SUFFIX


def _op(i):
    return MutationOp.append([[float(i), float(i) + 0.5]]).to_wire()


def _segment_paths(wal_dir):
    return sorted(wal_dir.glob(f"*{SEGMENT_SUFFIX}"))


CONFIG = {"method": "IIM", "mode": "online"}


class TestFraming:
    def test_log_and_scan_roundtrip(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal", config=CONFIG) as wal:
            for i in range(5):
                assert wal.log_op(_op(i)) == i + 1
            wal.commit()
        state = read_wal(tmp_path / "wal")
        assert state.config == CONFIG
        assert state.base_seq == 0
        assert state.last_seq == 5
        assert state.torn is None
        assert [seq for seq, _ in state.ops] == [1, 2, 3, 4, 5]
        assert [op for _, op in state.ops] == [_op(i) for i in range(5)]

    def test_reopen_continues_the_sequence(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal", config=CONFIG) as wal:
            wal.log_ops([_op(0), _op(1)])
        with WriteAheadLog(tmp_path / "wal") as wal:
            assert wal.last_seq == 2
            assert wal.config == CONFIG  # adopted from the open record
            assert wal.log_op(_op(2)) == 3
        assert read_wal(tmp_path / "wal").last_seq == 3

    def test_rotation_splits_segments_and_scan_spans_them(self, tmp_path):
        with WriteAheadLog(
            tmp_path / "wal", config=CONFIG, segment_max_records=3
        ) as wal:
            wal.log_ops([_op(i) for i in range(8)])
        segments = _segment_paths(tmp_path / "wal")
        assert len(segments) == 3
        state = read_wal(tmp_path / "wal")
        assert [seq for seq, _ in state.ops] == list(range(1, 9))

    def test_closed_log_rejects_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", config=CONFIG)
        wal.close()
        with pytest.raises(ConfigurationError, match="closed"):
            wal.log_op(_op(0))

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no WAL directory"):
            read_wal(tmp_path / "nowhere")

    def test_sync_policy_validated_and_default_resolves(self, tmp_path):
        with pytest.raises(ConfigurationError, match="sync policy"):
            WriteAheadLog(tmp_path / "wal", sync="sometimes")
        config.set("wal_sync", "always")
        try:
            with WriteAheadLog(tmp_path / "wal2", config=CONFIG) as wal:
                assert wal.sync == "always"
        finally:
            config.set("wal_sync", "batch")


class TestTornTails:
    def _filled(self, tmp_path, n=6):
        with WriteAheadLog(tmp_path / "wal", config=CONFIG) as wal:
            wal.log_ops([_op(i) for i in range(n)])
        return tmp_path / "wal"

    def test_truncated_tail_recovers_valid_prefix(self, tmp_path):
        wal_dir = self._filled(tmp_path)
        segment = _segment_paths(wal_dir)[-1]
        data = segment.read_bytes()
        segment.write_bytes(data[:-9])  # tear the last frame mid-payload
        state = read_wal(wal_dir)
        assert state.last_seq == 5
        assert state.torn["reason"] == "truncated frame payload"
        assert state.torn["segment"] == segment.name
        assert state.torn["dropped_bytes"] == len(data) - 9 - state.torn["offset"]

    def test_header_tear_reported(self, tmp_path):
        wal_dir = self._filled(tmp_path)
        segment = _segment_paths(wal_dir)[-1]
        data = segment.read_bytes()
        # Leave fewer bytes than one frame header after the valid prefix.
        segment.write_bytes(data + b"0042")
        state = read_wal(wal_dir)
        assert state.last_seq == 6
        assert state.torn["reason"] == "truncated frame header"

    def test_corrupt_byte_fails_crc_and_ends_prefix(self, tmp_path):
        wal_dir = self._filled(tmp_path)
        segment = _segment_paths(wal_dir)[-1]
        data = bytearray(segment.read_bytes())
        # Flip one payload byte of the 3rd frame (open record is frame 1).
        frames = data.split(b"\n")
        offset = len(frames[0]) + len(frames[1]) + 2 + FRAME_HEADER_BYTES + 4
        data[offset] ^= 0xFF
        segment.write_bytes(bytes(data))
        state = read_wal(wal_dir)
        # Frames after the corrupted one are dropped too: prefix semantics.
        assert state.last_seq == 1
        assert state.torn["reason"] == "frame CRC mismatch"

    def test_garbage_header_reported(self, tmp_path):
        wal_dir = self._filled(tmp_path)
        segment = _segment_paths(wal_dir)[-1]
        segment.write_bytes(
            segment.read_bytes() + b"x" * (FRAME_HEADER_BYTES + 8)
        )
        assert read_wal(wal_dir).torn["reason"] == "unparseable frame header"

    def test_torn_middle_segment_drops_later_segments(self, tmp_path):
        with WriteAheadLog(
            tmp_path / "wal", config=CONFIG, segment_max_records=2
        ) as wal:
            wal.log_ops([_op(i) for i in range(6)])
        segments = _segment_paths(tmp_path / "wal")
        # Ops 1-2, 3-4, 5-6 plus the eagerly rotated-to empty tail segment.
        assert len(segments) == 4
        middle = segments[1]
        middle.write_bytes(middle.read_bytes()[:-5])
        state = read_wal(tmp_path / "wal")
        assert state.last_seq == 3  # seg1 holds ops 1-2, seg2's first op is 3
        assert state.torn["dropped_segments"] == [s.name for s in segments[2:]]

    def test_open_repairs_the_tear_and_appends_continue(self, tmp_path):
        wal_dir = self._filled(tmp_path)
        segment = _segment_paths(wal_dir)[-1]
        segment.write_bytes(segment.read_bytes()[:-9])
        with WriteAheadLog(wal_dir) as wal:
            assert wal.repaired is not None
            assert wal.repaired["reason"] == "truncated frame payload"
            assert wal.last_seq == 5
            assert wal.log_op(_op(99)) == 6
        state = read_wal(wal_dir)
        assert state.torn is None
        assert state.ops[-1][1] == _op(99)


class TestTruncate:
    def test_truncate_resets_segments_and_anchors_base_seq(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", config=CONFIG)
        wal.log_ops([_op(i) for i in range(4)])
        wal.truncate(config=CONFIG)
        assert wal.base_seq == 4
        assert len(_segment_paths(tmp_path / "wal")) == 1
        wal.log_op(_op(9))
        wal.close()
        state = read_wal(tmp_path / "wal")
        assert state.base_seq == 4
        assert state.ops == [(5, _op(9))]
        assert state.last_seq == 5

    def test_stats_report_lag_and_repairs(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", config=CONFIG)
        wal.log_ops([_op(i) for i in range(3)])
        stats = wal.stats()
        assert stats["lag_records"] == 3
        assert stats["segments"] == 1
        assert stats["bytes"] > 0
        assert stats["repaired_tail"] is None
        wal.truncate()
        assert wal.stats()["lag_records"] == 0
        wal.close()


class TestDurableSessions:
    def test_session_logs_fit_and_mutations(self, tmp_path):
        values = load_dataset("sn", size=60).raw
        session = OnlineSession(k=3, learning="fixed", learning_neighbors=3)
        session.attach_wal(
            WriteAheadLog(tmp_path / "wal", config=session.config_wire())
        )
        session.fit(values[:30])
        session.mutate([
            MutationOp.append(values[30:34]),
            MutationOp.delete([1, 5]),
            MutationOp.update(0, values[40]),
        ])
        session.close()
        state = read_wal(tmp_path / "wal")
        assert [op["op"] for _, op in state.ops] == [
            "append", "append", "delete", "update",
        ]
        assert session.stats()["wal"] is not None

    def test_save_truncates_and_recovery_skips_checkpointed_ops(self, tmp_path):
        from repro.api import recover_session

        values = load_dataset("sn", size=80).raw
        session = OnlineSession(k=3, learning="fixed", learning_neighbors=3)
        session.attach_wal(
            WriteAheadLog(tmp_path / "wal", config=session.config_wire())
        )
        session.fit(values[:40])
        session.save(tmp_path / "ckpt")
        assert session.wal.base_seq == 1
        session.mutate([MutationOp.append(values[40:44])])
        session.close()

        recovered, report = recover_session(
            tmp_path / "wal", checkpoint=tmp_path / "ckpt", reattach=False
        )
        assert report["replayed_ops"] == 1
        assert report["skipped_ops"] == 0  # truncation removed covered ops
        assert report["n_tuples"] == 44
        np.testing.assert_array_equal(
            recovered.engine.store_relation().raw,
            session.engine.store_relation().raw,
        )

    def test_checkpoint_without_truncation_skips_by_manifest_seq(self, tmp_path):
        """A checkpoint whose WAL survives whole replays only the tail."""
        from repro.api import recover_session

        values = load_dataset("sn", size=80).raw
        session = OnlineSession(k=3, learning="fixed", learning_neighbors=3)
        session.attach_wal(
            WriteAheadLog(tmp_path / "wal", config=session.config_wire())
        )
        session.fit(values[:40])
        # Snapshot through the engine directly: records wal.last_seq in the
        # manifest but does NOT truncate (models a copied-aside checkpoint).
        session.engine.snapshot(
            tmp_path / "ckpt",
            manifest_extra={"wal": {"last_seq": session.wal.last_seq}},
        )
        session.mutate([MutationOp.append(values[40:46])])
        session.close()

        recovered, report = recover_session(
            tmp_path / "wal", checkpoint=tmp_path / "ckpt", reattach=False
        )
        assert report["skipped_ops"] == 1  # the fit append is in the artifact
        assert report["replayed_ops"] == 1
        assert report["n_tuples"] == 46

    def test_truncated_wal_without_checkpoint_refuses(self, tmp_path):
        from repro.api import recover_session

        values = load_dataset("sn", size=60).raw
        session = OnlineSession(k=3, learning="fixed", learning_neighbors=3)
        session.attach_wal(
            WriteAheadLog(tmp_path / "wal", config=session.config_wire())
        )
        session.fit(values[:30])
        session.save(tmp_path / "ckpt")
        session.close()
        with pytest.raises(ConfigurationError, match="pass that"):
            recover_session(tmp_path / "wal")

    def test_recovery_reattaches_and_keeps_logging(self, tmp_path):
        from repro.api import recover_session

        values = load_dataset("sn", size=80).raw
        session = OnlineSession(k=3, learning="fixed", learning_neighbors=3)
        session.attach_wal(
            WriteAheadLog(tmp_path / "wal", config=session.config_wire())
        )
        session.fit(values[:40])
        session.close()
        recovered, _ = recover_session(tmp_path / "wal")
        recovered.mutate([MutationOp.append(values[40:42])])
        recovered.close()
        assert read_wal(tmp_path / "wal").last_seq == 2

    @pytest.mark.parametrize("knob, value", [
        pytest.param("delete_cost_mode", "decrement", id="delete_cost_mode"),
        pytest.param(
            "incremental_fallback_fraction", 0.9,
            id="incremental_fallback_fraction",
        ),
        pytest.param("shard_capacity", 4096, id="shard_capacity"),
        pytest.param("journal_capacity", 512, id="journal_capacity"),
        pytest.param("refresh_policy", "eager", id="refresh_policy"),
    ])
    def test_log_naming_a_removed_engine_knob_still_recovers(
        self, tmp_path, knob, value
    ):
        """A log whose open record carries an engine knob this build no
        longer has (in the config shape sessions logged before its
        removal) recovers without a checkpoint to a cold refit over the
        surviving rows; a ``create`` naming that knob is still refused."""
        import json

        from repro import IIMImputer
        from repro.api import SessionServer, recover_session
        from repro.data.relation import Relation

        values = load_dataset("sn", size=80).raw
        session = OnlineSession(
            k=3, learning="adaptive", stepping=2, max_learning_neighbors=8
        )
        logged = session.config_wire()
        logged["engine"][knob] = value
        wal = WriteAheadLog(tmp_path / "wal", config=logged)
        wal.log_op(MutationOp.append(values[:40]).to_wire())
        wal.log_op(MutationOp.update(3, values[50]).to_wire())
        wal.log_op(MutationOp.delete([0, 5]).to_wire())
        wal.commit()
        wal.close()

        recovered, report = recover_session(tmp_path / "wal", reattach=False)
        assert report["replayed_ops"] == 3 and report["checkpoint"] is None
        survivors = values[:40].copy()
        survivors[3] = values[50]
        survivors = np.delete(survivors, [0, 5], axis=0)
        np.testing.assert_array_equal(
            recovered.engine.store_relation().raw, survivors
        )
        queries = values[60:70].copy()
        queries[np.arange(10), np.arange(10) % values.shape[1]] = np.nan
        cold = IIMImputer(**logged["params"]).fit(Relation(survivors))
        np.testing.assert_allclose(
            recovered.impute(queries),
            cold.impute(Relation(queries)).raw,
            rtol=1e-9, atol=0,
        )

        server = SessionServer()
        response = server.handle_line(json.dumps({
            "v": 1, "cmd": "create", "session": "s",
            "config": {"method": "IIM", "mode": "online",
                       "engine": {knob: value}},
        }))
        assert response["error"]["code"] == "configuration"
        assert f"unknown engine knobs [{knob!r}]" in response["error"]["message"]
        server.close_sessions()
