"""Tests for the consolidated CLI (``python -m repro``)."""

import warnings

import pytest

from repro import config
from repro.__main__ import main as repro_main
from repro.api import serve as serve_module
from repro.data import load_dataset
from repro.data.io import read_csv, write_csv
from repro.data.missing import inject_missing
from repro.obs import get_tracer
from repro.online import cli as replay_cli


@pytest.fixture
def dirty_csv(tmp_path):
    relation = load_dataset("asf", size=80)
    injection = inject_missing(relation, fraction=0.05, random_state=0)
    path = tmp_path / "dirty.csv"
    write_csv(injection.dirty, path)
    return path


class TestImputeSubcommand:
    def test_imputes_a_csv_end_to_end(self, dirty_csv, tmp_path, capsys):
        out = tmp_path / "clean.csv"
        code = repro_main([
            "impute", str(dirty_csv), "--method", "kNN", "--set", "k=4",
            "--output", str(out),
        ])
        assert code == 0
        assert "imputed" in capsys.readouterr().out
        cleaned = read_csv(out)
        assert cleaned.n_missing_cells == 0

    def test_unknown_method_fails_with_suggestion(self, dirty_csv, capsys):
        code = repro_main(["impute", str(dirty_csv), "--method", "knnn"])
        assert code == 2
        assert "did you mean" in capsys.readouterr().err

    def test_unknown_override_fails_early(self, dirty_csv, capsys):
        code = repro_main([
            "impute", str(dirty_csv), "--method", "kNN", "--set", "neighbors=4",
        ])
        assert code == 2
        assert "neighbors" in capsys.readouterr().err

    def test_complete_relation_is_a_noop(self, tmp_path, capsys):
        relation = load_dataset("sn", size=30)
        path = tmp_path / "complete.csv"
        write_csv(relation, path)
        assert repro_main(["impute", str(path), "--method", "Mean"]) == 0
        assert "nothing to impute" in capsys.readouterr().out


class TestReplaySubcommand:
    def test_forwards_to_the_trace_replay(self, capsys):
        code = repro_main([
            "replay", "--demo", "60", "--dataset", "sn", "--k", "3",
            "--learning", "fixed", "--learning-neighbors", "3",
        ])
        assert code == 0
        assert "store holds" in capsys.readouterr().out

    def test_replay_does_not_warn(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            repro_main([
                "replay", "--demo", "40", "--dataset", "sn", "--k", "3",
                "--learning", "fixed", "--learning-neighbors", "3",
            ])
        capsys.readouterr()
        assert not [
            entry for entry in caught
            if issubclass(entry.category, DeprecationWarning)
        ]


STATEMENT_TRACE = """\
-- a statement trace: data verbs and queries in one script
APPEND VALUES (1.0, 2.0, 3.0), (1.1, 2.1, 3.1), (0.9, 1.9, 2.9),
              (1.2, 2.2, 3.2), (1.05, 2.05, 3.05), (0.95, 1.95, 2.95);
APPEND (1.02, ?, 3.02);
SELECT A1, A2 WHERE A1 > 0.9 ORDER BY A2 DESC LIMIT 3;
UPDATE 0 SET A1 = 1.01;
IMPUTE;
DELETE 1;
SELECT count(*), avg(A1);
"""

MODEL_ARGS = ["--k", "3", "--learning", "fixed", "--learning-neighbors", "3"]


class TestStatementTraceReplay:
    def test_replays_a_statement_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.sql"
        trace.write_text(STATEMENT_TRACE)
        assert repro_main(["replay", str(trace)] + MODEL_ARGS) == 0
        out = capsys.readouterr().out
        assert "replayed 7 statements" in out
        assert "1 imputed on demand)" in out  # the on-demand SELECT
        assert "rows_promoted=1" in out
        assert "store holds 6 tuples (0 pending)" in out

    def test_detection_survives_comments_and_case(self, tmp_path, capsys):
        trace = tmp_path / "trace.sql"
        trace.write_text(
            "-- header comment\n\nappend (1.0, 2.0), (1.5, 2.5);\n",
            encoding="utf-8",
        )
        assert repro_main(["replay", str(trace)] + MODEL_ARGS) == 0
        assert "replayed 1 statements" in capsys.readouterr().out

    def test_plain_csv_is_not_mistaken_for_statements(self, tmp_path, capsys):
        relation = load_dataset("sn", size=40)
        injection = inject_missing(relation, fraction=0.1, random_state=1)
        trace = tmp_path / "rows.csv"
        write_csv(injection.dirty, trace)
        assert repro_main(["replay", str(trace)] + MODEL_ARGS) == 0
        out = capsys.readouterr().out
        assert "store holds" in out and "replayed" not in out

    def test_statement_trace_does_not_warn(self, tmp_path, capsys):
        trace = tmp_path / "trace.sql"
        trace.write_text("APPEND (1.0, 2.0), (2.0, 3.0);\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert repro_main(["replay", str(trace)] + MODEL_ARGS) == 0
        capsys.readouterr()
        assert not [
            entry for entry in caught
            if issubclass(entry.category, DeprecationWarning)
        ]


class TestRecoverSubcommand:
    @pytest.fixture
    def crashed_wal(self, tmp_path):
        """A WAL left behind by a session that never checkpointed."""
        from repro.api import MutationOp, OnlineSession
        from repro.reliability import WriteAheadLog

        values = load_dataset("sn", size=60).raw
        session = OnlineSession(k=3, learning="fixed", learning_neighbors=3)
        session.attach_wal(
            WriteAheadLog(tmp_path / "wal", config=session.config_wire())
        )
        session.fit(values[:40])
        session.mutate([MutationOp.append(values[40:44])])
        session.close()
        return tmp_path / "wal"

    def test_recovers_and_reports(self, crashed_wal, capsys):
        assert repro_main(["recover", str(crashed_wal)]) == 0
        out = capsys.readouterr().out
        assert "replayed 2 WAL op(s)" in out
        assert "44 tuples live" in out

    def test_json_report(self, crashed_wal, capsys):
        import json

        assert repro_main(["recover", str(crashed_wal), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["replayed_ops"] == 2
        assert report["n_tuples"] == 44
        assert report["torn_tail"] is None

    def test_output_writes_checkpoint_and_truncates(self, crashed_wal, tmp_path, capsys):
        from repro.api import restore_session
        from repro.reliability import read_wal

        ckpt = tmp_path / "ckpt"
        assert repro_main([
            "recover", str(crashed_wal), "--output", str(ckpt),
        ]) == 0
        assert "fresh checkpoint" in capsys.readouterr().out
        session = restore_session(ckpt)
        assert session.stats()["n_tuples"] == 44
        state = read_wal(crashed_wal)
        assert state.base_seq == 2 and not state.ops

    def test_missing_wal_dir_fails_cleanly(self, tmp_path, capsys):
        assert repro_main(["recover", str(tmp_path / "nowhere")]) == 2
        assert "no WAL directory" in capsys.readouterr().err


class TestBareInvocation:
    def test_no_subcommand_prints_help(self, capsys):
        assert repro_main([]) == 2
        assert "impute" in capsys.readouterr().out


#: A non-default flag value of every generated knob flag and its parsed value.
FLAG_VALUES = {
    "wal_sync": ("off", "off"),
    "deadline_seconds": ("5", 5.0),
    "max_request_bytes": ("none", None),
    "workers": ("2", 2),
    "microbatch_window_ms": ("1.5", 1.5),
    "microbatch_max_rows": ("16", 16),
    "max_rows_per_request": ("100", 100),
    "max_sessions": ("3", 3),
    "max_queued_requests": ("8", 8),
    "trace_sample": ("0.5", 0.5),
    "model_cache_size": ("none", None),
    "refresh_policy": ("eager", "eager"),
}


def _flags(names):
    argv = []
    for name in names:
        assert FLAG_VALUES[name][1] != config.KNOBS[name].default, name
        argv += [config.KNOBS[name].flag, FLAG_VALUES[name][0]]
    return argv


class TestKnobFlags:
    @pytest.fixture
    def served(self, monkeypatch):
        """Servers handed to the stdio transport, which is stubbed out."""
        servers = []
        monkeypatch.setattr(
            serve_module, "serve_stdio",
            lambda server: servers.append(server) or 0,
        )
        tracer = get_tracer()
        pinned = tracer._sample
        yield servers
        tracer._sample = pinned  # --trace-sample pins the process tracer

    def test_serve_flags_reach_the_server(self, served):
        assert repro_main(["serve", *_flags(config.SERVE_KNOBS)]) == 0
        (server,) = served
        health = server.handle_line('{"v": 1, "cmd": "health"}')["result"]
        for name in config.SERVE_KNOBS:
            key = "serve_workers" if name == "workers" else name
            assert health["config"][key] == FLAG_VALUES[name][1], name

    def test_replay_flags_reach_the_engine(self, monkeypatch, capsys):
        engines = []
        build = replay_cli._build_engine
        monkeypatch.setattr(
            replay_cli, "_build_engine",
            lambda args: engines.append(build(args)) or engines[-1],
        )
        code = repro_main([
            "replay", "--demo", "30", "--dataset", "sn", "--k", "3",
            "--learning", "fixed", "--learning-neighbors", "3",
            *_flags(config.ENGINE_KNOBS),
        ])
        assert code == 0
        (engine,) = engines
        for name in config.ENGINE_KNOBS:
            assert getattr(engine, name) == FLAG_VALUES[name][1], name

    def test_bad_serve_knob_is_one_error_line(self, served, capsys):
        assert repro_main(["serve", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "workers" in err and not served
