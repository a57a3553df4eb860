"""Tests for the consolidated CLI (``python -m repro``)."""

import hashlib
import json
import os
import sys

import pytest

from repro import config
from repro.__main__ import main as repro_main
from repro.api import serve as serve_module
from repro.data import load_dataset
from repro.data.io import read_csv, write_csv
from repro.data.missing import inject_missing
from repro.obs import get_tracer


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

    def test_replay_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            repro_main(["replay", "trace.csv"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestScenarioSubcommand:
    @pytest.mark.parametrize("command", ["describe", "trace", "replay"])
    def test_a_name_with_spec_is_a_usage_error(self, command, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "from_file", "generator": "streaming",
            "params": {"size": 40, "n_rounds": 1},
        }))
        with pytest.raises(SystemExit) as exit_info:
            repro_main(["scenario", command, "gentle_churn", "--spec", str(spec)])
        assert exit_info.value.code == 2
        assert "not both" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["describe", "trace", "replay"])
    def test_neither_name_nor_spec_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            repro_main(["scenario", command])
        assert exit_info.value.code == 2
        assert "is required" in capsys.readouterr().err

    def test_an_unreadable_spec_is_one_error_line(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert repro_main(["scenario", "replay", "--spec", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read scenario spec") and (
            err.count("\n") == 1
        ), err

    def test_replays_a_pinned_csv_against_the_oracle(self, tmp_path, capsys):
        data = tmp_path / "sn.csv"
        write_csv(load_dataset("sn", size=60), data)
        digest = hashlib.sha256(data.read_bytes()).hexdigest()
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "pinned_csv", "generator": "churn",
            "params": {"dataset": f"{data}#sha256={digest}", "n_rounds": 2},
            "model": {"k": 3, "learning": "fixed", "learning_neighbors": 3},
        }))
        report = tmp_path / "report.json"
        assert repro_main([
            "scenario", "replay", "--spec", str(spec), "--transport", "engine",
            "--output", str(report),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert payload["verified"] is True and payload["max_abs_diff"] == 0.0


#: A non-default flag value of every generated knob flag and its parsed value.
FLAG_VALUES = {
    "wal_sync": ("off", "off"),
    "deadline_seconds": ("5", 5.0),
    "max_request_bytes": ("none", None),
    "microbatch_window_ms": ("1.5", 1.5),
    "microbatch_max_rows": ("16", 16),
    "max_rows_per_request": ("100", 100),
    "max_sessions": ("3", 3),
    "max_queued_requests": ("8", 8),
    "trace_sample": ("0.5", 0.5),
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
            assert health["config"][name] == FLAG_VALUES[name][1], name

    def test_bad_serve_knob_is_one_error_line(self, served, capsys):
        assert repro_main(["serve", "--microbatch-max-rows", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "microbatch_max_rows" in err and not served

    def test_workers_is_accepted_hidden_and_ignored(self, served, capsys):
        """The benchmark's server launcher still passes ``--workers 4``."""
        assert repro_main(["serve", "--workers", "0"]) == 0
        (server,) = served
        health = server.handle_line('{"v": 1, "cmd": "health"}')["result"]
        assert "serve_workers" not in health["config"]
        assert "workers" not in health["scheduler"]
        with pytest.raises(SystemExit):
            repro_main(["serve", "--help"])
        assert "--workers" not in capsys.readouterr().out


def test_a_closed_stdout_exits_quietly(monkeypatch, capsys):
    """``python -m repro ... | head -1``: once the reader of stdout is gone,
    the command exits 1 without a traceback, and stdout points at devnull
    so the interpreter's final flush cannot fail again."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    stdout = os.fdopen(write_end, "w", buffering=1)
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        with pytest.raises(BrokenPipeError):
            print("a line the closed pipe refuses")
        assert repro_main(["scenario", "list"]) == 1
        print("later output goes to devnull")
        stdout.flush()
    finally:
        monkeypatch.undo()
        stdout.close()
    assert capsys.readouterr().err == ""
