"""Scripted REPL sessions over the in-process transport.

The REPL speaks the same JSONL protocol as any other client, so a
scripted stdin drives the full stack — create, append with missing
markers, multi-line SELECT, provenance, EXPLAIN, promotion — and stdout
stays machine-readable (prompts go to stderr).
"""

import io
import json
import re
import socket
import warnings

import pytest

from repro.api.repl import Repl, _InProcessTransport, _TcpTransport, run_repl
from repro.exceptions import ReproError


def _run_script(text, tmp_path, session=None):
    transport = _InProcessTransport(str(tmp_path))
    stdout = io.StringIO()
    repl = Repl(
        transport,
        stdin=io.StringIO(text),
        stdout=stdout,
        stderr=io.StringIO(),
        session=session,
    )
    try:
        code = repl.run()
    finally:
        transport.close()
    return code, stdout.getvalue(), repl


SCRIPT = """\
\\create s k=3 learning=fixed learning_neighbors=3
APPEND VALUES (1.0, 2.0, 3.0), (1.1, 2.1, 3.1), (0.9, 1.9, 2.9),
              (1.2, 2.2, 3.2), (1.05, 2.05, 3.05), (0.95, 1.95, 2.95);
APPEND VALUES (1.02, ?, 3.02), (?, 2.12, 3.12);
\\schema
\\sessions
SELECT A1, A2
  WHERE A1 > 0.9
  ORDER BY A2 DESC
  LIMIT 4;
\\provenance
EXPLAIN SELECT count(*), avg(A2);
IMPUTE;
SELECT count(*);
\\quit
"""


class TestScriptedSession:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        return _run_script(SCRIPT, tmp_path_factory.mktemp("repl"))

    def test_exits_cleanly_with_no_typed_errors(self, run):
        code, out, _ = run
        assert code == 0
        assert "error" not in out

    def test_create_schema_and_sessions_render(self, run):
        _, out, _ = run
        assert "session 's' created" in out
        assert "schema of 's': A1, A2, A3 (8 row(s) live)" in out
        assert "* s  kind=online method=IIM" in out

    def test_select_imputes_on_demand_and_renders_rows(self, run):
        _, out, _ = run
        assert "(4 row(s); 8 scanned, 2 row(s) imputed on demand)" in out
        assert "-- 2 cell(s) carry provenance" in out

    def test_provenance_json_carries_the_contract_fields(self, run):
        _, out, repl = run
        provenance = repl.last_result["provenance"]
        # \provenance printed the same payload as JSON
        assert json.dumps(provenance, indent=2) in out
        # but last_result was then replaced by the later SELECT count(*)
        cells = json.loads(
            out[out.index("[\n") : out.index("\n]") + 2]
        )
        assert {(c["row"], c["attribute"]) for c in cells} == {
            (6, "A2"), (7, "A1"),
        }
        for cell in cells:
            for field in ("value", "method", "combination", "k", "neighbors",
                          "distances", "weights", "learning_neighbors",
                          "confidence", "trace_id"):
                assert field in cell, field
            assert cell["method"] == "IIM"
            assert len(cell["neighbors"]) == cell["k"] == 3

    def test_explain_prints_the_plan(self, run):
        _, out, _ = run
        assert '"kind": "aggregate"' in out
        assert '"referenced_attributes"' in out

    def test_impute_promotes_and_counts_stay_consistent(self, run):
        _, out, _ = run
        assert "impute: rows_promoted=2, n_pending=0" in out
        # final count: 6 complete + 2 promoted
        assert "count(*)\n8\n" in out


class TestReplDiscipline:
    def test_statement_without_a_session_is_a_local_error(self, tmp_path):
        code, out, _ = _run_script("SELECT A1;\n", tmp_path)
        assert code == 0
        assert "error [repl]: no session selected" in out

    def test_server_errors_surface_typed_not_raised(self, tmp_path):
        script = (
            "\\create s k=3 learning=fixed learning_neighbors=3\n"
            "APPEND (1.0, 2.0), (1.1, 2.1), (0.9, 1.9), (1.2, 2.2);\n"
            "SELECT A9;\n"
            "SELECT A1;\n"
        )
        code, out, _ = _run_script(script, tmp_path)
        assert code == 0
        assert "error [query]: unknown attribute 'A9'" in out
        assert "(4 row(s); 4 scanned, 0 row(s) imputed on demand)" in out

    def test_unterminated_statement_fails_at_eof(self, tmp_path):
        script = (
            "\\create s k=3 learning=fixed learning_neighbors=3\n"
            "SELECT A1\n"
        )
        code, out, _ = _run_script(script, tmp_path)
        assert code == 1
        assert "unterminated statement at EOF" in out

    def test_unknown_meta_command_is_reported(self, tmp_path):
        code, out, _ = _run_script("\\frobnicate\n\\quit\n", tmp_path)
        assert code == 0
        assert "unknown meta-command \\frobnicate" in out

    def test_help_prints_the_meta_table(self, tmp_path):
        code, out, _ = _run_script("\\help\n", tmp_path)
        assert code == 0
        assert "\\provenance" in out and "\\sessions" in out

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        script = "-- a comment\n\n\\sessions\n\\quit\n"
        code, out, _ = _run_script(script, tmp_path)
        assert code == 0
        assert "no live sessions" in out

    def test_bad_connect_spec_is_a_typed_error(self):
        with pytest.raises(ReproError, match="HOST:PORT"):
            run_repl("nonsense")
        with pytest.raises(ReproError, match="HOST:PORT"):
            run_repl(":7000")

    def test_unreachable_server_is_a_typed_error(self):
        with pytest.raises(ReproError, match="cannot connect"):
            run_repl("127.0.0.1:1")

    def test_a_connection_the_server_dropped_is_a_typed_error(self):
        """A socket error mid-session (a reset, a broken pipe) is the
        server's failure, not stdout's: it surfaces as a typed error."""
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            transport = _TcpTransport(*listener.getsockname())
            accepted, _ = listener.accept()
            accepted.close()
            for _ in range(3):  # closed, then reset or broken pipe
                with pytest.raises(ReproError):
                    transport.request({"v": 1, "cmd": "ping"})
            transport.close()  # the unsent request is dropped quietly


class TestCreateParams:
    def test_none_booleans_and_engine_knobs_reach_the_session(self, tmp_path):
        script = (
            "\\create s k=3 learning=adaptive max_learning_neighbors=none "
            "incremental=false model_cache_size=none\n"
        )
        code, out, repl = _run_script(script, tmp_path)
        assert code == 0 and "error" not in out, out
        engine = repl.transport._server.sessions["s"].engine
        assert engine.imputer.max_learning_neighbors is None
        assert engine.imputer.incremental is False
        assert engine.model_cache_size is None

    def test_a_token_without_a_value_is_a_local_error(self, tmp_path):
        code, out, _ = _run_script("\\create s k3\n\\sessions\n", tmp_path)
        assert code == 0
        assert "error [repl]: expected key=value, got 'k3'" in out
        assert "no live sessions" in out


class TestSaveRestore:
    SCRIPT = """\
\\create s k=3 learning=fixed learning_neighbors=3
APPEND VALUES (1.0, 2.0, 3.0), (1.1, 2.1, 3.1), (0.9, 1.9, 2.9),
              (1.2, 2.2, 3.2), (1.05, 2.05, 3.05);
\\save snap
\\restore t snap
\\sessions
SELECT count(*);
APPEND VALUES (0.95, 1.95, 2.95);
SELECT count(*);
\\use s
SELECT count(*);
"""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("artifacts")
        return root, _run_script(self.SCRIPT, root)

    def test_save_then_restore_round_trips_a_session(self, run):
        root, (code, out, repl) = run
        assert code == 0 and "error" not in out, out
        assert f"session 's' saved to {root / 'snap'}" in out
        assert "session 't' restored (online IIM); now current" in out
        # t starts with s's 5 rows, then grows alone; s keeps its 5
        counts = re.findall(r"^count\(\*\)\n(\d+)$", out, re.MULTILINE)
        assert counts == ["5", "6", "5"]
        sessions = repl.transport._server.sessions
        assert sessions["t"].engine.n_tuples == 6
        assert sessions["s"].engine.n_tuples == 5

    def test_restore_makes_the_session_current(self, run):
        _, (_, out, repl) = run
        assert "  s  kind=online" in out and "* t  kind=online" in out
        assert repl.session == "s"  # the later \use switched back

    def test_save_needs_a_session_and_restore_needs_two_arguments(self, tmp_path):
        code, out, _ = _run_script("\\save snap\n\\restore t\n", tmp_path)
        assert code == 0
        assert "error [repl]: no session selected to save" in out
        assert "error [repl]: \\restore needs a session name and an" in out


#: A lifecycle trace in the statement language: data verbs and queries in
#: one script, after the ``\create`` that picks the model.
STATEMENT_SCRIPT = """\
\\create s k=3 learning=fixed learning_neighbors=3
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


class TestStatementScripts:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return _run_script(
                STATEMENT_SCRIPT, tmp_path_factory.mktemp("statements")
            )

    def test_statement_trace_does_not_warn(self, run):
        # warnings escalate to errors while the script runs; one would
        # surface as an exception or a typed error line
        code, out, _ = run
        assert code == 0 and "error" not in out, out

    def test_replays_a_statement_trace(self, run):
        _, out, repl = run
        answers = re.findall(
            r"^(?:append|update|impute|delete): |^\(\d+ row\(s\); ",
            out, flags=re.MULTILINE,
        )
        assert len(answers) == 7, out
        assert "1 row(s) imputed on demand)" in out  # the on-demand SELECT
        assert "impute: rows_promoted=1, n_pending=0" in out
        assert re.search(r"^count\(\*\)  avg\(A1\)\n6  ", out, re.MULTILINE)
        engine = repl.transport._server.sessions["s"].engine
        assert (engine.n_tuples, engine.n_pending) == (6, 0)
