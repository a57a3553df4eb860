"""Interactive query REPL over the JSONL session protocol.

``python -m repro repl`` reads statements from stdin — buffered across
lines until a ``;`` — and executes them through the same wire protocol
the serve loop speaks: by default against an in-process
:class:`~repro.api.serve.SessionServer`, or against a live TCP server
with ``--connect HOST:PORT``.  Every statement rides a ``query`` request,
so quotas, auth and quarantine discipline apply exactly as they would to
any other client.  A failing statement prints a typed ``error [...]`` line
and a script goes on.

Lines starting with ``\\`` are meta-commands handled locally:

========================  =================================================
``\\create NAME``          create an online session (``key=value`` IIM
                          params after the name, e.g. ``\\create s k=5
                          learning=fixed learning_neighbors=4``;
                          ``model_cache_size`` and ``refresh_policy`` set
                          the session's engine knobs) and switch to it
``\\use NAME``             switch to an existing session
``\\save PATH``            save the current session's artifact to PATH
``\\restore NAME PATH``    restore the artifact at PATH as session NAME and
                          switch to it
``\\sessions``             list the server's live sessions
``\\schema``               the current session's attributes (via
                          ``EXPLAIN``)
``\\provenance``           the imputed-cell provenance of the last SELECT,
                          as JSON
``\\help``                 this table
``\\quit``                 leave (EOF works too)
========================  =================================================

Prompts go to stderr so a scripted run (``python -m repro repl <
session.sql``) leaves stdout machine-readable.
"""

from __future__ import annotations

import json
import math
import socket
import sys
from typing import Dict, List, Optional, TextIO

from ..config import ENGINE_KNOBS
from ..exceptions import ReproError
from .messages import parse_override

__all__ = ["Repl", "run_repl"]

PROMPT = "repro> "
CONTINUATION = "  ...> "


class _InProcessTransport:
    """A private SessionServer answering requests synchronously."""

    def __init__(self, artifact_root: str = "."):
        from .serve import SessionServer

        self._server = SessionServer(artifact_root)

    def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        reply = self._server.handle_line(json.dumps(payload))
        return reply if isinstance(reply, dict) else json.loads(reply)

    def close(self) -> None:
        self._server.close_sessions()


class _TcpTransport:
    """One JSONL connection to a running ``python -m repro serve --port``."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        try:
            self._conn = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ReproError(f"cannot connect to {host}:{port}: {exc}") from exc
        self._stream = self._conn.makefile("rw", encoding="utf-8")

    def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        try:
            self._stream.write(json.dumps(payload) + "\n")
            self._stream.flush()
            line = self._stream.readline()
        except OSError as exc:  # a socket's BrokenPipeError is not stdout's
            raise ReproError(
                f"the connection to the server failed: {exc}"
            ) from exc
        if not line:
            raise ReproError("the server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        try:
            self._stream.close()
        except OSError:
            pass  # a dropped connection cannot take the unsent request
        finally:
            self._conn.close()


def _format_cell(value) -> str:
    if value is None:
        return "?"
    if isinstance(value, float) and math.isnan(value):
        return "?"
    return f"{value:.6g}"


class Repl:
    """The REPL state machine (transport-agnostic, testable in-process)."""

    def __init__(
        self,
        transport,
        *,
        stdin: Optional[TextIO] = None,
        stdout: Optional[TextIO] = None,
        stderr: Optional[TextIO] = None,
        token: Optional[str] = None,
        session: Optional[str] = None,
        interactive: Optional[bool] = None,
    ):
        self.transport = transport
        self.stdin = stdin if stdin is not None else sys.stdin
        self.stdout = stdout if stdout is not None else sys.stdout
        self.stderr = stderr if stderr is not None else sys.stderr
        self.token = token
        self.session = session
        #: The last successful query result payload (``\provenance`` reads it).
        self.last_result: Optional[Dict[str, object]] = None
        self._next_id = 0

    # ------------------------------------------------------------------ #
    # wire plumbing
    # ------------------------------------------------------------------ #
    def _request(self, **payload) -> Optional[Dict[str, object]]:
        """Send one request; print a typed error and return None on failure."""
        self._next_id += 1
        payload.setdefault("v", 1)
        payload.setdefault("id", self._next_id)
        if self.token is not None:
            payload.setdefault("token", self.token)
        reply = self.transport.request(payload)
        if reply.get("ok"):
            return reply.get("result", {})
        error = reply.get("error", {})
        self._print(
            f"error [{error.get('code', 'unknown')}]: "
            f"{error.get('message', reply)}"
        )
        return None

    def _print(self, text: str) -> None:
        self.stdout.write(text + "\n")

    # ------------------------------------------------------------------ #
    # meta-commands
    # ------------------------------------------------------------------ #
    def _meta(self, line: str) -> bool:
        """Handle one ``\\``-command; False means quit."""
        parts = line[1:].split()
        command = parts[0].lower() if parts else "help"
        if command in ("quit", "q", "exit"):
            return False
        if command in ("help", "h", ""):
            self._print(__doc__.split("meta-commands handled locally:")[1])
        elif command == "sessions":
            result = self._request(cmd="sessions")
            if result is not None:
                sessions = result.get("sessions", [])
                if not sessions:
                    self._print("no live sessions (\\create one)")
                for entry in sessions:
                    marker = "*" if entry["session"] == self.session else " "
                    self._print(
                        f"{marker} {entry['session']}  kind={entry['kind']} "
                        f"method={entry['method']} durable={entry['durable']}"
                    )
        elif command == "create":
            if len(parts) < 2:
                self._print("error [repl]: \\create needs a session name")
                return True
            try:
                params = dict(parse_override(part) for part in parts[2:])
            except ReproError as exc:
                self._print(f"error [repl]: {exc}")
                return True
            engine = {
                key: params.pop(key) for key in ENGINE_KNOBS if key in params
            }
            method = params.pop("method", "IIM")
            mode = params.pop("mode", "online")
            result = self._request(
                cmd="create", session=parts[1],
                config={"method": method, "mode": mode, "params": params,
                        "engine": engine},
            )
            if result is not None:
                self.session = parts[1]
                self._print(
                    f"session {parts[1]!r} created ({result.get('kind')} "
                    f"{result.get('method')}); now current"
                )
        elif command == "save":
            if len(parts) != 2:
                self._print("error [repl]: \\save needs an artifact path")
            elif self.session is None:
                self._print("error [repl]: no session selected to save")
            else:
                result = self._request(
                    cmd="save", session=self.session, path=parts[1]
                )
                if result is not None:
                    self._print(
                        f"session {self.session!r} saved to {result['path']}"
                    )
        elif command == "restore":
            if len(parts) != 3:
                self._print(
                    "error [repl]: \\restore needs a session name and an "
                    "artifact path"
                )
                return True
            result = self._request(
                cmd="restore", session=parts[1], path=parts[2]
            )
            if result is not None:
                self.session = parts[1]
                self._print(
                    f"session {parts[1]!r} restored ({result.get('kind')} "
                    f"{result.get('method')}); now current"
                )
        elif command == "use":
            if len(parts) != 2:
                self._print("error [repl]: \\use needs a session name")
            else:
                self.session = parts[1]
                self._print(f"current session: {parts[1]!r}")
        elif command == "schema":
            result = self._query_request("EXPLAIN SELECT *")
            if result is not None:
                columns = result.get("plan", {}).get("columns", [])
                self._print(
                    f"schema of {self.session!r}: {', '.join(columns)} "
                    f"({result.get('rows_scanned', 0)} row(s) live)"
                )
        elif command == "provenance":
            if self.last_result is None:
                self._print("error [repl]: no query has run yet")
            else:
                self._print(json.dumps(
                    self.last_result.get("provenance", []), indent=2
                ))
        else:
            self._print(
                f"error [repl]: unknown meta-command \\{command} "
                f"(\\help lists them)"
            )
        return True

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #
    def _query_request(self, text: str) -> Optional[Dict[str, object]]:
        if self.session is None:
            self._print(
                "error [repl]: no session selected; \\create NAME or "
                "\\use NAME first"
            )
            return None
        return self._request(cmd="query", session=self.session, q=text)

    def _execute(self, text: str) -> None:
        result = self._query_request(text)
        if result is None:
            return
        kind = result.get("kind")
        if kind in ("select", "explain"):
            self.last_result = result
            self._render_query(result)
        else:
            detail = ", ".join(
                f"{key}={value}"
                for key, value in result.items()
                if key != "kind"
            )
            self._print(f"{kind}: {detail}")

    def _render_query(self, result: Dict[str, object]) -> None:
        if result["kind"] == "explain":
            self._print(json.dumps(result["plan"], indent=2))
            return
        columns: List[str] = list(result.get("columns", []))
        rows = result.get("rows", [])
        indices = result.get("row_indices", [])
        self._print("  ".join(columns))
        for position, row in enumerate(rows):
            prefix = f"[{indices[position]}] " if indices else ""
            self._print(prefix + "  ".join(_format_cell(v) for v in row))
        imputed = result.get("rows_imputed", 0)
        footer = (
            f"({len(rows)} row(s); {result.get('rows_scanned', 0)} scanned, "
            f"{imputed} row(s) imputed on demand)"
        )
        self._print(footer)
        provenance = result.get("provenance", [])
        if provenance:
            self._print(
                f"-- {len(provenance)} cell(s) carry provenance "
                f"(\\provenance shows them)"
            )

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #
    def run(self) -> int:
        interactive = self.stdin.isatty() if hasattr(self.stdin, "isatty") \
            else False
        buffer: List[str] = []
        while True:
            if interactive:
                self.stderr.write(CONTINUATION if buffer else PROMPT)
                self.stderr.flush()
            line = self.stdin.readline()
            if not line:
                break
            stripped = line.strip()
            if not buffer:
                if not stripped or stripped.startswith("--"):
                    continue
                if stripped.startswith("\\"):
                    if not self._meta(stripped):
                        break
                    continue
            buffer.append(line)
            if stripped.endswith(";"):
                text = "".join(buffer)
                buffer = []
                self._execute(text)
        if buffer:
            self._print(
                "error [repl]: unterminated statement at EOF (end it "
                "with ';')"
            )
            return 1
        return 0


def run_repl(
    connect: Optional[str] = None,
    *,
    artifact_root: str = ".",
    token: Optional[str] = None,
    session: Optional[str] = None,
) -> int:
    """CLI entry point: build a transport, run the loop, clean up."""
    if connect:
        host, _, port_text = connect.rpartition(":")
        if not host or not port_text.isdigit():
            raise ReproError(
                f"--connect expects HOST:PORT, got {connect!r}"
            )
        transport = _TcpTransport(host, int(port_text))
        where = f"TCP server {connect}"
    else:
        transport = _InProcessTransport(artifact_root)
        where = "in-process server"
    repl = Repl(transport, token=token, session=session)
    if repl.stdin.isatty():
        repl.stderr.write(
            f"repro query REPL — {where}; statements end with ';', "
            f"\\help lists meta-commands\n"
        )
    try:
        return repl.run()
    finally:
        transport.close()
