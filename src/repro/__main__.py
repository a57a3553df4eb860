"""The consolidated command-line interface: ``python -m repro``.

Six subcommands front the whole library through the :mod:`repro.api`
service layer (benchmarks live in ``benchmarks/``, not here):

* ``impute`` — one-shot batch imputation of a CSV file with any registry
  method (``python -m repro impute dirty.csv --method IIM --output clean.csv``);
* ``serve`` — the JSONL serve loop over stdio or a TCP socket
  (``python -m repro serve --stdio``, ``python -m repro serve --port 7007``),
  with crash-safe durability via ``--wal-dir`` and request hardening via
  ``--deadline`` / ``--max-request-bytes``;
* ``repl`` — an interactive query shell, in process or against a running
  server (``python -m repro repl --connect HOST:PORT``); it also runs
  statement scripts (``python -m repro repl < churn.sql``);
* ``recover`` — rebuild an online session from a write-ahead log (plus the
  last checkpoint, when one exists) after a crash, and optionally write a
  fresh checkpoint (``python -m repro recover wal/s --output ckpt``);
* ``metrics-dump`` — print the standard metric catalogue of the
  observability layer (``python -m repro metrics-dump --format
  prometheus``), zero-valued in a fresh process — the reference for what a
  live ``metrics`` serve command can return;
* ``scenario`` — the parametric workload registry: ``scenario list`` the
  built-in specs, ``scenario describe NAME`` one spec and its generator's
  parameter schema, ``scenario replay NAME`` a spec through the engine or
  the full serve loop with cold-refit verification, and ``scenario trace
  NAME`` the deterministic trace digest (``--output`` writes the canonical
  trace bytes).  A spec's ``dataset`` may name a CSV file pinned by its
  sha256 (``PATH#sha256=HEX``), so user data replays against the oracle too.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import config
from .exceptions import ReproError

PROG = "python -m repro"


def _cmd_impute(args) -> int:
    from .api import BatchSession
    from .api.messages import parse_override
    from .data.io import read_csv, write_csv

    overrides = dict(parse_override(token) for token in args.set or [])
    session = BatchSession(args.method, **overrides)
    relation = read_csv(args.csv, has_header=not args.no_header)
    if relation.n_missing_cells == 0:
        print(f"{args.csv}: no missing cells; nothing to impute")
        imputed = relation
    else:
        session.fit(relation)
        imputed = session.impute_relation(relation)
    stats = session.stats()
    print(
        f"method {stats['method']} imputed {stats['counters']['imputed_cells']} "
        f"cells across {relation.n_tuples} tuples "
        f"(fitted on {stats['n_tuples']} complete tuples)"
    )
    if args.output:
        write_csv(imputed, args.output)
        print(f"imputed relation written to {args.output}")
    return 0


def _cmd_serve(args) -> int:
    from .api.serve import SessionServer, serve_stdio, serve_tcp

    # Wire-supplied save/restore paths are confined to the artifact root
    # (default: the working directory) so clients cannot touch the rest of
    # the filesystem.
    server = SessionServer(
        artifact_root=args.artifact_root,
        wal_root=args.wal_dir,
        trace_log=args.trace_log,
        auth_token=args.auth_token,
        **{name: getattr(args, name) for name in config.SERVE_KNOBS},
    )
    if args.port is not None:
        print(
            f"serving JSONL sessions on {args.host}:{args.port} "
            f"(send {{\"cmd\": \"shutdown\"}} to stop)",
            file=sys.stderr,
        )
        return serve_tcp(args.host, args.port, server)
    return serve_stdio(server=server)


def _cmd_repl(args) -> int:
    from .api.repl import run_repl

    return run_repl(
        args.connect,
        artifact_root=args.artifact_root,
        token=args.auth_token,
        session=args.session,
    )


def _cmd_recover(args) -> int:
    from .api.sessions import recover_session

    session, report = recover_session(
        args.wal_dir,
        checkpoint=args.checkpoint,
        # Recovery only reads; reattach the WAL solely when we are about
        # to checkpoint (--output), which truncates it afterwards.
        reattach=args.output is not None,
    )
    if args.output is not None:
        report["output"] = str(session.save(args.output))
        session.close()
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    print(
        f"recovered session from {args.wal_dir}: replayed "
        f"{report['replayed_ops']} WAL op(s) "
        f"(skipped {report['skipped_ops']} already in the checkpoint) "
        f"onto checkpoint {report['checkpoint'] or '<none>'}; "
        f"{report['n_tuples']} tuples live"
    )
    if report["torn_tail"]:
        torn = report["torn_tail"]
        print(
            f"torn WAL tail truncated at {torn['segment']} offset "
            f"{torn['offset']} ({torn['reason']})"
        )
    if args.output is not None:
        print(
            f"fresh checkpoint written to {report['output']} "
            f"(the WAL was truncated; old segments are gone)"
        )
    return 0


def _scenario_spec(args):
    """Resolve the spec a ``scenario`` subcommand operates on."""
    from .exceptions import ScenarioError
    from .scenarios import ScenarioSpec, get

    if args.spec:
        try:
            text = Path(args.spec).read_text()
        except OSError as exc:
            raise ScenarioError(
                f"cannot read scenario spec {args.spec!r}: "
                f"{exc.strerror or exc}"
            ) from None
        return ScenarioSpec.from_json(text)
    return get(args.name)


def _cmd_scenario(args) -> int:
    from .scenarios import (
        describe_schema,
        generate_trace,
        get,
        golden_digest,
        registry,
        replay,
    )

    if args.scenario_command == "list":
        names = registry.list()
        if args.names:
            for name in names:
                print(name)
            return 0
        rows = [
            {
                "name": name,
                "generator": get(name).generator,
                "seed": get(name).seed,
                "golden_digest": golden_digest(name),
                "description": get(name).description,
            }
            for name in names
        ]
        if args.json:
            print(json.dumps(rows, indent=2))
            return 0
        width = max(len(row["name"]) for row in rows)
        for row in rows:
            print(
                f"{row['name']:<{width}}  {row['generator']:<12} "
                f"{row['description']}"
            )
        return 0

    if args.scenario_command == "describe":
        spec = _scenario_spec(args)
        payload = {
            "spec": spec.to_dict(),
            "schema": [dict(row) for row in
                       describe_schema(spec.generator)],
            "golden_digest": golden_digest(spec.name),
        }
        print(json.dumps(payload, indent=2))
        return 0

    if args.scenario_command == "trace":
        spec = _scenario_spec(args)
        trace = generate_trace(spec)
        if args.output:
            Path(args.output).write_bytes(trace.to_bytes())
        print(json.dumps({
            "scenario": spec.name,
            "digest": trace.digest(),
            "n_sessions": len(trace.sessions),
            "n_steps": len(trace.steps),
            "n_rounds": trace.n_rounds,
            "golden_digest": golden_digest(spec.name),
            "output": args.output,
        }, indent=2))
        return 0

    # replay
    spec = _scenario_spec(args)
    report = replay(
        spec,
        transport=args.scenario_transport,
        verify=not args.no_verify,
        run_cold=not args.no_cold,
        check_digest=not args.no_digest_check,
        isolate_obs=True,
    )
    payload = report.as_dict()
    if args.output:
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"scenario {report.scenario}: {report.n_rounds} round(s) over "
        f"{len(report.session_stats)} session(s) via {report.transport}; "
        f"verified={report.verified} "
        f"(max |online-cold| = {report.max_abs_diff:.3g}); "
        f"online {report.online_seconds:.3f}s"
        + (
            f", cold {report.cold_seconds:.3f}s "
            f"(speedup x{report.speedup:.2f})"
            if not args.no_cold else ""
        )
    )
    for phase in sorted(report.phase_summaries):
        summary = report.phase_summaries[phase]
        print(
            f"  {phase:<22} n={summary['count']:<5} "
            f"p50={summary['p50']:.6f}s p95={summary['p95']:.6f}s "
            f"p99={summary['p99']:.6f}s"
        )
    if args.output:
        print(f"report written to {args.output}")
    return 0


def _cmd_metrics_dump(args) -> int:
    from .obs import get_registry

    registry = get_registry()
    if args.format == "prometheus":
        sys.stdout.write(registry.to_prometheus())
    else:
        print(json.dumps(registry.snapshot(), indent=2))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Unified CLI over the repro imputation service layer.",
    )
    commands = parser.add_subparsers(dest="command")

    impute = commands.add_parser(
        "impute", help="impute a CSV relation with any registry method"
    )
    impute.add_argument("csv", help="CSV file with missing cells")
    impute.add_argument(
        "--method", default="IIM", help="registry method name (default: IIM)"
    )
    impute.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="constructor override, repeatable (e.g. --set k=5)",
    )
    impute.add_argument(
        "--no-header", action="store_true", help="the CSV file has no header row"
    )
    impute.add_argument("--output", metavar="CSV", help="write the imputed relation")

    serve = commands.add_parser("serve", help="run the JSONL session server")
    transport = serve.add_mutually_exclusive_group()
    transport.add_argument(
        "--stdio", action="store_true",
        help="serve newline-delimited JSON over stdin/stdout (default)",
    )
    transport.add_argument("--port", type=int, help="serve over a TCP socket")
    serve.add_argument(
        "--host", default="127.0.0.1", help="TCP bind host (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--artifact-root", default=".", metavar="DIR",
        help="directory save/restore paths are confined to (default: the "
        "working directory)",
    )
    serve.add_argument(
        "--wal-dir", default=None, metavar="DIR",
        help="write-ahead-log root: every online session logs its mutations "
        "to DIR/<session>/ so they survive a crash (default: no WAL)",
    )
    serve.add_argument(
        "--auth-token", default=None, metavar="SECRET",
        help="shared-secret auth: every request must carry a matching "
        "'token' field or is answered an 'auth' error (default: no auth)",
    )
    serve.add_argument(
        "--trace-log", default=None, metavar="DIR",
        help="persist sampled request traces as rotated JSONL segments "
        "under DIR (default: in-memory ring only)",
    )
    config.add_flags(serve, config.SERVE_KNOBS)
    # Accepted and ignored: serve has no worker pool, but the repository
    # benchmark's server launcher (perfbench/common.py, Server) still
    # passes --workers 4.
    serve.add_argument("--workers", help=argparse.SUPPRESS)

    repl = commands.add_parser(
        "repl",
        help="interactive query REPL (statements end with ';'; \\help "
        "lists meta-commands)",
    )
    repl.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="speak to a running TCP serve loop instead of an in-process "
        "server",
    )
    repl.add_argument(
        "--artifact-root", default=".", metavar="DIR",
        help="save/restore confinement for the in-process server "
        "(default: the working directory)",
    )
    repl.add_argument(
        "--auth-token", default=None, metavar="SECRET",
        help="token sent with every request (for servers started with "
        "--auth-token)",
    )
    repl.add_argument(
        "--session", default=None, metavar="NAME",
        help="session to \\use on startup (default: none selected)",
    )

    recover = commands.add_parser(
        "recover",
        help="rebuild an online session from its write-ahead log after a crash",
    )
    recover.add_argument(
        "wal_dir", help="the session's WAL directory (e.g. wal/<session>)"
    )
    recover.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="last saved artifact to replay the WAL tail onto "
        "(default: WAL-only recovery from the logged config)",
    )
    recover.add_argument(
        "--output", default=None, metavar="PATH",
        help="write a fresh checkpoint of the recovered session; this "
        "truncates the WAL, so keep a copy if you need the old segments",
    )
    recover.add_argument(
        "--json", action="store_true", help="print the recovery report as JSON"
    )

    scenario = commands.add_parser(
        "scenario",
        help="list, describe, trace, and replay parametric workload "
        "scenarios from the registry",
    )
    scenario_commands = scenario.add_subparsers(
        dest="scenario_command", required=True
    )

    scenario_list = scenario_commands.add_parser(
        "list", help="list the registered scenarios"
    )
    scenario_list.add_argument(
        "--json", action="store_true", help="emit the listing as JSON"
    )
    scenario_list.add_argument(
        "--names", action="store_true",
        help="one bare name per line (for shell loops)",
    )

    def _spec_args(sub):
        sub.add_argument(
            "name", nargs="?", default=None,
            help="registered scenario name (or --spec, not both)",
        )
        sub.add_argument(
            "--spec", default=None, metavar="JSON",
            help="load the scenario spec from a JSON file instead of the "
            "registry",
        )

    scenario_describe = scenario_commands.add_parser(
        "describe",
        help="print one spec and its generator's parameter schema as JSON",
    )
    _spec_args(scenario_describe)

    scenario_replay = scenario_commands.add_parser(
        "replay",
        help="replay a scenario with cold-refit verification and per-phase "
        "latency percentiles",
    )
    _spec_args(scenario_replay)
    config.add_flags(scenario_replay, ["scenario_transport"])
    scenario_replay.add_argument(
        "--no-verify", action="store_true",
        help="report divergence from the cold oracle instead of failing",
    )
    scenario_replay.add_argument(
        "--no-cold", action="store_true",
        help="skip the cold-refit oracle entirely (pure latency run)",
    )
    scenario_replay.add_argument(
        "--no-digest-check", action="store_true",
        help="skip the golden trace digest pre-check",
    )
    scenario_replay.add_argument(
        "--output", default=None, metavar="JSON",
        help="write the full replay report (steps, phases, stats) as JSON",
    )

    scenario_trace = scenario_commands.add_parser(
        "trace",
        help="generate a scenario's deterministic trace and print its digest",
    )
    _spec_args(scenario_trace)
    scenario_trace.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the canonical trace bytes to FILE",
    )

    metrics_dump = commands.add_parser(
        "metrics-dump",
        help="print the observability metric catalogue (JSON or Prometheus "
        "text); zero-valued in a fresh process",
    )
    metrics_dump.add_argument(
        "--format", default="json", choices=("json", "prometheus"),
        help="output format (default: json)",
    )

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "scenario" and args.scenario_command != "list":
        if args.name and args.spec:
            parser.error(
                f"scenario {args.scenario_command}: give a scenario name "
                f"or --spec FILE, not both"
            )
        if not (args.name or args.spec):
            parser.error(
                f"scenario {args.scenario_command}: a scenario name or "
                f"--spec FILE is required"
            )
    command = {
        "impute": _cmd_impute,
        "serve": _cmd_serve,
        "repl": _cmd_repl,
        "recover": _cmd_recover,
        "metrics-dump": _cmd_metrics_dump,
        "scenario": _cmd_scenario,
    }[args.command]
    try:
        return command(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of stdout went away (``... | head -1``).  As the
        # Python docs' note on SIGPIPE advises, point stdout at devnull so
        # the interpreter's final flush cannot fail again, and exit 1.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
