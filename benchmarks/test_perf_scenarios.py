"""The scenario matrix: replay every registered scenario, record latencies.

Enumerates the scenario registry (see :mod:`repro.scenarios.registry`),
replays each spec through its auto-selected transport (the full serve
loop for multi-tenant mixes, the direct engine otherwise) with the
cold-refit oracle enabled, and records one section per scenario in
``benchmarks/results/scenarios.json``: its spec, per-phase p50/p95/p99
latencies, verification outcome, speedup and the golden trace digest — the
coverage surface the CI ``scenario-matrix`` job smoke-replays on every PR.
"""

import time

from repro import config
from repro.scenarios import GENERATORS, registry, replay


def test_scenario_matrix(record_result, write_report):
    previous = config.set("obs_enabled", True)
    matrix = {}
    try:
        for name in registry.list():
            started = time.perf_counter()
            report = replay(name, verify=True, isolate_obs=True)
            wall = time.perf_counter() - started
            assert report.verified is True, (
                f"scenario {name!r} diverged from the cold-refit oracle"
            )
            assert report.digest_checked is True, (
                f"scenario {name!r} was not digest-checked; is its golden "
                f"pin missing from golden_digests.json?"
            )
            matrix[name] = {
                "spec": registry.get(name).to_dict(),
                "generator": report.generator,
                "transport": report.transport,
                "verified": report.verified,
                "trace_digest": report.trace_digest,
                "n_rounds": report.n_rounds,
                "sessions": sorted(report.session_stats),
                "online_seconds": report.online_seconds,
                "cold_seconds": report.cold_seconds,
                "speedup": report.speedup,
                "max_abs_diff": report.max_abs_diff,
                "wall_seconds": wall,
                "phases": {
                    phase: {
                        "count": summary["count"],
                        "p50": summary["p50"],
                        "p95": summary["p95"],
                        "p99": summary["p99"],
                    }
                    for phase, summary in report.phase_summaries.items()
                },
            }
    finally:
        config.set("obs_enabled", previous)

    write_report("scenarios", **matrix)
    record_result(
        "scenario_matrix",
        "\n".join(
            f"{name}: {entry['generator']}/{entry['transport']}, "
            f"{entry['n_rounds']} rounds, verified={entry['verified']}, "
            f"online {entry['online_seconds']:.4f}s vs cold "
            f"{entry['cold_seconds']:.4f}s (x{entry['speedup']:.1f}), "
            f"impute p95 "
            f"{entry['phases']['scenario.impute']['p95'] * 1000:.2f}ms"
            for name, entry in matrix.items()
        ),
    )

    # The registry's acceptance floor: at least 8 built-ins, every
    # registered generator exercised, every phase summary well-formed.
    assert len(matrix) >= 8
    assert {e["generator"] for e in matrix.values()} == set(GENERATORS)
    for name, entry in matrix.items():
        for phase in ("scenario.fit", "scenario.mutate", "scenario.impute",
                      "scenario.cold_refit"):
            summary = entry["phases"][phase]
            assert summary["count"] >= 1, (name, phase)
            assert summary["p50"] <= summary["p95"] <= summary["p99"], (
                name, phase,
            )
