"""Reliability benchmarks: WAL overhead on the serve path + recovery speed.

Durability is only adoptable if it is close to free on the hot path.  The
same mixed request stream (mostly single-row imputes, with a single-row
append every 4th request: the pattern that touches the WAL) runs through
four servers: no WAL at all, and one per sync policy (``off`` / ``batch``
/ ``always``).  Bars:

* the default ``batch`` policy costs at most 15% over the WAL-less
  baseline, and ``always`` (one fsync per append) still sustains a
  workable rate;
* recovery rebuilds a session by replaying the ``batch`` run's WAL from
  scratch, so the cost of a crash is a number.

The record lands in ``benchmarks/results/reliability.json``.
"""

import json
import time

import numpy as np

from repro.api import recover_session
from repro.data import load_dataset

#: The acceptance bar: the default (batch) WAL sync policy may cost at most
#: 15% wall-clock on the mixed serve stream.
BATCH_OVERHEAD_TOLERANCE = 1.15

N_REQUESTS = 240
APPEND_EVERY = 4
REPEATS = 3
MODES = ("none", "off", "batch", "always")


def _mixed_stream(values, store_rows, seed=2):
    """Pre-encoded JSONL lines: single-row imputes with periodic appends."""
    rng = np.random.default_rng(seed)
    width = values.shape[1]
    lines = []
    for i in range(N_REQUESTS):
        if i % APPEND_EVERY == APPEND_EVERY - 1:
            row = values[store_rows + i % (len(values) - store_rows)]
            request = {"cmd": "append", "rows": [[float(cell) for cell in row]]}
        else:
            row = [float(cell) for cell in values[int(rng.integers(store_rows))]]
            row[int(rng.integers(width))] = None
            request = {"cmd": "impute", "rows": [row]}
        lines.append(json.dumps({"v": 1, "id": i, "session": "bench", **request}))
    return lines


def test_wal_overhead_and_recovery(
    profile, ask, serve_sessions, tmp_path, record_result, write_report
):
    store_rows = profile.dataset_sizes["sn"]
    values = load_dataset("sn", size=2 * store_rows).raw
    lines = _mixed_stream(values, store_rows)
    warm = {"bench": range(values.shape[1])}

    # Interleave the repeats round-robin over the modes: a transient machine
    # stall then lands on every mode about equally instead of poisoning one
    # mode's whole block, and the per-mode minimum gives a stable ratio.
    seconds = {mode: [] for mode in MODES}
    for repeat in range(REPEATS):
        for mode in MODES:
            wal_root = None if mode == "none" else tmp_path / f"{mode}-{repeat}"
            server = serve_sessions(
                values, store_rows, warm, wal_root=wal_root,
                wal_sync="default" if mode == "none" else mode,
            )
            start = time.perf_counter()
            for line in lines:
                ask(server, line)
            seconds[mode].append(time.perf_counter() - start)
            server.close_sessions()

    overhead = {
        mode: {"seconds": min(seconds[mode]),
               "requests_per_second": N_REQUESTS / min(seconds[mode])}
        for mode in MODES
    }
    for mode in MODES[1:]:
        overhead[mode]["overhead_vs_none"] = (
            overhead[mode]["seconds"] / overhead["none"]["seconds"]
        )

    # Recovery: rebuild a fresh session from the last batch run's WAL alone.
    start = time.perf_counter()
    _, report = recover_session(
        tmp_path / f"batch-{REPEATS - 1}" / "bench", reattach=False
    )
    recovery = {
        "seconds": time.perf_counter() - start,
        "replayed_ops": report["replayed_ops"],
        "n_tuples": report["n_tuples"],
    }

    write_report(
        "reliability",
        wal_overhead={"store_rows": store_rows, "n_requests": N_REQUESTS,
                      "append_every": APPEND_EVERY, "modes": overhead},
        recovery=recovery,
    )
    record_result(
        "reliability",
        "\n".join(
            [f"mixed stream ({N_REQUESTS} requests, store of {store_rows} "
             f"tuples, append every {APPEND_EVERY}th):"]
            + [
                f"  wal={mode:>6}: {entry['requests_per_second']:,.0f} req/s"
                + (f" (x{entry['overhead_vs_none']:.3f} vs no WAL)"
                   if "overhead_vs_none" in entry else "")
                for mode, entry in overhead.items()
            ]
            + [f"recovery: {recovery['replayed_ops']} WAL op(s) replayed in "
               f"{recovery['seconds']:.3f}s -> {recovery['n_tuples']} tuples"]
        ),
    )

    assert overhead["batch"]["overhead_vs_none"] <= BATCH_OVERHEAD_TOLERANCE, (
        f"wal_sync=batch costs x{overhead['batch']['overhead_vs_none']:.3f} "
        f"over the WAL-less serve path (bar: x{BATCH_OVERHEAD_TOLERANCE})"
    )
    # Sanity floors: always must still sustain a workable rate (it fsyncs
    # per append, not per impute), and recovery must replay the log.
    assert overhead["always"]["requests_per_second"] > 10
    assert recovery["replayed_ops"] >= 1
