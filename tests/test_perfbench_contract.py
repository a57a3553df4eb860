"""The names the repository benchmark wraps, and the counters it reads, exist.

``perfbench/`` times the program from outside.  Its traced runs patch the
callables listed in ``spans.BOUNDARIES`` by name, ``launch.py`` patches
``SessionServer.handle_request``, and ``common.engine_counts`` indexes the
engine's ``stats`` counters.  A rename in ``src/`` breaks those runs, but
only a full benchmark run would notice; these checks notice it here.  Both
modules are loaded by path: they import only the standard library and
numpy at module level.
"""

import importlib.util
from pathlib import Path

import numpy as np

from repro import load_dataset
from repro.api import MutationOp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
common = _load("common")

#: What ``launch.py --cpu`` wraps, besides the span boundaries.
LAUNCH_TARGETS = (("launch.cpu", "repro.api.serve", "SessionServer.handle_request"),)


def test_every_wrapped_name_resolves_to_a_callable():
    unresolved = []
    for name, module, attr in spans.BOUNDARIES + LAUNCH_TARGETS:
        try:
            owner, last = spans._resolve(module, attr)
            target = getattr(owner, last)
        except (ImportError, AttributeError) as exc:
            unresolved.append(f"{name}: {module}.{attr} ({exc})")
            continue
        if not callable(target):
            unresolved.append(f"{name}: {module}.{attr} is not callable")
    assert not unresolved, "perfbench wraps names that no longer exist:\n" + (
        "\n".join(unresolved)
    )


def test_engine_counts_reads_the_stats_of_a_driven_session():
    values = load_dataset("asf", size=160).raw
    warm = values[140:144].copy()
    warm[:, 0] = np.nan
    session = common.local_session(values[:100], None, warm)
    engine = session.engine
    before = dict(engine.stats)
    session.mutate([
        MutationOp.append(values[100:120]),
        MutationOp.update(3, values[130]),
        MutationOp.delete([0, 5]),
    ])
    session.impute(warm)
    counts = common.engine_counts(
        before, dict(engine.stats), [engine.memory_stats()]
    )
    assert counts["engine.hybrid_full_rebuilds"] == 0
    assert counts["engine.refreshed_per_mutated_row"] > 0
    assert counts["store.resident_bytes"] > 0
