"""Kernel benchmark: vectorized batch kernels vs. the reference loops.

Times the IIM hot-path kernels under both backends of :mod:`repro.config`
and records the per-kernel wall-clock numbers in
``benchmarks/results/kernels.json``.

The headline series is the Figure 12 benchmark — adaptive learning
(Algorithm 3) over the profile's scalability grid on the SN and CA datasets,
straightforward and incremental variants — where the vectorized backend is
required to be at least 10× faster in aggregate at the ``bench`` profile.
Secondary kernels (candidate learning, batch kNN, batch imputation) are
timed at the largest grid size.  Output equality between the backends is
asserted here as well (``rtol = 1e-9``); the exhaustive equivalence matrix
lives in ``tests/core/test_backend_equivalence.py``.
"""

import time

import numpy as np

from repro.core.adaptive import adaptive_learning
from repro.core.imputation import impute_with_individual_models
from repro.core.learning import candidate_ell_values, learn_models_for_candidates
from repro.neighbors import BruteForceNeighbors

BACKENDS = ("loop", "vectorized")
REPS = 2  # best-of repetitions per timed cell


def _best_of(fn, reps=REPS):
    best, result = np.inf, None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_kernel_speedups(profile, record_result, write_report):
    rng = np.random.default_rng(0)
    kernels = {}  # seconds, best of REPS

    # ------------------------------------------------------------------ #
    # Figure 12 benchmark: adaptive learning across the scalability grid.
    # ------------------------------------------------------------------ #
    from repro.data import load_dataset

    stepping = max(profile.iim_stepping, 10)
    grid_seconds = {backend: 0.0 for backend in BACKENDS}
    grid_cells = []
    datasets = {}
    for dataset in ("sn", "ca"):
        datasets[dataset] = load_dataset(dataset, size=max(profile.scalability_tuple_counts))
        values = datasets[dataset].raw
        for n in profile.scalability_tuple_counts:
            features, target = values[:n, :-1], values[:n, -1]
            candidates = candidate_ell_values(
                n, stepping=stepping, max_ell=min(n, profile.iim_max_learning_neighbors)
            )
            for variant, incremental in (("straightforward", False), ("incremental", True)):
                cell = {"dataset": dataset, "n": int(n), "variant": variant}
                outputs = {}
                for backend in BACKENDS:
                    seconds, outcome = _best_of(
                        lambda backend=backend, inc=incremental: adaptive_learning(
                            features,
                            target,
                            validation_neighbors=profile.default_k,
                            candidates=candidates,
                            incremental=inc,
                            backend=backend,
                        )
                    )
                    grid_seconds[backend] += seconds
                    cell[backend] = seconds
                    outputs[backend] = outcome
                np.testing.assert_allclose(
                    outputs["vectorized"].models.parameters,
                    outputs["loop"].models.parameters,
                    rtol=1e-9,
                    atol=1e-12,
                )
                np.testing.assert_allclose(
                    outputs["vectorized"].costs, outputs["loop"].costs, rtol=1e-9, atol=1e-12
                )
                cell["speedup"] = cell["loop"] / cell["vectorized"]
                grid_cells.append(cell)
    adaptive_speedup = grid_seconds["loop"] / grid_seconds["vectorized"]
    kernels["adaptive_learning_figure12"] = {
        "description": "Figure 12 benchmark: Algorithm 3 over the scalability grid "
        "(SN + CA, straightforward + incremental)",
        "loop_seconds": grid_seconds["loop"],
        "vectorized_seconds": grid_seconds["vectorized"],
        "speedup": adaptive_speedup,
        "cells": grid_cells,
    }

    # ------------------------------------------------------------------ #
    # Secondary kernels at the largest grid size (CA, the wide dataset).
    # ------------------------------------------------------------------ #
    n = max(profile.scalability_tuple_counts)
    values = datasets["ca"].raw
    features, target = values[:n, :-1], values[:n, -1]
    candidates = candidate_ell_values(
        n, stepping=stepping, max_ell=min(n, profile.iim_max_learning_neighbors)
    )

    def time_kernel(name, description, runner):
        timings, outputs = {}, {}
        for backend in BACKENDS:
            timings[backend], outputs[backend] = _best_of(lambda b=backend: runner(b))
        np.testing.assert_allclose(
            outputs["vectorized"], outputs["loop"], rtol=1e-9, atol=1e-12
        )
        kernels[name] = {
            "description": description,
            "loop_seconds": timings["loop"],
            "vectorized_seconds": timings["vectorized"],
            "speedup": timings["loop"] / timings["vectorized"],
        }

    time_kernel(
        "learn_models_for_candidates",
        f"incremental candidate learning, n={n}, L={len(candidates)}",
        lambda backend: learn_models_for_candidates(
            features, target, candidates, backend=backend
        ),
    )

    searcher = BruteForceNeighbors().fit(features)
    queries = features + rng.normal(scale=0.01, size=features.shape)
    time_kernel(
        "batch_kneighbors",
        f"batched top-{profile.default_k} search, {n} queries over {n} points",
        lambda backend: searcher.kneighbors(queries, profile.default_k, backend=backend)[1],
    )

    models = adaptive_learning(
        features, target, validation_neighbors=profile.default_k, candidates=candidates
    ).models
    time_kernel(
        "impute_batch_voting",
        f"batch imputation (voting combiner), {n} queries, k={profile.default_k}",
        lambda backend: impute_with_individual_models(
            queries, models, features, target, profile.default_k, backend=backend
        ),
    )

    write_report("kernels", **kernels)
    record_result(
        "kernels",
        "\n".join(
            f"{name}: loop {entry['loop_seconds']:.4f}s, "
            f"vectorized {entry['vectorized_seconds']:.4f}s, "
            f"speedup {entry['speedup']:.1f}x"
            for name, entry in kernels.items()
        ),
    )

    for entry in kernels.values():
        assert entry["vectorized_seconds"] < entry["loop_seconds"], entry["description"]
    if profile.name == "bench":
        # The tentpole acceptance bar: ≥10× on the Figure 12 benchmark.
        assert adaptive_speedup >= 10.0, f"adaptive speedup {adaptive_speedup:.1f}x < 10x"
