"""repro — a full reproduction of "Learning Individual Models for Imputation" (ICDE 2019).

The package implements the paper's IIM method (individual per-tuple
regression models, adaptive selection of the number of learning neighbours,
incremental computation), all thirteen baseline imputation methods of its
Table II, the relational/neighbour/regression/clustering/tree substrates
they need, the evaluation metrics, synthetic analogues of the paper's nine
datasets, and an experiment harness that regenerates every table and figure
of the evaluation section.

Quickstart
----------
>>> from repro import IIMImputer, load_dataset, inject_missing, rms_error
>>> relation = load_dataset("asf", size=400)
>>> injection = inject_missing(relation, fraction=0.05, random_state=0)
>>> imputer = IIMImputer(k=10, learning="adaptive", stepping=10, max_learning_neighbors=50)
>>> imputed = imputer.fit(injection.dirty).impute(injection.dirty)
>>> error = rms_error(injection.truth, imputed.raw[injection.rows, injection.attributes])

Kernel backends
---------------
The IIM hot paths — neighbour search, per-candidate model learning
(Algorithm 3 / Proposition 3), validation-cost accumulation and batch
imputation — run on **vectorized batch kernels** by default: pairwise
distance blocks with ``argpartition`` top-k, prefix-sum (``cumsum``) U/V
statistics solved by one stacked ``np.linalg.solve``, and batched candidate
combination.  The original per-tuple Python loops are retained as an
executable reference backend, selected by the ``backend`` knob of
:mod:`repro.config`:

>>> from repro import config
>>> config.set("backend", "loop")             # process-wide   # doctest: +SKIP
>>> with config.override("backend", "loop"):  # temporarily    # doctest: +SKIP
...     IIMImputer(k=10).fit(injection.dirty).impute(injection.dirty)
>>> IIMImputer(k=10, backend="loop")          # per-instance   # doctest: +SKIP

The ``REPRO_BACKEND`` environment variable sets the initial default.  The
test suite asserts both backends agree to ``rtol = 1e-9``;
``benchmarks/test_perf_kernels.py`` tracks their relative wall-clock in
``benchmarks/results/kernels.json``.

Online imputation
-----------------
:mod:`repro.online` turns the batch method into a long-lived service.
:class:`~repro.online.OnlineImputationEngine` wraps :class:`IIMImputer`
behind ``append(rows)`` / ``impute_batch(queries)`` / ``snapshot(path)``:
appends fold new tuples into the neighbour index by a sorted merge and
relearn only the per-tuple models whose neighbourhood actually changed
(Proposition 3 through the batched kernels), while queries are served from
an LRU cache of per-attribute model states — always equal (``rtol = 1e-9``)
to a cold ``IIMImputer`` refit over the same tuples.

>>> from repro.online import OnlineImputationEngine          # doctest: +SKIP
>>> engine = OnlineImputationEngine(k=10, learning="adaptive",
...                                 max_learning_neighbors=50)  # doctest: +SKIP
>>> engine.append(new_complete_rows)                         # doctest: +SKIP
>>> filled = engine.impute_batch(rows_with_nans)             # doctest: +SKIP
>>> engine.snapshot("artifacts/engine")                      # doctest: +SKIP

Engine knobs (model cache size, refresh policy) are rows of the same
:data:`repro.config.KNOBS` table as the backend, the WAL, serve, obs,
query and scenario knobs; each has a ``REPRO_*`` environment variable and
is read with ``config.get(name)``.  Fitted state —
engines via ``snapshot``/``load``, every imputer via ``save``/``load`` on
:class:`~repro.baselines.base.BaseImputer` — persists as ``.npz`` arrays
plus a JSON manifest (:mod:`repro.online.artifacts`) and restores
bit-for-bit.  ``python -m repro repl < trace.sql`` runs a statement trace
against the engine; ``benchmarks/test_perf_online.py`` replays
``streaming`` and ``churn`` scenarios (:mod:`repro.scenarios`) and tracks
the incremental-vs-cold speedup in ``benchmarks/results/online.json``.

The service layer
-----------------
:mod:`repro.api` unifies both worlds behind one protocol: an
:class:`~repro.api.ImputationSession` (``fit`` / ``mutate`` / ``impute`` /
``save`` / ``restore`` / ``stats``) implemented by
:class:`~repro.api.BatchSession` (any registry method) and
:class:`~repro.api.OnlineSession` (the incremental engine), typed request
messages (:class:`~repro.api.ImputeRequest`,
:class:`~repro.api.MutationOp`, :class:`~repro.api.SessionConfig`), a
stable error taxonomy, and a stdlib-only JSONL serve loop.  The
consolidated CLI lives behind ``python -m repro`` (subcommands ``impute``,
``replay``, ``repl``, ``serve``, ``recover``, ``metrics-dump``,
``scenario``).

>>> from repro.api import create_session, MutationOp        # doctest: +SKIP
>>> session = create_session(method="IIM", mode="online")   # doctest: +SKIP
>>> session.fit(initial_rows)                               # doctest: +SKIP
>>> session.mutate([MutationOp.append(new_rows)])           # doctest: +SKIP
>>> filled = session.impute(rows_with_nans)                 # doctest: +SKIP
"""

from .baselines import (
    METHOD_SPECS,
    BLRImputer,
    ERACERImputer,
    GLRImputer,
    GMMImputer,
    IFCImputer,
    ILLSImputer,
    KNNEnsembleImputer,
    KNNImputer,
    LoessImputer,
    MeanImputer,
    PMMImputer,
    SVDImputer,
    XGBImputer,
    available_methods,
    make_imputer,
    method_capabilities,
    method_spec,
)
from . import config
from .core import (
    IIMImputer,
    IndividualModels,
    adaptive_learning,
    learn_individual_models,
)
from .data import (
    Relation,
    Schema,
    dataset_names,
    inject_missing,
    inject_missing_attribute,
    inject_missing_clustered,
    load_dataset,
)
from .exceptions import (
    ConfigurationError,
    DataError,
    DatasetError,
    ExperimentError,
    MissingValueError,
    NotFittedError,
    ReproError,
    SchemaError,
)
from .metrics import (
    f1_score,
    heterogeneity_r2,
    mean_absolute_error,
    purity_score,
    r_squared,
    rms_error,
    sparsity_r2,
)
from .online import OnlineImputationEngine
from .api import (
    BatchSession,
    ImputationSession,
    ImputeRequest,
    MutationOp,
    OnlineSession,
    SessionConfig,
    create_session,
    restore_session,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # Configuration
    "config",
    # Core method
    "IIMImputer",
    "IndividualModels",
    "learn_individual_models",
    "adaptive_learning",
    # Online serving
    "OnlineImputationEngine",
    # Service layer
    "ImputationSession",
    "BatchSession",
    "OnlineSession",
    "create_session",
    "restore_session",
    "ImputeRequest",
    "MutationOp",
    "SessionConfig",
    # Baselines
    "MeanImputer",
    "KNNImputer",
    "KNNEnsembleImputer",
    "IFCImputer",
    "GMMImputer",
    "SVDImputer",
    "ILLSImputer",
    "GLRImputer",
    "LoessImputer",
    "BLRImputer",
    "ERACERImputer",
    "PMMImputer",
    "XGBImputer",
    "make_imputer",
    "available_methods",
    "METHOD_SPECS",
    "method_spec",
    "method_capabilities",
    # Data
    "Relation",
    "Schema",
    "load_dataset",
    "dataset_names",
    "inject_missing",
    "inject_missing_attribute",
    "inject_missing_clustered",
    # Metrics
    "rms_error",
    "mean_absolute_error",
    "r_squared",
    "sparsity_r2",
    "heterogeneity_r2",
    "purity_score",
    "f1_score",
    # Exceptions
    "ReproError",
    "ConfigurationError",
    "NotFittedError",
    "DataError",
    "SchemaError",
    "MissingValueError",
    "DatasetError",
    "ExperimentError",
]
