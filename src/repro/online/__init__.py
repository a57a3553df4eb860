"""Online imputation: streaming appends, incremental maintenance, artifacts.

This package turns the batch reproduction into a long-lived service:

* :class:`OnlineImputationEngine` — wraps :class:`~repro.core.iim.IIMImputer`
  behind the full tuple lifecycle ``append(rows)`` / ``update(index, row)``
  / ``delete(indices)`` plus ``impute_batch(queries)`` / ``snapshot(path)``.
  Mutations update the complete-tuple store and the per-attribute neighbour
  index incrementally and invalidate only the affected cached per-tuple
  models (Proposition 3's incremental statistics through the batched
  kernels); imputation requests are served in batches from an LRU cache
  of per-attribute model states.
* :mod:`repro.online.artifacts` — fitted state as ``.npz`` arrays plus a
  JSON manifest.  Every :class:`~repro.baselines.base.BaseImputer` gains
  ``save`` / ``load`` through this layer; restoration is bit-for-bit.

:mod:`repro.api` fronts the engine behind the unified session protocol and
the JSONL serve loop; ``python -m repro repl < trace.sql`` runs a
statement trace through it, and ``python -m repro scenario replay`` checks
generated traces (over registered datasets or sha256-pinned CSV files)
against a cold refit.

The engine knob (the model cache size) defaults to the process-wide
value in :mod:`repro.config`.
"""

from .artifacts import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    load_imputer,
    read_artifact,
    save_imputer,
    write_artifact,
)
from .engine import OnlineImputationEngine
from .store import (
    ColumnarTupleStore,
    ShardedNeighbors,
    StoreFeatureView,
)

__all__ = [
    "OnlineImputationEngine",
    "ColumnarTupleStore",
    "StoreFeatureView",
    "ShardedNeighbors",
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "write_artifact",
    "read_artifact",
    "save_imputer",
    "load_imputer",
]
