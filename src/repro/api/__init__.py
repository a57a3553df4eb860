"""``repro.api`` — the unified service layer over the whole library.

One protocol, two engines:

>>> from repro.api import create_session, MutationOp
>>> session = create_session(method="kNN", params={"k": 5})      # batch
>>> session.fit(dirty_relation)                     # doctest: +SKIP
>>> filled = session.impute(rows_with_nans)         # doctest: +SKIP

>>> session = create_session(method="IIM", mode="online")        # online
>>> session.fit(initial_rows)                       # doctest: +SKIP
>>> session.mutate([MutationOp.append(new_rows),
...                 MutationOp.delete([3, 17])])    # doctest: +SKIP
>>> filled = session.impute(rows_with_nans)         # doctest: +SKIP
>>> session.save("artifacts/session")               # doctest: +SKIP

The pieces:

* :class:`ImputationSession` — the protocol (``fit`` / ``mutate`` /
  ``impute`` / ``save`` / ``restore`` / ``stats``), implemented by
  :class:`BatchSession` (any registry imputer) and :class:`OnlineSession`
  (the incremental engine); each advertises a
  :class:`~repro.baselines.registry.MethodCapabilities` descriptor.
* :mod:`repro.api.messages` — the typed, versioned request surface:
  :class:`ImputeRequest`, :class:`MutationOp`, :class:`SessionConfig`
  (validating constructors + JSON-safe wire forms).
* :mod:`repro.api.errors` — the stable error taxonomy every wire response
  uses (:func:`error_code`).
* :mod:`repro.api.serve` — the stdlib-only JSONL serve loop
  (``python -m repro serve``) multiplexing named sessions over
  stdin/stdout or a TCP socket, with per-session quarantine, request
  deadlines and bounded request lines.
* :mod:`repro.api.scheduling` — the dispatch layer behind the transports:
  per-session FIFO queues executed by flat combining on the threads that
  publish to them (:class:`RequestScheduler`), with micro-batching of
  single-row imputes and ``overloaded`` backpressure on full queues.
* :func:`recover_session` — rebuild an online session from its
  write-ahead log (plus the last checkpoint, when one exists) after a
  crash; see :mod:`repro.reliability` for the WAL itself.
"""

from .errors import ERROR_CODES, error_code, error_payload
from .messages import (
    PROTOCOL_VERSION,
    SESSION_MODES,
    ImputeRequest,
    MutationOp,
    SessionConfig,
    decode_rows,
    encode_rows,
    validate_session_name,
)
from .scheduling import RequestScheduler
from .serve import SessionServer, serve_stdio, serve_tcp
from .sessions import (
    BatchSession,
    ImputationSession,
    OnlineSession,
    create_session,
    recover_session,
    restore_session,
)

__all__ = [
    "PROTOCOL_VERSION",
    "SESSION_MODES",
    "ImputationSession",
    "BatchSession",
    "OnlineSession",
    "create_session",
    "recover_session",
    "restore_session",
    "validate_session_name",
    "ImputeRequest",
    "MutationOp",
    "SessionConfig",
    "encode_rows",
    "decode_rows",
    "ERROR_CODES",
    "error_code",
    "error_payload",
    "RequestScheduler",
    "SessionServer",
    "serve_stdio",
    "serve_tcp",
]
