"""The learning phase of IIM (Algorithm 1 of the paper).

For every complete tuple ``t_i`` the phase finds its ``ℓ`` nearest
neighbours on the complete attributes ``F`` (the tuple itself included, as
in the paper's Example 2) and fits a ridge regression ``F → A_m`` over those
neighbours (Formula 5).  With ``ℓ = 1`` the single-neighbour constant model
of Section III-A2 is used.

The module also exposes :func:`learn_models_for_candidates`, which learns
the models of *all* candidate ``ℓ`` values for every tuple in one pass —
either from scratch per candidate (the "straightforward" variant the paper
benchmarks against) or with the incremental U/V updates of Proposition 3.
The output feeds the adaptive selection of Algorithm 3.

Backends
--------
Each learning entry point exists in two implementations selected through
:mod:`repro.config` (or a per-call ``backend`` argument):

* ``"vectorized"`` (default) — gathers the neighbour-ordered design rows of
  a whole block of tuples at once, builds the incremental U/V statistics of
  Proposition 3 as *prefix sums* (per-Δh-segment batched GEMMs added up
  along the candidate axis) and resolves every ``(candidate × tuple)``
  ridge system with one batched
  :func:`~repro.regression.batched.batched_ridge_solve`.  The stacks are
  candidate-major — ``U`` is ``(L, tuples, p, p)`` — so the prefix sums are
  contiguous adds and the solutions land in the ``(L, n, p)`` result
  without a transpose.  ``ℓ = 1`` is the constant model and never reaches
  the solver.  Blocks are chunked over tuples so the scratch memory stays
  bounded.  :func:`learn_candidate_models_for_rows` can also solve a
  *subset*: per tuple, only the candidates from a given one on (the
  online engine's refresh, where candidate ``ℓ`` needs re-solving only
  when the tuple's ordering changed before rank ``ℓ``); each solved entry
  is bit-identical to the full call's.
* ``"loop"`` — the original per-tuple Python loop over
  :class:`~repro.regression.IncrementalRidge`, kept as the executable
  reference; the test suite asserts both backends agree to ``rtol = 1e-9``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .._validation import (
    as_float_matrix,
    as_float_vector,
    check_consistent_length,
    check_positive_float,
    check_positive_int,
)
from .. import config
from ..exceptions import ConfigurationError
from ..neighbors import NeighborOrderCache
from ..regression import (
    DEFAULT_ALPHA,
    IncrementalRidge,
    RidgeRegression,
    batched_ridge_solve,
    constant_model,
)

__all__ = [
    "IndividualModels",
    "learn_individual_models",
    "learn_models_for_candidates",
    "learn_candidate_models_for_rows",
    "candidate_ell_values",
]


class IndividualModels:
    """The learned per-tuple regression parameters ``Φ = {φ_1, ..., φ_n}``.

    Attributes
    ----------
    parameters:
        Array of shape ``(n, m)`` where row ``i`` is ``φ_i`` (intercept
        first, then one weight per complete attribute).
    learning_neighbors:
        Array of shape ``(n,)`` holding the number of learning neighbours
        ``ℓ_i`` used for each tuple (all equal for fixed-ℓ learning).
    """

    def __init__(self, parameters: np.ndarray, learning_neighbors: np.ndarray):
        self.parameters = np.asarray(parameters, dtype=float)
        self.learning_neighbors = np.asarray(learning_neighbors, dtype=int)
        if self.parameters.ndim != 2:
            raise ConfigurationError("parameters must be a 2-D array (n, m)")
        if self.learning_neighbors.shape[0] != self.parameters.shape[0]:
            raise ConfigurationError("learning_neighbors must align with parameters")

    @property
    def n_models(self) -> int:
        """Number of per-tuple models."""
        return self.parameters.shape[0]

    def predict(self, model_indices, query_features: np.ndarray) -> np.ndarray:
        """Candidates ``(1, t_x[F]) φ_j`` for the given models and one query.

        Parameters
        ----------
        model_indices:
            Indices of the neighbour models to apply.
        query_features:
            The incomplete tuple's values on ``F`` (1-D of length ``m - 1``).
        """
        model_indices = np.asarray(model_indices, dtype=int)
        query_features = as_float_vector(query_features, name="query_features")
        design = np.concatenate([[1.0], query_features])
        return self.parameters[model_indices] @ design

    def __getitem__(self, index: int) -> np.ndarray:
        return self.parameters[index].copy()


def candidate_ell_values(n_tuples: int, stepping: int = 1, max_ell: Optional[int] = None) -> np.ndarray:
    """The candidate numbers of learning neighbours ``ℓ ∈ {1, 1+h, 1+2h, ...}``.

    Mirrors the stepping scheme of Section V-A2: starting from 1 and
    increasing by ``h`` up to ``min(n, max_ell)``.
    """
    n_tuples = check_positive_int(n_tuples, "n_tuples")
    stepping = check_positive_int(stepping, "stepping")
    upper = n_tuples if max_ell is None else min(check_positive_int(max_ell, "max_ell"), n_tuples)
    return np.arange(1, upper + 1, stepping, dtype=int)


def _validate_inputs(features, target):
    features = as_float_matrix(features, name="features")
    target = as_float_vector(target, name="target")
    check_consistent_length(features, target, names=("features", "target"))
    return features, target


def learn_individual_models(
    features,
    target,
    ell: int,
    alpha: float = DEFAULT_ALPHA,
    metric: str = "paper_euclidean",
    order_cache: Optional[NeighborOrderCache] = None,
    backend: Optional[str] = None,
) -> IndividualModels:
    """Algorithm 1: learn one ridge model per tuple over its ``ℓ`` nearest neighbours.

    Parameters
    ----------
    features:
        Complete tuples restricted to the complete attributes ``F``,
        shape ``(n, m-1)``.
    target:
        Complete tuples' values on the incomplete attribute, shape ``(n,)``.
    ell:
        Number of learning neighbours (``1 <= ℓ <= n``); the tuple itself is
        always its own first neighbour.
    alpha:
        Ridge regularization strength.
    metric:
        Distance metric used for the neighbour search.
    order_cache:
        Optional pre-built neighbour ordering (with ``include_self=True``);
        one is created on the fly when omitted.
    backend:
        ``"vectorized"``, ``"loop"``, or ``None`` to follow the global knob.
    """
    features, target = _validate_inputs(features, target)
    n, d = features.shape
    ell = check_positive_int(ell, "ell")
    if ell > n:
        raise ConfigurationError(f"ell={ell} exceeds the number of complete tuples {n}")
    alpha = check_positive_float(alpha, "alpha", allow_zero=True)

    if order_cache is None:
        order_cache = NeighborOrderCache(features, metric=metric, include_self=True, max_length=ell)

    if config.resolve("backend", backend) == "vectorized":
        parameters = _candidate_models_vectorized(
            features, target, np.array([ell]), alpha, order_cache, incremental=True
        )[0]
        return IndividualModels(parameters, np.full(n, ell, dtype=int))

    parameters = np.empty((n, d + 1))
    for i in range(n):
        neighbors = order_cache.prefix(i, ell)
        if ell == 1:
            parameters[i] = constant_model(target[neighbors[0]], d)
        else:
            model = RidgeRegression(alpha=alpha).fit(features[neighbors], target[neighbors])
            parameters[i] = model.coefficients
    return IndividualModels(parameters, np.full(n, ell, dtype=int))


def learn_models_for_candidates(
    features,
    target,
    candidates: Sequence[int],
    alpha: float = DEFAULT_ALPHA,
    metric: str = "paper_euclidean",
    incremental: bool = True,
    order_cache: Optional[NeighborOrderCache] = None,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Learn ``Φ(ℓ)`` for every candidate ``ℓ`` and every tuple.

    Returns an array of shape ``(len(candidates), n, m)`` where entry
    ``[c, i]`` is the parameter vector of tuple ``i`` learned over its
    ``candidates[c]`` nearest neighbours.

    Parameters
    ----------
    incremental:
        When True (default), the ridge sufficient statistics ``U`` and ``V``
        are grown incrementally across candidates (Proposition 3), so the
        cost per additional candidate is independent of ``ℓ``.  When False,
        each candidate is learned from scratch (the baseline the paper's
        Figure 12 compares against).  Both variants produce the same models
        up to floating-point rounding.
    backend:
        ``"vectorized"``, ``"loop"``, or ``None`` to follow the global knob.
        The vectorized backend preserves the incremental/straightforward
        distinction: incremental statistics are prefix sums shared across
        candidates, straightforward ones are rebuilt per candidate.
    """
    features, target = _validate_inputs(features, target)
    n, d = features.shape
    candidates = np.asarray(list(candidates), dtype=int)
    if candidates.size == 0:
        raise ConfigurationError("candidates must contain at least one ℓ value")
    if np.any(candidates < 1) or np.any(candidates > n):
        raise ConfigurationError(f"candidate ℓ values must lie in [1, {n}]")
    if np.any(np.diff(candidates) <= 0):
        raise ConfigurationError("candidate ℓ values must be strictly increasing")
    alpha = check_positive_float(alpha, "alpha", allow_zero=True)

    max_ell = int(candidates.max())
    if order_cache is None:
        order_cache = NeighborOrderCache(
            features, metric=metric, include_self=True, max_length=max_ell
        )

    if config.resolve("backend", backend) == "vectorized":
        return _candidate_models_vectorized(
            features, target, candidates, alpha, order_cache, incremental=incremental
        )

    all_parameters = np.empty((candidates.shape[0], n, d + 1))

    if not incremental:
        for c, ell in enumerate(candidates):
            models = learn_individual_models(
                features,
                target,
                int(ell),
                alpha=alpha,
                metric=metric,
                order_cache=order_cache,
                backend="loop",
            )
            all_parameters[c] = models.parameters
        return all_parameters

    for i in range(n):
        order = order_cache.prefix(i, max_ell)
        accumulator = IncrementalRidge(n_features=d, alpha=alpha)
        consumed = 0
        for c, ell in enumerate(candidates):
            ell = int(ell)
            delta = order[consumed:ell]
            if delta.size:
                accumulator.partial_fit(features[delta], target[delta])
                consumed = ell
            all_parameters[c, i] = accumulator.solve()
    return all_parameters


def learn_candidate_models_for_rows(
    features,
    target,
    candidates: Sequence[int],
    orders,
    alpha: float = DEFAULT_ALPHA,
    incremental: bool = True,
    first_solved=None,
) -> np.ndarray:
    """Learn ``Φ(ℓ)`` for an explicit subset of tuples given their orderings.

    This is the *incremental refresh* entry point of Proposition 3: a caller
    that maintains per-tuple neighbour orderings (e.g. the online engine's
    :meth:`~repro.neighbors.NeighborOrderCache.append`) can re-learn the
    candidate models of just the affected tuples — the same batched
    prefix-sum kernel that :func:`learn_models_for_candidates` runs over the
    whole relation, at a cost proportional to the refreshed subset.

    Parameters
    ----------
    features, target:
        The *full* complete data (all ``n`` tuples), as in
        :func:`learn_models_for_candidates`; ``orders`` indexes into it.
    candidates:
        Strictly increasing candidate ``ℓ`` values.
    orders:
        Array of shape ``(r, >= max(candidates))``: the neighbour ordering
        (self included, as in the learning phase) of each tuple to refresh.
    alpha:
        Ridge regularization strength.
    incremental:
        Grow the U/V statistics across candidates (Proposition 3) or rebuild
        them per candidate.
    first_solved:
        Optional array of shape ``(r,)``: per row, the index into
        ``candidates`` of the first candidate to solve.  Candidate ``ℓ``'s
        model reads only the first ``ℓ`` neighbours, so a row whose
        ordering is unchanged before rank ``ρ`` needs only the candidates
        with ``ℓ > ρ``.  Every solved entry is bit-identical to the entry of
        a call without ``first_solved``; the entries left out are NaN.

    Returns
    -------
    numpy.ndarray
        Parameters of shape ``(len(candidates), r, m)``, aligned with the
        rows of ``orders``.
    """
    features, target = _validate_inputs(features, target)
    n = features.shape[0]
    candidates = np.asarray(list(candidates), dtype=int)
    if candidates.size == 0:
        raise ConfigurationError("candidates must contain at least one ℓ value")
    if np.any(candidates < 1) or np.any(candidates > n):
        raise ConfigurationError(f"candidate ℓ values must lie in [1, {n}]")
    if np.any(np.diff(candidates) <= 0):
        raise ConfigurationError("candidate ℓ values must be strictly increasing")
    alpha = check_positive_float(alpha, "alpha", allow_zero=True)

    orders = np.asarray(orders, dtype=int)
    if orders.ndim != 2:
        raise ConfigurationError("orders must be a 2-D (rows, neighbours) array")
    max_ell = int(candidates.max())
    if orders.shape[1] < max_ell:
        raise ConfigurationError(
            f"requested {max_ell} neighbours but only {orders.shape[1]} are available"
        )
    if first_solved is not None:
        first_solved = np.asarray(first_solved, dtype=int)
        if first_solved.shape != orders.shape[:1]:
            raise ConfigurationError("first_solved must hold one entry per row of orders")
    return _candidate_models_from_orders(
        features, target, candidates, alpha, orders[:, :max_ell], incremental,
        first_solved,
    )


def _chunk_rows(
    n: int, max_ell: int, n_candidates: int, width: int, budget_floats: int = 4_000_000
) -> int:
    """Tuples per block so the design/statistics scratch stays near ``budget``."""
    per_row = max(1, max_ell * width + n_candidates * width * width)
    return max(1, min(n, budget_floats // per_row))


def _candidate_models_vectorized(
    features: np.ndarray,
    target: np.ndarray,
    candidates: np.ndarray,
    alpha: float,
    order_cache: NeighborOrderCache,
    incremental: bool,
) -> np.ndarray:
    """Batch kernel behind :func:`learn_models_for_candidates`."""
    max_ell = int(candidates.max())
    orders = order_cache.order_matrix()
    if orders.shape[1] < max_ell:
        raise ConfigurationError(
            f"requested {max_ell} neighbours but only {orders.shape[1]} are available"
        )
    return _candidate_models_from_orders(
        features, target, candidates, alpha, orders[:, :max_ell], incremental
    )


def _candidate_models_from_orders(
    features: np.ndarray,
    target: np.ndarray,
    candidates: np.ndarray,
    alpha: float,
    orders: np.ndarray,
    incremental: bool,
    first_solved: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Candidate learning over explicit ``(rows, max_ell)`` orderings.

    For each block of tuples the candidate Gram/moment statistics are built
    candidate-major, ``U`` as ``(L, rows, p, p)`` and ``V`` as ``(L, rows,
    p)``, from the neighbour-ordered design rows: per-segment batched GEMMs
    turned into prefix sums by contiguous adds over the candidate axis
    (Proposition 3) when ``incremental``, or from scratch per candidate when
    not.  The systems to solve go to one stacked ridge solve, whose output
    already has the ``(L, n, p)`` layout of the result.

    ``ℓ = 1`` (always first in a stepped grid) is the constant model of
    Section III-A2: it is written directly and sliced off before the solve.
    With ``first_solved``, only the candidates from each row's entry on are
    solved (see :func:`learn_candidate_models_for_rows`); the incremental
    variant still builds every segment, since each one feeds the prefix
    sums, and the straightforward one builds only what it solves.
    """
    p = features.shape[1] + 1
    n, max_ell = orders.shape
    n_candidates = candidates.shape[0]
    lead = int(candidates[0] == 1)

    if first_solved is None:
        all_parameters = np.empty((n_candidates, n, p))
    else:
        all_parameters = np.full((n_candidates, n, p), np.nan)

    chunk = _chunk_rows(n, max_ell, n_candidates, p)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block_orders = orders[start:stop]  # (rows, max_ell)
        rows = stop - start
        design = np.empty((rows, max_ell, p))
        design[:, :, 0] = 1.0
        design[:, :, 1:] = np.take(features, block_orders, axis=0)
        y = target[block_orders]  # (rows, max_ell)
        out = all_parameters[:, start:stop]  # (L, rows, p) view
        solve = None
        if first_solved is not None:
            # (L, rows): which (candidate, row) systems this block solves.
            solve = np.arange(n_candidates)[:, None] >= first_solved[None, start:stop]

        if lead:
            constant = slice(None) if solve is None else solve[0]
            out[0, constant] = 0.0
            out[0, constant, 0] = y[constant, 0]

        if incremental:
            U = np.empty((n_candidates, rows, p, p))
            V = np.empty((n_candidates, rows, p))
            _segment_statistics(design, y, candidates, U, V)
            # Running prefix over the candidate axis: contiguous adds.
            for index in range(1, n_candidates):
                U[index] += U[index - 1]
                V[index] += V[index - 1]
            U, V = U[lead:], V[lead:]
            if solve is None:
                U, V = U.reshape(-1, p, p), V.reshape(-1, p)
            else:
                U, V = U[solve[lead:]], V[solve[lead:]]
        else:
            # Straightforward variant: rebuild each candidate's statistics
            # from its full prefix (cost linear in ℓ per candidate, as in
            # the paper's Figure 12 baseline) — still batched over tuples.
            picks = [
                slice(None) if solve is None else solve[index]
                for index in range(lead, n_candidates)
            ]
            sizes = [rows if solve is None else int(pick.sum()) for pick in picks]
            U = np.empty((sum(sizes), p, p))
            V = np.empty((sum(sizes), p))
            offset = 0
            for ell, pick, size in zip(candidates[lead:], picks, sizes):
                prefix = design[pick, :ell]
                part = slice(offset, offset + size)
                np.matmul(prefix.transpose(0, 2, 1), prefix, out=U[part])
                V[part] = np.einsum("chp,ch->cp", prefix, y[pick, :ell])
                offset += size

        if U.shape[0]:
            solved = batched_ridge_solve(U, V, alpha=alpha, overwrite_u=True)
            if solve is None:
                out[lead:] = solved.reshape(n_candidates - lead, rows, p)
            else:
                out[lead:][solve[lead:]] = solved
    return all_parameters


def _segment_statistics(
    design: np.ndarray,
    y: np.ndarray,
    candidates: np.ndarray,
    U: np.ndarray,
    V: np.ndarray,
) -> None:
    """Fill ``U[c]``/``V[c]`` with the statistics of the Δh design rows
    between candidate ``c`` and its predecessor (Proposition 3's segments),
    one batched GEMM per segment."""
    rows, max_ell, p = design.shape
    n_candidates = candidates.shape[0]
    widths = np.diff(candidates, prepend=0)
    if n_candidates > 1 and np.all(widths[1:] == widths[1]):
        # Uniform stepping (the common schedule): fold all Δh segments
        # after the first into one batched GEMM via a reshape.
        head, step = int(widths[0]), int(widths[1])
        first = design[:, :head]
        np.matmul(first.transpose(0, 2, 1), first, out=U[0])
        V[0] = np.einsum("chp,ch->cp", first, y[:, :head])
        rest = design[:, head:max_ell].reshape(rows, n_candidates - 1, step, p)
        rest = rest.transpose(1, 0, 2, 3)  # (L - 1, rows, Δh, p)
        rest_y = y[:, head:max_ell].reshape(rows, n_candidates - 1, step)
        rest_y = rest_y.transpose(1, 0, 2)
        np.matmul(rest.transpose(0, 1, 3, 2), rest, out=U[1:])
        V[1:] = np.einsum("schp,sch->scp", rest, rest_y)
        return
    consumed = 0
    for index, ell in enumerate(candidates):
        segment = design[:, consumed:ell]  # (rows, Δh, p)
        np.matmul(segment.transpose(0, 2, 1), segment, out=U[index])
        V[index] = np.einsum("chp,ch->cp", segment, y[:, consumed:ell])
        consumed = int(ell)
