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
  Proposition 3 as *prefix sums* (per-Δh-segment batched GEMMs accumulated
  by ``cumsum`` along the candidate axis) and resolves every
  ``(candidate × tuple)`` ridge system with one batched
  :func:`~repro.regression.batched.batched_ridge_solve`.  Blocks are chunked
  over tuples so the scratch memory stays bounded.
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
    return _candidate_models_from_orders(
        features, target, candidates, alpha, orders[:, :max_ell], incremental
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
) -> np.ndarray:
    """Candidate learning over explicit ``(rows, max_ell)`` orderings.

    For each block of tuples the candidate Gram/moment statistics are built
    from the neighbour-ordered design rows — per-segment batched GEMMs
    turned into prefix sums by a ``cumsum`` over the candidate axis
    (Proposition 3) when ``incremental``, or from scratch per candidate when
    not — and solved as one stacked ridge system.
    """
    d = features.shape[1]
    p = d + 1
    n = orders.shape[0]
    max_ell = orders.shape[1]
    n_candidates = candidates.shape[0]

    all_parameters = np.empty((n_candidates, n, p))

    chunk = _chunk_rows(n, max_ell, n_candidates, p)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block_orders = orders[start:stop]  # (c, max_ell)
        design = np.empty((stop - start, max_ell, p))
        design[:, :, 0] = 1.0
        design[:, :, 1:] = features[block_orders]
        y = target[block_orders]  # (c, max_ell)

        c = stop - start
        U = np.empty((c, n_candidates, p, p))
        V = np.empty((c, n_candidates, p))
        if incremental:
            # Proposition 3 as segment sums: each candidate adds only the
            # Δh design rows between it and its predecessor (one batched
            # GEMM per segment), then a cumsum over the L segments turns
            # them into the per-candidate prefix statistics.
            widths = np.diff(candidates, prepend=0)
            if n_candidates > 1 and np.all(widths[1:] == widths[1]):
                # Uniform stepping (the common schedule): fold all Δh
                # segments into one batched GEMM via a reshape.
                head = int(widths[0])
                step = int(widths[1])
                first = design[:, :head]
                U[:, 0] = first.transpose(0, 2, 1) @ first
                V[:, 0] = np.einsum("chp,ch->cp", first, y[:, :head])
                rest = design[:, head:max_ell].reshape(c, n_candidates - 1, step, p)
                rest_y = y[:, head:max_ell].reshape(c, n_candidates - 1, step)
                U[:, 1:] = rest.transpose(0, 1, 3, 2) @ rest
                V[:, 1:] = np.einsum("cshp,csh->csp", rest, rest_y)
            else:
                consumed = 0
                for index, ell in enumerate(candidates):
                    segment = design[:, consumed:ell]  # (c, Δh, p)
                    U[:, index] = segment.transpose(0, 2, 1) @ segment
                    V[:, index] = np.einsum("chp,ch->cp", segment, y[:, consumed:ell])
                    consumed = int(ell)
            # Running prefix over the candidate axis (sequential in-place
            # adds beat np.cumsum's strided inner loop for small L).
            for index in range(1, n_candidates):
                U[:, index] += U[:, index - 1]
                V[:, index] += V[:, index - 1]
        else:
            # Straightforward variant: rebuild each candidate's statistics
            # from its full prefix (cost linear in ℓ per candidate, as in
            # the paper's Figure 12 baseline) — still batched over tuples.
            for index, ell in enumerate(candidates):
                prefix = design[:, :ell]
                U[:, index] = prefix.transpose(0, 2, 1) @ prefix
                V[:, index] = np.einsum("chp,ch->cp", prefix, y[:, :ell])

        solved = batched_ridge_solve(
            U,
            V,
            alpha=alpha,
            counts=candidates[None, :],
            first_targets=y[:, :1],
            overwrite_u=True,
        )  # (c, L, p)
        all_parameters[:, start:stop] = solved.transpose(1, 0, 2)
    return all_parameters
