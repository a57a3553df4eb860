"""Nearest-neighbour search substrate (Formula 1 distance, brute force,
cached neighbour orderings)."""

from .brute import BruteForceNeighbors
from .distance import (
    METRICS,
    chebyshev,
    euclidean,
    get_metric,
    manhattan,
    paper_euclidean,
    pairwise_distances,
)
from .index import (
    NeighborOrderCache,
    OrderAppendResult,
    OrderRemoveResult,
    OrderRepairResult,
    OrderReplaceResult,
)

__all__ = [
    "BruteForceNeighbors",
    "NeighborOrderCache",
    "OrderAppendResult",
    "OrderRemoveResult",
    "OrderRepairResult",
    "OrderReplaceResult",
    "METRICS",
    "paper_euclidean",
    "euclidean",
    "manhattan",
    "chebyshev",
    "get_metric",
    "pairwise_distances",
]
