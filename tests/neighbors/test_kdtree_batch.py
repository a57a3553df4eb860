"""Batched KD-tree queries: identical to brute force and the scalar search."""

import numpy as np
import pytest

from repro import config
from repro.neighbors import BruteForceNeighbors, KDTreeNeighbors, NeighborIndex

RNG = np.random.default_rng(11)


@pytest.mark.parametrize("n,d,leaf_size", [(64, 2, 4), (200, 3, 8), (500, 5, 32)])
@pytest.mark.parametrize("exclude_self", [False, True])
def test_batch_queries_match_brute_force(n, d, leaf_size, exclude_self):
    data = RNG.normal(size=(n, d))
    data[10] = data[3]  # duplicates force distance ties
    data[11] = data[3]
    tree = KDTreeNeighbors(leaf_size=leaf_size).fit(data)
    brute = BruteForceNeighbors().fit(data)
    queries = np.vstack([RNG.normal(size=(30, d)), data[:15]])
    for k in (1, 7, 19):
        brute_dist, brute_idx = brute.kneighbors(queries, k, exclude_self=exclude_self)
        tree_dist, tree_idx = tree.kneighbors(queries, k, exclude_self=exclude_self)
        np.testing.assert_array_equal(tree_idx, brute_idx)
        np.testing.assert_allclose(tree_dist, brute_dist, rtol=1e-12, atol=1e-12)


def test_batch_and_loop_backends_agree():
    data = RNG.normal(size=(150, 3))
    tree = KDTreeNeighbors(leaf_size=8).fit(data)
    queries = RNG.normal(size=(40, 3))
    dist_v, idx_v = tree.kneighbors(queries, 9, backend="vectorized")
    dist_l, idx_l = tree.kneighbors(queries, 9, backend="loop")
    np.testing.assert_array_equal(idx_v, idx_l)
    # The batch kernel contracts squared differences with einsum, the scalar
    # path with np.sum — identical up to one ulp of association error.
    np.testing.assert_allclose(dist_v, dist_l, rtol=1e-12)


def test_constructor_backend_and_global_knob():
    data = RNG.normal(size=(80, 3))
    queries = RNG.normal(size=(12, 3))
    reference = KDTreeNeighbors(leaf_size=8).fit(data).kneighbors(queries, 5)
    pinned = KDTreeNeighbors(leaf_size=8, backend="loop").fit(data)
    with config.override("backend", "vectorized"):
        dist, idx = pinned.kneighbors(queries, 5)
    np.testing.assert_array_equal(idx, reference[1])
    with config.override("backend", "loop"):
        dist, idx = KDTreeNeighbors(leaf_size=8).fit(data).kneighbors(queries, 5)
    np.testing.assert_array_equal(idx, reference[1])


def test_neighbor_index_kdtree_serves_batches():
    """The facade's kdtree backend answers batch queries like brute force."""
    data = RNG.normal(size=(220, 4))
    queries = np.vstack([RNG.normal(size=(25, 4)), data[:5]])
    kdtree_index = NeighborIndex(backend="kdtree", leaf_size=16).fit(data)
    brute_index = NeighborIndex(backend="brute").fit(data)
    for k in (1, 6, 12):
        kd_dist, kd_idx = kdtree_index.kneighbors(queries, k)
        br_dist, br_idx = brute_index.kneighbors(queries, k)
        np.testing.assert_array_equal(kd_idx, br_idx)
        np.testing.assert_allclose(kd_dist, br_dist, rtol=1e-12, atol=1e-12)
    kd_dist, kd_idx = kdtree_index.kneighbors(data[:30], 4, exclude_self=True)
    br_dist, br_idx = brute_index.kneighbors(data[:30], 4, exclude_self=True)
    np.testing.assert_array_equal(kd_idx, br_idx)
