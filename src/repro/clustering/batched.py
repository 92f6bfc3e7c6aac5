"""Population-wide 1-D k-means: many small clustering problems in one pass.

:func:`~repro.clustering.kmeans.kmeans_1d` clusters one weight row at a
time. A stacked GA generation clusters every row of every layer of every
genome: thousands of problems of a handful of values each, where numpy
dispatch rather than arithmetic is the cost. :func:`kmeans_1d_batch` runs
Lloyd's algorithm on all of them as ``(P, N)`` padded arrays and reproduces
``kmeans_1d`` bit for bit, problem by problem:

* ``k = min(n_clusters, distinct values)``. When ``k`` equals the distinct
  count the centroids start as the sorted distinct values and no
  randomness is used.
* Otherwise k-means++ seeding runs per problem, through the oracle's own
  ``_kmeans_plus_plus_init``, on a generator restored to the state a fresh
  ``default_rng(seed)`` starts in, so every RNG call is the oracle's.
* Assignment is an ``argmin`` over ``|value - centroid|``: a tie goes to
  the lower centroid index, and padding centroids sit at ``+inf``.
* Centroid sums replay numpy's summation order. A cluster of fewer than 8
  members is a sequential fold from ``0.0`` in original value order (what
  ``bincount`` and a short ``add.reduce`` both compute); from 8 members up
  it is numpy's 8-lane pairwise sum; above numpy's 128-element pairwise
  block the sum calls ``np.add.reduce`` itself.
* An empty cluster keeps its centroid. Each problem stops on its own, once
  its largest centroid movement drops below ``kmeans.TOLERANCE`` or after
  ``kmeans.MAX_ITERATIONS`` (``kmeans_1d``'s defaults).
* Centroids are sorted and assignments remapped; problems with tied
  centroids are re-sorted with the oracle's per-row ``argsort``.

Values are assumed finite and free of ``-0.0`` next to ``+0.0`` (which
``np.unique`` treats as one value in an unspecified order).
``tests/test_clustering_batched.py`` checks the kernel against the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .kmeans import MAX_ITERATIONS, TOLERANCE, _kmeans_plus_plus_init

#: Accumulator lanes of numpy's pairwise float summation.
_LANES = 8
#: numpy's pairwise block: longer sums recurse, and are left to numpy.
_PAIRWISE_BLOCK = 128


@dataclass(frozen=True)
class BatchedKMeansResult:
    """Result of :func:`kmeans_1d_batch` over ``P`` problems.

    Attributes:
        centroids: ``(P, K)``; row ``p`` holds problem ``p``'s centroids in
            ascending order in its first ``n_clusters[p]`` slots (the rest
            are ``0.0``).
        assignments: ``(P, N)``; centroid index of each of the problem's
            values, ``-1`` past the problem's size.
        n_clusters: ``(P,)`` effective cluster counts.
        n_iterations: ``(P,)`` Lloyd iterations each problem ran.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    n_clusters: np.ndarray
    n_iterations: np.ndarray

    def problem_centroids(self, index: int) -> np.ndarray:
        """Problem ``index``'s sorted centroids, as ``kmeans_1d`` returns them."""
        return self.centroids[index, : self.n_clusters[index]].copy()


def kmeans_1d_batch(
    values: np.ndarray,
    sizes: Sequence[int],
    n_clusters: Sequence[int],
    seeds: Sequence[Optional[int]],
) -> BatchedKMeansResult:
    """Cluster ``P`` independent 1-D problems at once (k-means++ init).

    Args:
        values: ``(P, N)``; problem ``p`` is ``values[p, :sizes[p]]`` in
            its original order, the rest of the row is ignored.
        sizes: ``(P,)`` problem sizes, each in ``[1, N]``.
        n_clusters: ``(P,)`` cluster budgets, each ``>= 1``.
        seeds: ``(P,)`` k-means++ seeds, as ``kmeans_1d``'s ``seed``.

    Returns:
        A :class:`BatchedKMeansResult`; problem ``p`` matches
        ``kmeans_1d(values[p, :sizes[p]], n_clusters[p], seed=seeds[p])``.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"values must be (P, N), got shape {values.shape}")
    n_problems, width = values.shape
    sizes = np.asarray(sizes, dtype=np.intp).reshape(-1)
    budgets = np.asarray(n_clusters, dtype=np.intp).reshape(-1)
    if sizes.size != n_problems or budgets.size != n_problems or len(seeds) != n_problems:
        raise ValueError("sizes, n_clusters and seeds need one entry per problem")
    if n_problems and (sizes.min() < 1 or sizes.max() > width):
        raise ValueError("Cannot cluster an empty problem (sizes must be in [1, N])")
    if n_problems and budgets.min() < 1:
        raise ValueError("n_clusters must be >= 1")

    valid = np.arange(width) < sizes[:, None]
    values = np.where(valid, values, 0.0)

    # Distinct values: sorted, padding at +inf after every real value.
    ordered = np.sort(np.where(valid, values, np.inf), axis=1)
    first = valid.copy()
    first[:, 1:] &= ordered[:, 1:] != ordered[:, :-1]
    distinct = first.sum(axis=1)
    k = np.minimum(budgets, distinct)
    n_slots = max(int(k.max(initial=0)), 1)
    slot_valid = np.arange(n_slots) < k[:, None]

    centroids = np.zeros((n_problems, n_slots))
    exact = k == distinct
    rows, cols = np.nonzero(first & exact[:, None])
    centroids[rows, (np.cumsum(first, axis=1) - 1)[rows, cols]] = ordered[rows, cols]
    _seed_plus_plus(centroids, values, sizes, k, seeds, np.flatnonzero(~exact))

    assignments = _assign(values, centroids, slot_valid)
    iterations = np.zeros(n_problems, dtype=np.intp)
    active = np.arange(n_problems)
    for iteration in range(1, MAX_ITERATIONS + 1):
        if active.size == 0:
            break
        active_values = values[active]
        current = centroids[active]
        updated = _update_centroids(active_values, valid[active], assignments[active], current)
        movement = np.abs(updated - current).max(axis=1, initial=0.0)
        centroids[active] = updated
        assignments[active] = _assign(active_values, updated, slot_valid[active])
        iterations[active] = iteration
        active = active[~(movement < TOLERANCE)]

    # Sort centroids and remap assignments for the canonical result.
    padded = np.where(slot_valid, centroids, np.inf)
    order = np.argsort(padded, axis=1, kind="stable")
    ranked = np.take_along_axis(padded, order, axis=1)
    tied = (slot_valid[:, 1:] & (ranked[:, 1:] == ranked[:, :-1])).any(axis=1)
    for problem in np.flatnonzero(tied):
        # Which of two equal centroids comes first is the oracle's sort's call.
        count = k[problem]
        order[problem, :count] = np.argsort(centroids[problem, :count])
    sorted_centroids = np.where(slot_valid, np.take_along_axis(centroids, order, axis=1), 0.0)
    remap = np.empty_like(order)
    np.put_along_axis(remap, order, np.broadcast_to(np.arange(n_slots), order.shape), axis=1)
    assignments = np.where(
        valid, np.take_along_axis(remap, np.where(valid, assignments, 0), axis=1), -1
    )
    return BatchedKMeansResult(
        centroids=sorted_centroids,
        assignments=assignments,
        n_clusters=k,
        n_iterations=iterations,
    )


def _seed_plus_plus(
    centroids: np.ndarray,
    values: np.ndarray,
    sizes: np.ndarray,
    k: np.ndarray,
    seeds: Sequence[Optional[int]],
    problems: np.ndarray,
) -> None:
    """k-means++ seeding, one problem at a time, on per-seed restored generators.

    ``kmeans_1d`` builds a fresh ``default_rng(seed)`` per call; restoring
    the saved initial state of one generator per distinct seed replays
    exactly that stream without re-deriving it from the seed every time.
    """
    generators = {}
    for problem in problems:
        seed = seeds[problem]
        if seed is None:
            rng = np.random.default_rng()
        elif seed in generators:
            rng, state = generators[seed]
            rng.bit_generator.state = state
        else:
            rng = np.random.default_rng(seed)
            generators[seed] = (rng, rng.bit_generator.state)
        count = int(k[problem])
        centroids[problem, :count] = _kmeans_plus_plus_init(
            values[problem, : sizes[problem]], count, rng
        )


def _assign(values: np.ndarray, centroids: np.ndarray, slot_valid: np.ndarray) -> np.ndarray:
    """Nearest-centroid index of every value (first index on ties)."""
    candidates = np.where(slot_valid, centroids, np.inf)
    return np.argmin(np.abs(values[:, :, None] - candidates[:, None, :]), axis=2)


def _update_centroids(
    values: np.ndarray, valid: np.ndarray, assignments: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """One Lloyd centroid update: member means; an empty cluster stays put."""
    sums, counts = cluster_sums(values, valid, assignments, centroids.shape[1])
    return np.where(counts > 0, sums / np.maximum(counts, 1), centroids)


def cluster_sums(
    values: np.ndarray, valid: np.ndarray, assignments: np.ndarray, n_slots: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Member sums and counts of every (problem, cluster), in numpy's own order.

    ``values``/``valid``/``assignments`` are ``(P, N)``; the result is two
    ``(P, n_slots)`` arrays. Sum ``[p, c]`` is bit-identical to
    ``np.add.reduce(values[p][valid[p] & (assignments[p] == c)])``, i.e.
    also to ``bincount``'s sum while the cluster has fewer than 8 members
    (see the module docstring).
    """
    member = (assignments[:, :, None] == np.arange(n_slots)) & valid[:, :, None]
    counts = member.sum(axis=1)
    # Sequential fold from 0.0; adding -0.0 leaves every partial sum as is.
    sums = np.zeros(counts.shape)
    for column in range(values.shape[1]):
        sums += np.where(member[:, column], values[:, column, None], -0.0)
    large = counts >= _LANES
    if large.any():
        sums = np.where(large, _pairwise_sums(values, member, counts), sums)
        for problem, slot in zip(*np.nonzero(counts > _PAIRWISE_BLOCK)):
            sums[problem, slot] = np.add.reduce(values[problem, member[problem, :, slot]])
    return sums, counts


def _pairwise_sums(values: np.ndarray, member: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """numpy's pairwise sum of each cluster's members, for 8..128 members.

    Members ``0 .. n - n % 8 - 1`` accumulate into lane ``rank % 8`` (the
    first eight initialize the lanes); the lanes combine as
    ``((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))``; the remaining ``n % 8``
    members are then added one by one, and the reduction adds the result
    to its ``0.0`` identity.
    """
    rank = np.cumsum(member, axis=1) - 1
    lane_end = counts - counts % _LANES
    lane_ids = np.arange(_LANES)
    lanes = np.full(counts.shape + (_LANES,), -0.0)
    for column in range(values.shape[1]):
        in_lane = member[:, column] & (rank[:, column] < lane_end)
        hit = in_lane[:, :, None] & ((rank[:, column] % _LANES)[:, :, None] == lane_ids)
        lanes += np.where(hit, values[:, column, None, None], -0.0)
    total = ((lanes[..., 0] + lanes[..., 1]) + (lanes[..., 2] + lanes[..., 3])) + (
        (lanes[..., 4] + lanes[..., 5]) + (lanes[..., 6] + lanes[..., 7])
    )
    for column in range(values.shape[1]):
        tail = member[:, column] & (rank[:, column] >= lane_end)
        total += np.where(tail, values[:, column, None], -0.0)
    return 0.0 + total
