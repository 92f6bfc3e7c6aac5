"""One-dimensional k-means for weight clustering.

Deep-Compression-style weight clustering only ever clusters scalar weight
values, so a dedicated 1-D Lloyd's algorithm with k-means++ seeding is both
simpler and faster than a general implementation. Cluster counts in printed
MLPs are tiny (2–16), which keeps everything exact and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

#: Default Lloyd iteration cap of :func:`kmeans_1d`.
MAX_ITERATIONS = 100
#: Default convergence threshold on the largest centroid movement.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class KMeansResult:
    """Result of a 1-D k-means run.

    Attributes:
        centroids: sorted cluster centres, shape ``(k,)``.
        assignments: index of the centroid assigned to each input value.
        inertia: sum of squared distances to the assigned centroids.
        n_iterations: Lloyd iterations executed.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    n_iterations: int


def _kmeans_plus_plus_init(
    values: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding on 1-D data.

    The distance-to-nearest-centroid vector is maintained incrementally
    (one ``minimum`` against each new centroid) instead of re-reducing the
    full distance matrix per step; ``min`` is exact, so the probabilities —
    and therefore the RNG consumption — are unchanged.
    """
    centroids = np.empty(k, dtype=np.float64)
    centroids[0] = values[rng.integers(len(values))]
    distances = np.abs(values - centroids[0])
    for index in range(1, k):
        squared = distances**2
        total = squared.sum()
        if total == 0.0:
            centroids[index:] = centroids[0]
            break
        probabilities = squared / total
        centroids[index] = values[rng.choice(len(values), p=probabilities)]
        np.minimum(distances, np.abs(values - centroids[index]), out=distances)
    return centroids


def _assign(values: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return np.argmin(np.abs(values.reshape(-1, 1) - centroids.reshape(1, -1)), axis=1)


def kmeans_1d(
    values: np.ndarray,
    n_clusters: int,
    max_iterations: int = MAX_ITERATIONS,
    tolerance: float = TOLERANCE,
    seed: Optional[int] = None,
    init: str = "kmeans++",
) -> KMeansResult:
    """Cluster scalar values into ``n_clusters`` groups with Lloyd's algorithm.

    Args:
        values: 1-D array of values to cluster.
        n_clusters: number of clusters; clipped to the number of distinct
            values (extra clusters would stay empty).
        max_iterations: Lloyd iteration cap.
        tolerance: convergence threshold on centroid movement.
        seed: RNG seed for the initialization.
        init: ``"kmeans++"`` (default), ``"linear"`` (evenly spaced over the
            value range — the Deep Compression initialization), or
            ``"quantile"`` (evenly spaced quantiles).

    Returns:
        A :class:`KMeansResult` with centroids sorted ascending and
        assignments remapped accordingly.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if values.size == 0:
        raise ValueError("Cannot cluster an empty array")
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    if init not in ("kmeans++", "linear", "quantile"):
        raise ValueError(f"Unknown init '{init}'")

    distinct = np.unique(values)
    k = min(n_clusters, distinct.size)

    if k == distinct.size:
        centroids = distinct.astype(np.float64).copy()
    elif init == "kmeans++":
        # The generator is built lazily: the exact-codebook branch above
        # consumes no randomness, and constructing an unused generator was a
        # measurable share of the per-position clustering cost.
        centroids = _kmeans_plus_plus_init(values, k, np.random.default_rng(seed))
    elif init == "linear":
        centroids = np.linspace(values.min(), values.max(), k)
    else:  # quantile
        centroids = np.quantile(values, np.linspace(0.0, 1.0, k))

    assignments = _assign(values, centroids)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        counts = np.bincount(assignments, minlength=k)
        if int(counts.max()) < 8:
            # Vectorized centroid update. For fewer than 8 members numpy's
            # reduction is a plain sequential loop, and ``bincount`` sums
            # member values sequentially in the same (original) order, so
            # ``sums/counts`` is bit-identical to the per-cluster
            # ``members.mean()`` below; at >= 8 members numpy switches to an
            # unrolled multi-accumulator sum and only the loop is faithful.
            sums = np.bincount(assignments, weights=values, minlength=k)
            quotients = sums / np.maximum(counts, 1)
            new_centroids = np.where(counts > 0, quotients, centroids)
        else:
            new_centroids = centroids.copy()
            for cluster in range(k):
                members = values[assignments == cluster]
                if members.size:
                    # == members.mean() (same pairwise sum, same divide)
                    # without the ndarray.mean wrapper overhead.
                    new_centroids[cluster] = np.add.reduce(members) / members.size
        movement = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        assignments = _assign(values, centroids)
        if movement < tolerance:
            break

    # Sort centroids and remap assignments for a canonical result.
    order = np.argsort(centroids)
    centroids = centroids[order]
    remap = np.empty_like(order)
    remap[order] = np.arange(k)
    assignments = remap[assignments]

    inertia = float(np.sum((values - centroids[assignments]) ** 2))
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        inertia=inertia,
        n_iterations=iterations,
    )


def cluster_and_replace(
    values: np.ndarray,
    n_clusters: int,
    seed: Optional[int] = None,
    init: str = "kmeans++",
) -> Tuple[np.ndarray, KMeansResult]:
    """Cluster ``values`` and return them with each value replaced by its centroid."""
    original_shape = np.asarray(values).shape
    result = kmeans_1d(np.asarray(values).reshape(-1), n_clusters, seed=seed, init=init)
    replaced = result.centroids[result.assignments].reshape(original_shape)
    return replaced, result
