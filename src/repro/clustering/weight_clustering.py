"""Per-input-position weight clustering for multiplier sharing.

The paper adapts Deep Compression's weight clustering to bespoke circuits:
"by forcing weights of the same position (i.e., multiplied by the same
input) to the same value, the product can be shared among many operations
and the number of the required multiplier units decreases accordingly."

Concretely, for every Dense layer and every input position ``i`` (row ``i``
of the weight matrix), the weights ``W[i, :]`` across all neurons are
clustered into ``n_clusters`` values. After clustering, input ``i`` needs at
most ``n_clusters`` constant multipliers regardless of how many neurons it
feeds. Zero weights (pruned connections) are kept at exactly zero so
clustering never undoes pruning.

Centroid fine-tuning follows Deep Compression: gradients of weights sharing
a centroid are accumulated and applied to the shared value, implemented here
by re-projecting the weights onto their cluster structure after a standard
fine-tuning pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..datasets.preprocessing import PreparedData
from ..nn.layers import Dense
from ..nn.network import MLP
from ..nn.stacked import finetune_population
from .batched import cluster_sums, kmeans_1d_batch
from .kmeans import kmeans_1d


@dataclass
class LayerClustering:
    """Cluster structure of one Dense layer.

    Attributes:
        n_clusters: cluster budget per input position.
        centroids: list (one entry per input position) of centroid arrays.
        assignments: list of per-position assignment arrays (index into the
            position's centroid array), with ``-1`` marking zero weights that
            are excluded from clustering.
    """

    n_clusters: int
    centroids: List[np.ndarray] = field(default_factory=list)
    assignments: List[np.ndarray] = field(default_factory=list)

    def distinct_values_per_position(self) -> List[int]:
        """Number of distinct non-zero weight values at each input position."""
        return [int(np.unique(c).size) if c.size else 0 for c in self.centroids]


@dataclass
class ClusteringResult:
    """Summary of a whole-model clustering application."""

    n_clusters: int
    per_layer: List[LayerClustering]
    total_distinct_products: int
    total_connections: int

    def sharing_ratio(self) -> float:
        """Connections per instantiated multiplier (higher = more sharing)."""
        if self.total_distinct_products == 0:
            return float("inf") if self.total_connections else 1.0
        return self.total_connections / self.total_distinct_products

    def as_dict(self) -> Dict[str, object]:
        return {
            "n_clusters": self.n_clusters,
            "total_distinct_products": self.total_distinct_products,
            "total_connections": self.total_connections,
            "sharing_ratio": self.sharing_ratio(),
        }


def cluster_layer_weights(
    layer: Dense,
    n_clusters: int,
    seed: Optional[int] = None,
    per_position: bool = True,
) -> LayerClustering:
    """Cluster one Dense layer's weights in place.

    Args:
        layer: Dense layer whose weights are replaced by cluster centroids.
        n_clusters: cluster budget (per input position when ``per_position``).
        seed: clustering seed.
        per_position: cluster each input row separately (the paper's scheme,
            which enables product sharing); when False the whole weight
            matrix shares one codebook (plain Deep Compression).
    """
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    weights = layer.weights.copy()
    mask = layer.mask if layer.mask is not None else np.ones_like(weights)
    clustering = LayerClustering(n_clusters=n_clusters)

    if per_position:
        for row_index in range(weights.shape[0]):
            row = weights[row_index]
            keep = mask[row_index] != 0.0
            nonzero = row[keep]
            if nonzero.size == 0:
                clustering.centroids.append(np.array([]))
                clustering.assignments.append(np.full(row.shape, -1, dtype=int))
                continue
            result = kmeans_1d(nonzero, n_clusters, seed=seed)
            assignments = np.full(row.shape, -1, dtype=int)
            assignments[keep] = result.assignments
            row_clustered = row.copy()
            row_clustered[keep] = result.centroids[result.assignments]
            weights[row_index] = row_clustered
            clustering.centroids.append(result.centroids)
            clustering.assignments.append(assignments)
    else:
        keep = mask != 0.0
        nonzero = weights[keep]
        if nonzero.size:
            result = kmeans_1d(nonzero.reshape(-1), n_clusters, seed=seed)
            clustered = weights.copy()
            clustered[keep] = result.centroids[result.assignments]
            weights = clustered
            clustering.centroids.append(result.centroids)
            assignments = np.full(weights.shape, -1, dtype=int)
            assignments[keep] = result.assignments
            clustering.assignments.append(assignments)

    layer.weights = weights * mask
    return clustering


def cluster_model_weights(
    model: MLP,
    n_clusters: Union[int, Sequence[int]],
    seed: Optional[int] = None,
    per_position: bool = True,
) -> ClusteringResult:
    """Cluster every Dense layer of the model in place.

    Args:
        model: network whose weights are replaced by centroids.
        n_clusters: cluster budget; single int or per-layer sequence.
        seed: clustering seed.
        per_position: per-input-position clustering (paper) vs whole-layer.
    """
    dense_layers = model.dense_layers
    if isinstance(n_clusters, int):
        budgets = [n_clusters] * len(dense_layers)
    else:
        budgets = [int(b) for b in n_clusters]
        if len(budgets) != len(dense_layers):
            raise ValueError(
                f"n_clusters has {len(budgets)} entries but the model has "
                f"{len(dense_layers)} Dense layers"
            )

    per_layer: List[LayerClustering] = []
    total_products = 0
    total_connections = 0
    for layer, budget in zip(dense_layers, budgets):
        clustering = cluster_layer_weights(layer, budget, seed=seed, per_position=per_position)
        per_layer.append(clustering)
        effective = layer.effective_weights()
        total_connections += int(np.count_nonzero(effective))
        for row in effective:
            total_products += len(set(abs(float(v)) for v in row if v != 0.0))

    return ClusteringResult(
        n_clusters=max(budgets),
        per_layer=per_layer,
        total_distinct_products=total_products,
        total_connections=total_connections,
    )


def reproject_clusters(model: MLP, result: ClusteringResult) -> None:
    """Re-impose the cluster structure after a fine-tuning pass, in place.

    Weights sharing a cluster are replaced by their mean — this is the
    Deep-Compression centroid update expressed as a projection, and it keeps
    the number of distinct products per input position bounded by the
    cluster budget after fine-tuning has moved individual weights.
    """
    dense_layers = model.dense_layers
    if len(result.per_layer) != len(dense_layers):
        raise ValueError("ClusteringResult does not match the model's layer count")
    for layer, clustering in zip(dense_layers, result.per_layer):
        weights = layer.weights.copy()
        if len(clustering.assignments) == weights.shape[0]:
            # per-position clustering
            for row_index, assignments in enumerate(clustering.assignments):
                row = weights[row_index]
                clusters, counts = np.unique(
                    assignments[assignments >= 0], return_counts=True
                )
                for cluster, count in zip(clusters, counts):
                    if count < 2:
                        continue  # a singleton's mean is itself — nothing to project
                    members = assignments == cluster
                    # == row[members].mean() without the wrapper overhead.
                    selected = row[members]
                    row[members] = np.add.reduce(selected) / selected.size
                weights[row_index] = row
        elif len(clustering.assignments) == 1:
            assignments = clustering.assignments[0]
            for cluster in np.unique(assignments[assignments >= 0]):
                members = assignments == cluster
                selected = weights[members]
                weights[members] = np.add.reduce(selected) / selected.size
        mask = layer.mask if layer.mask is not None else np.ones_like(weights)
        layer.weights = weights * mask


def reproject_population_clusters(
    models: Sequence[MLP], results: Sequence[ClusteringResult]
) -> None:
    """:func:`reproject_clusters` for a population of models, in place.

    With per-position clusterings of one architecture (what
    :func:`cluster_population_weights` and a sweep's
    :func:`cluster_model_weights` produce), every row of every model is
    projected at once, each cluster's mean summed in the order
    ``reproject_clusters`` sums it (:func:`~repro.clustering.batched.cluster_sums`).
    Any other population is projected model by model.
    """
    models = list(models)
    results = list(results)
    if not models:
        return
    for model, result in zip(models, results):
        if len(result.per_layer) != len(model.dense_layers):
            raise ValueError("ClusteringResult does not match the model's layer count")
    shapes = {tuple(layer.weights.shape for layer in model.dense_layers) for model in models}
    per_position = all(
        len(clustering.assignments) == layer.weights.shape[0]
        for model, result in zip(models, results)
        for layer, clustering in zip(model.dense_layers, result.per_layer)
    )
    if len(shapes) > 1 or not per_position:
        for model, result in zip(models, results):
            reproject_clusters(model, result)
        return
    for index in range(len(models[0].dense_layers)):
        layers = [model.dense_layers[index] for model in models]
        shape = layers[0].weights.shape
        rows = np.stack([layer.weights for layer in layers]).reshape(-1, shape[1])
        assignments = np.stack(
            [np.stack(result.per_layer[index].assignments) for result in results]
        ).reshape(rows.shape)
        valid = assignments >= 0
        slots = np.maximum(assignments, 0)
        sums, counts = cluster_sums(rows, valid, assignments, int(slots.max(initial=0)) + 1)
        means = np.take_along_axis(sums / np.maximum(counts, 1), slots, axis=1)
        shared = valid & (np.take_along_axis(counts, slots, axis=1) >= 2)
        projected = np.where(shared, means, rows).reshape((len(models),) + shape)
        for layer, weights in zip(layers, projected):
            mask = layer.mask if layer.mask is not None else np.ones_like(weights)
            layer.weights = weights * mask


def cluster_and_finetune(
    model: MLP,
    data: PreparedData,
    n_clusters: Union[int, Sequence[int]],
    epochs: int = 15,
    learning_rate: float = 0.002,
    seed: Optional[int] = None,
    per_position: bool = True,
) -> ClusteringResult:
    """Cluster, fine-tune, and re-project — the full clustering flow, in place.

    The cluster structure is re-imposed after every fine-tuning epoch, which
    approximates Deep Compression's tied-centroid training: weights sharing a
    centroid can only move together (their individual updates are averaged by
    the projection), so the final model satisfies the sharing constraint with
    no post-hoc accuracy drop.
    """
    return cluster_and_finetune_population(
        [model],
        data,
        [n_clusters],
        epochs=epochs,
        learning_rate=learning_rate,
        seed=seed,
        per_position=per_position,
    )[0]


def cluster_and_finetune_population(
    models: Sequence[MLP],
    data: PreparedData,
    n_clusters: Sequence[Union[int, Sequence[int]]],
    epochs: int = 15,
    learning_rate: float = 0.002,
    seed: Optional[int] = None,
    per_position: bool = True,
) -> List[ClusteringResult]:
    """:func:`cluster_and_finetune` for several models (one budget each), in place.

    Each model is clustered on its own with :func:`cluster_model_weights`;
    the per-epoch fine-tuning then trains all of them as one stack
    (:func:`~repro.nn.stacked.finetune_population`) before every model is
    re-projected. Model ``g`` ends exactly as
    ``cluster_and_finetune(models[g], data, n_clusters[g], ...)`` leaves it
    when run alone.
    """
    models = list(models)
    if len(n_clusters) != len(models):
        raise ValueError(f"Got {len(n_clusters)} cluster budgets for {len(models)} models")
    results = [
        cluster_model_weights(model, budget, seed=seed, per_position=per_position)
        for model, budget in zip(models, n_clusters)
    ]
    for epoch in range(int(epochs)):
        finetune_population(
            models,
            data.train.features,
            data.train.labels,
            data.validation.features,
            data.validation.labels,
            epochs=1,
            learning_rate=learning_rate * (0.85**epoch),
            seeds=[None if seed is None else seed + epoch] * len(models),
        )
        reproject_population_clusters(models, results)
    return results


def cluster_population_weights(
    models: Sequence[MLP],
    n_clusters: Sequence[Union[int, Sequence[int]]],
    seeds: Sequence[Optional[int]],
) -> List[ClusteringResult]:
    """Per-position :func:`cluster_model_weights` for a population, in place.

    The models must share one architecture (a GA population of baseline
    clones does). Every input row of every Dense layer of every model is one
    clustering problem, and all of them are solved in one
    :func:`~repro.clustering.batched.kmeans_1d_batch` call. Model ``g`` ends
    with the weights and the :class:`ClusteringResult` that
    ``cluster_model_weights(models[g], n_clusters[g], seed=seeds[g])``
    produces; that per-model path stays the reference.
    """
    models = list(models)
    if len(n_clusters) != len(models) or len(seeds) != len(models):
        raise ValueError("n_clusters and seeds need one entry per model")
    if not models:
        return []
    n_layers = len(models[0].dense_layers)
    budgets = np.array([_layer_budgets(budget, n_layers) for budget in n_clusters])
    if budgets.size and budgets.min() < 1:
        raise ValueError(f"n_clusters must be >= 1, got {int(budgets.min())}")

    # One block per layer index: the population's rows of that layer. Each
    # row with a kept weight is a problem, packed left in original order.
    width = max(layer.weights.shape[1] for layer in models[0].dense_layers)
    blocks, values, sizes, problem_budgets, problem_seeds = [], [], [], [], []
    for index in range(n_layers):
        layers = [model.dense_layers[index] for model in models]
        weights = np.stack([layer.weights for layer in layers])
        masks = np.stack(
            [
                layer.mask if layer.mask is not None else np.ones_like(layer.weights)
                for layer in layers
            ]
        )
        n_rows, n_columns = weights.shape[1:]
        rows = weights.reshape(-1, n_columns)
        keep = masks.reshape(-1, n_columns) != 0.0
        order = np.argsort(~keep, axis=1, kind="stable")
        solved = keep.any(axis=1)
        packed = np.take_along_axis(rows, order, axis=1)[solved]
        values.append(np.pad(packed, ((0, 0), (0, width - n_columns))))
        sizes.append(keep.sum(axis=1)[solved])
        problem_budgets.append(np.repeat(budgets[:, index], n_rows)[solved])
        problem_seeds.extend(np.repeat(np.array(seeds, dtype=object), n_rows)[solved])
        blocks.append((layers, masks, rows, order, solved))
    result = kmeans_1d_batch(
        np.concatenate(values),
        np.concatenate(sizes),
        np.concatenate(problem_budgets),
        problem_seeds,
    )

    per_model: List[List[LayerClustering]] = [[] for _ in models]
    first = 0
    for index, (layers, masks, rows, order, solved) in enumerate(blocks):
        solved_problems = first + np.arange(int(solved.sum()))
        first += solved_problems.size
        packed = np.full(rows.shape, -1, dtype=np.intp)
        packed[solved] = result.assignments[solved_problems, : rows.shape[1]]
        assignments = np.empty_like(packed)
        np.put_along_axis(assignments, order, packed, axis=1)
        centroids = np.zeros((rows.shape[0], result.centroids.shape[1]))
        centroids[solved] = result.centroids[solved_problems]
        clustered = np.where(
            assignments >= 0,
            np.take_along_axis(centroids, np.maximum(assignments, 0), axis=1),
            rows,
        ).reshape(masks.shape) * masks
        assignments = assignments.reshape(masks.shape)
        solved = solved.reshape(masks.shape[:2])
        problems = iter(solved_problems)
        for model_index, layer in enumerate(layers):
            layer.weights = clustered[model_index]
            clustering = LayerClustering(n_clusters=int(budgets[model_index, index]))
            for row_index, row_solved in enumerate(solved[model_index]):
                clustering.centroids.append(
                    result.problem_centroids(next(problems)) if row_solved else np.array([])
                )
                clustering.assignments.append(assignments[model_index, row_index].astype(int))
            per_model[model_index].append(clustering)

    return _clustering_summaries(models, per_model, budgets)


def _layer_budgets(n_clusters: Union[int, Sequence[int]], n_layers: int) -> List[int]:
    """Per-Dense-layer cluster budgets from an int or a per-layer sequence."""
    if isinstance(n_clusters, int):
        return [n_clusters] * n_layers
    budgets = [int(b) for b in n_clusters]
    if len(budgets) != n_layers:
        raise ValueError(
            f"n_clusters has {len(budgets)} entries but the model has "
            f"{n_layers} Dense layers"
        )
    return budgets


def _clustering_summaries(
    models: Sequence[MLP],
    per_model: List[List[LayerClustering]],
    budgets: np.ndarray,
) -> List[ClusteringResult]:
    """The :class:`ClusteringResult` of each already clustered model.

    The totals are :func:`cluster_model_weights`' per-row set counts,
    computed for the whole population at once: the distinct non-zero
    ``|w|`` of a row are the run starts of its sorted magnitudes.
    """
    products = np.zeros(len(models), dtype=np.int64)
    connections = np.zeros(len(models), dtype=np.int64)
    for index in range(budgets.shape[1]):
        effective = np.stack([model.dense_layers[index].effective_weights() for model in models])
        connections += np.count_nonzero(effective, axis=(1, 2))
        magnitudes = np.sort(np.abs(effective), axis=2)
        starts = magnitudes != 0.0
        starts[..., 1:] &= magnitudes[..., 1:] != magnitudes[..., :-1]
        products += starts.sum(axis=(1, 2))
    return [
        ClusteringResult(
            n_clusters=int(model_budgets.max()),
            per_layer=layers,
            total_distinct_products=int(model_products),
            total_connections=int(model_connections),
        )
        for layers, model_budgets, model_products, model_connections in zip(
            per_model, budgets, products, connections
        )
    ]


def distinct_products(model: MLP) -> int:
    """Total distinct non-zero |weight| values summed over all input positions."""
    total = 0
    for layer in model.dense_layers:
        for row in layer.effective_weights():
            total += len(set(abs(float(v)) for v in row if v != 0.0))
    return total
