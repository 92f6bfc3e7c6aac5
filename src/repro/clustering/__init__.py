"""Weight clustering: 1-D k-means (one problem or a population), per-position sharing, sweeps."""

from .batched import BatchedKMeansResult, kmeans_1d_batch
from .kmeans import KMeansResult, cluster_and_replace, kmeans_1d
from .sweep import PAPER_CLUSTER_RANGE, clustering_sweep
from .weight_clustering import (
    ClusteringResult,
    LayerClustering,
    cluster_and_finetune,
    cluster_and_finetune_population,
    cluster_layer_weights,
    cluster_model_weights,
    cluster_population_weights,
    distinct_products,
    reproject_clusters,
    reproject_population_clusters,
)

__all__ = [
    "BatchedKMeansResult",
    "ClusteringResult",
    "KMeansResult",
    "LayerClustering",
    "PAPER_CLUSTER_RANGE",
    "cluster_and_finetune",
    "cluster_and_finetune_population",
    "cluster_and_replace",
    "cluster_layer_weights",
    "cluster_model_weights",
    "cluster_population_weights",
    "clustering_sweep",
    "distinct_products",
    "kmeans_1d",
    "kmeans_1d_batch",
    "reproject_clusters",
    "reproject_population_clusters",
]
