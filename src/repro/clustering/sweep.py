"""Cluster-count sweeps: the weight-clustering Pareto curve of Figure 1.

The paper produces its clustering Pareto points by "executing the algorithm
[Deep Compression] for a selected range of clusters". Each cluster budget is
evaluated independently from a fresh clone of the trained baseline:
cluster → fine-tune → re-project → measure accuracy → synthesize. Each
fine-tuning epoch trains every budget's model as one stack
(:func:`~repro.clustering.weight_clustering.cluster_and_finetune_population`),
with the same weights per budget as a separate ``cluster_and_finetune``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..bespoke.circuit import BespokeConfig
from ..bespoke.synthesis import synthesize_cost_only
from ..core.results import DesignPoint
from ..datasets.preprocessing import PreparedData
from ..hardware.technology import TechnologyLibrary
from ..nn.network import MLP
from .weight_clustering import cluster_and_finetune_population

#: Cluster budgets examined by the clustering sweep (per input position).
PAPER_CLUSTER_RANGE: Sequence[int] = (2, 3, 4, 6, 8)


def clustering_sweep(
    model: MLP,
    data: PreparedData,
    cluster_range: Sequence[int] = PAPER_CLUSTER_RANGE,
    input_bits: int = 4,
    weight_bits: int = 8,
    finetune_epochs: int = 15,
    per_position: bool = True,
    tech: Optional[TechnologyLibrary] = None,
    seed: Optional[int] = None,
) -> List[DesignPoint]:
    """Evaluate one clustered design per cluster budget.

    Args:
        model: trained float baseline (cloned per budget).
        data: prepared dataset split.
        cluster_range: cluster budgets per input position.
        input_bits: circuit input bit-width.
        weight_bits: weight bit-width (clustering alone keeps the baseline's
            8-bit precision; only the number of distinct values shrinks).
        finetune_epochs: post-clustering fine-tuning epochs.
        per_position: per-input-position clustering (the paper's scheme).
        tech: technology library for synthesis.
        seed: clustering / fine-tuning seed.
    """
    candidates = [model.clone() for _ in cluster_range]
    results = cluster_and_finetune_population(
        candidates,
        data,
        [int(n_clusters) for n_clusters in cluster_range],
        epochs=finetune_epochs,
        seed=seed,
        per_position=per_position,
    )
    points: List[DesignPoint] = []
    for n_clusters, candidate, result in zip(cluster_range, candidates, results):
        accuracy = candidate.evaluate_accuracy(data.test.features, data.test.labels)
        report = synthesize_cost_only(
            candidate,
            config=BespokeConfig(input_bits=input_bits, weight_bits=weight_bits),
            tech=tech,
            name=f"{data.train.name}_c{n_clusters}",
        )
        points.append(
            DesignPoint(
                technique="clustering",
                accuracy=float(accuracy),
                area=report.area,
                power=report.power,
                delay=report.delay,
                parameters={
                    "n_clusters": int(n_clusters),
                    "per_position": per_position,
                    "sharing_ratio": result.sharing_ratio(),
                    "weight_bits": weight_bits,
                },
                report=report,
            )
        )
    return points
