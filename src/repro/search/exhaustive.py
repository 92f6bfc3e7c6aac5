"""Exhaustive and random-sampling baselines for the combined search.

Two design-space exploration strategies simpler than the paper's GA, over
the same genome space:

* :func:`random_search` — uniform random sampling with the same evaluation
  budget as the GA.
* :func:`grid_search` — an exhaustive sweep over a reduced grid (only
  layer-uniform genomes), which is feasible because printed MLPs have very
  few layers.

Both route their evaluations through the shared engine
(:func:`repro.search.parallel.create_evaluator`), so they inherit its
caching, per-genome seeding and optional process-pool fan-out. The set of
genomes evaluated depends only on the sampling RNG, never on the worker
count, so parallel runs return the same points as serial ones.
"""

from __future__ import annotations

from itertools import product
from typing import List, Optional, Sequence

import numpy as np

from ..core.pareto import pareto_front
from ..core.pipeline import PreparedPipeline
from ..core.results import DesignPoint
from .genome import Genome, GenomeSpace
from .settings import EvaluationSettings
from .parallel import create_evaluator


def _distinct_points(
    genomes: Sequence[Genome], points: Sequence[DesignPoint]
) -> List[DesignPoint]:
    """Each distinct genome's point, in first-seen order.

    Collected from the evaluation results themselves rather than from
    ``evaluator.all_points()``, so a bounded (LRU) evaluation cache cannot
    drop evaluated points from the returned history.
    """
    seen: set = set()
    distinct: List[DesignPoint] = []
    for genome, point in zip(genomes, points):
        key = genome.key()
        if key in seen:
            continue
        seen.add(key)
        distinct.append(point)
    return distinct


def random_search(
    prepared: PreparedPipeline,
    n_evaluations: int = 64,
    settings: Optional[EvaluationSettings] = None,
    seed: int = 0,
    space: Optional[GenomeSpace] = None,
    n_workers: Optional[int] = None,
    cache=None,
) -> List[DesignPoint]:
    """Uniform random sampling of the genome space.

    Returns every evaluated design point (callers extract the front with
    :func:`repro.core.pareto.pareto_front`). ``cache`` injects a prebuilt
    evaluation cache (e.g. the campaign layer's persistent backend).
    """
    if n_evaluations < 1:
        raise ValueError(f"n_evaluations must be >= 1, got {n_evaluations}")
    space = space if space is not None else GenomeSpace(
        n_layers=len(prepared.baseline_model.dense_layers)
    )
    rng = np.random.default_rng(seed)
    with create_evaluator(
        prepared, settings, seed=seed, n_workers=n_workers, cache=cache
    ) as evaluator:
        # Draw until the budget of *distinct* genomes is reached, then batch-
        # evaluate: the drawn sequence depends only on the RNG, so the engine
        # (serial or parallel) sees exactly the genomes a serial loop would.
        batch: List[Genome] = []
        distinct: set = set()
        while len(distinct) < n_evaluations:
            genome = space.random_genome(rng)
            batch.append(genome)
            distinct.add(genome.key())
        return _distinct_points(batch, evaluator.evaluate_population(batch))


def grid_search(
    prepared: PreparedPipeline,
    bit_choices: Sequence[int] = (2, 3, 4, 6, 8),
    sparsity_choices: Sequence[float] = (0.0, 0.3, 0.6),
    cluster_choices: Sequence[int] = (0, 3, 6),
    settings: Optional[EvaluationSettings] = None,
    seed: int = 0,
    n_workers: Optional[int] = None,
    cache=None,
) -> List[DesignPoint]:
    """Exhaustive sweep over layer-uniform genomes.

    Every layer receives the same (bits, sparsity, clusters) triple, so the
    grid has ``len(bits) * len(sparsity) * len(clusters)`` points regardless
    of depth — tractable for the coarse comparison grid used by the ablation.
    """
    n_layers = len(prepared.baseline_model.dense_layers)
    genomes = [
        Genome(
            weight_bits=(int(bits),) * n_layers,
            sparsity=(float(sparsity),) * n_layers,
            clusters=(int(clusters),) * n_layers,
        )
        for bits, sparsity, clusters in product(bit_choices, sparsity_choices, cluster_choices)
    ]
    with create_evaluator(
        prepared, settings, seed=seed, n_workers=n_workers, cache=cache
    ) as evaluator:
        return _distinct_points(genomes, evaluator.evaluate_population(genomes))


def front_of(points: List[DesignPoint]) -> List[DesignPoint]:
    """Convenience re-export: Pareto front of a point list."""
    return pareto_front(points)
