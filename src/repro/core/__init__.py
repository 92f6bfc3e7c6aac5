"""Core API: design points, Pareto analysis, configs and the minimization pipeline."""

from . import profiling
from .config import (
    DEFAULT_BIT_RANGE,
    DEFAULT_CLUSTER_RANGE,
    DEFAULT_SPARSITY_RANGE,
    PipelineConfig,
    fast_config,
)
from .lru import LRUCache
from .pareto import (
    area_gain_table,
    average_area_gain,
    best_area_gain_at_loss,
    dominates,
    front_as_arrays,
    hypervolume,
    hypervolume_objectives,
    normalize_points,
    pareto_front,
)
from .pipeline import (
    STANDALONE_TECHNIQUES,
    MinimizationPipeline,
    PreparedPipeline,
    evaluate_dataset,
)
from .results import TECHNIQUES, DesignPoint, NormalizedPoint, SweepResult

__all__ = [
    "DEFAULT_BIT_RANGE",
    "DEFAULT_CLUSTER_RANGE",
    "DEFAULT_SPARSITY_RANGE",
    "DesignPoint",
    "LRUCache",
    "MinimizationPipeline",
    "NormalizedPoint",
    "PipelineConfig",
    "PreparedPipeline",
    "STANDALONE_TECHNIQUES",
    "SweepResult",
    "TECHNIQUES",
    "area_gain_table",
    "average_area_gain",
    "best_area_gain_at_loss",
    "dominates",
    "evaluate_dataset",
    "fast_config",
    "front_as_arrays",
    "hypervolume",
    "hypervolume_objectives",
    "normalize_points",
    "pareto_front",
    "profiling",
]
