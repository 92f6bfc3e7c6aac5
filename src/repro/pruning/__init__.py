"""Pruning: unstructured magnitude pruning, one-shot schedules, sweeps."""

from .magnitude import (
    PruningResult,
    prune_by_magnitude,
    prune_layer_by_magnitude,
    pruning_mask_summary,
    remove_pruning,
)
from .schedules import one_shot_pruning, one_shot_pruning_population
from .sweep import PAPER_SPARSITY_RANGE, pruning_sweep

__all__ = [
    "PAPER_SPARSITY_RANGE",
    "PruningResult",
    "one_shot_pruning",
    "one_shot_pruning_population",
    "prune_by_magnitude",
    "prune_layer_by_magnitude",
    "pruning_mask_summary",
    "pruning_sweep",
    "remove_pruning",
]
