"""Pruning: unstructured magnitude pruning, structured neuron pruning, schedules, sweeps."""

from .magnitude import (
    PruningResult,
    prune_by_magnitude,
    prune_layer_by_magnitude,
    pruning_mask_summary,
    remove_pruning,
)
from .schedules import (
    PruningScheduleConfig,
    gradual_magnitude_pruning,
    one_shot_pruning,
    one_shot_pruning_population,
    sparsity_accuracy_curve,
)
from .structured import (
    StructuredPruningResult,
    active_neurons_per_layer,
    neuron_importance,
    prune_neurons,
)
from .sweep import PAPER_SPARSITY_RANGE, pruning_sweep

__all__ = [
    "PAPER_SPARSITY_RANGE",
    "PruningResult",
    "PruningScheduleConfig",
    "StructuredPruningResult",
    "active_neurons_per_layer",
    "gradual_magnitude_pruning",
    "neuron_importance",
    "one_shot_pruning",
    "one_shot_pruning_population",
    "prune_by_magnitude",
    "prune_layer_by_magnitude",
    "prune_neurons",
    "pruning_mask_summary",
    "pruning_sweep",
    "remove_pruning",
    "sparsity_accuracy_curve",
]
