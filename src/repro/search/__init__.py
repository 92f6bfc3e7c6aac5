"""Hardware-aware search: genome encoding, NSGA-II, GA driver, evaluation engine."""

from .evaluator import EvaluationCache, EvaluationEngine, genome_seed, resolve_workers
from .exhaustive import front_of, grid_search, random_search
from .ga import (
    GAConfig,
    GAResult,
    HardwareAwareGA,
    run_combined_search,
)
from .genome import (
    DEFAULT_BIT_CHOICES,
    DEFAULT_CLUSTER_CHOICES,
    DEFAULT_SPARSITY_CHOICES,
    Genome,
    GenomeSpace,
)
from .nsga2 import (
    crowding_distance,
    crowding_distance_reference,
    dominates,
    fast_non_dominated_sort,
    fast_non_dominated_sort_reference,
    nsga2_rank,
    select_survivors,
    tournament_select,
)
from .objectives import (
    apply_genome,
    evaluate_genome,
    evaluate_genomes_stacked,
    objectives_of,
)
from .settings import EvaluationSettings, resolve_evaluation_settings

__all__ = [
    "DEFAULT_BIT_CHOICES",
    "DEFAULT_CLUSTER_CHOICES",
    "DEFAULT_SPARSITY_CHOICES",
    "EvaluationCache",
    "EvaluationEngine",
    "EvaluationSettings",
    "GAConfig",
    "GAResult",
    "Genome",
    "GenomeSpace",
    "HardwareAwareGA",
    "apply_genome",
    "crowding_distance",
    "crowding_distance_reference",
    "dominates",
    "evaluate_genome",
    "evaluate_genomes_stacked",
    "fast_non_dominated_sort",
    "fast_non_dominated_sort_reference",
    "front_of",
    "genome_seed",
    "grid_search",
    "nsga2_rank",
    "objectives_of",
    "random_search",
    "resolve_evaluation_settings",
    "resolve_workers",
    "run_combined_search",
    "select_survivors",
    "tournament_select",
]
