"""Surrogate-accelerated search: cheap genome-cost predictors.

Real stacked-QAT evaluations dominate the search's wall-clock; this package
trades them for microsecond predictions. A
:class:`~repro.surrogate.features.GenomeFeaturizer` encodes genomes as
plain feature vectors, the :class:`~repro.surrogate.models.SurrogateModel`
implementations (closed-form ridge by default, a stacked tiny-MLP ensemble)
regress evaluation outcomes with per-objective
ensemble uncertainty, :func:`~repro.surrogate.training.fit_from_cache`
trains directly from campaign journal shards, and
:class:`~repro.surrogate.assist.SurrogateAssistant` wires online refits and
uncertainty-optimistic offspring prefiltering into
:class:`~repro.search.ga.HardwareAwareGA` (``GAConfig(surrogate="ridge")``,
``repro figure2 --surrogate ridge``). Reported fronts only ever contain
really-measured points, and searches with the surrogate off are
byte-identical to builds without this package. See ``docs/surrogate.md``.
"""

from .assist import SurrogateAssistant, surrogate_seed
from .features import GenomeFeaturizer
from .models import (
    SURROGATE_MODELS,
    MLPSurrogate,
    RidgeSurrogate,
    SurrogateModel,
    create_surrogate,
)
from .training import TrainedSurrogate, fit_from_cache, training_matrices

__all__ = [
    "GenomeFeaturizer",
    "MLPSurrogate",
    "RidgeSurrogate",
    "SURROGATE_MODELS",
    "SurrogateAssistant",
    "SurrogateModel",
    "TrainedSurrogate",
    "create_surrogate",
    "fit_from_cache",
    "surrogate_seed",
    "training_matrices",
]
