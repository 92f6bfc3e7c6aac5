"""Train surrogates from campaign evaluation journals.

The :class:`~repro.campaign.cache.PersistentEvaluationCache` shards a
campaign leaves behind are a free genome → (accuracy, area, power,
robust_accuracy) training set. :func:`fit_from_cache` turns them into a
fitted :class:`TrainedSurrogate` without constructing caches or pipelines —
it reads through :func:`repro.campaign.cache.load_journal_records`, so it
inherits the journal reader's tolerance of torn tails, rotated ``.gNNNN``
generations and unversioned legacy records.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..search.genome import Genome
from .features import GenomeFeaturizer
from .models import SurrogateModel, create_surrogate

#: Target columns in emission order; robust_accuracy joins only when every
#: usable record carries it.
BASE_TARGETS: Tuple[str, ...] = ("accuracy", "area", "power")


@dataclass
class TrainedSurrogate:
    """A fitted surrogate bundled with its featurizer and target layout.

    Attributes:
        model: the fitted :class:`~repro.surrogate.models.SurrogateModel`.
        featurizer: the featurizer whose layout the model was fitted on.
        target_columns: names of the model's output columns, in order.
        n_records: training-set size after deduplication.
    """

    model: SurrogateModel
    featurizer: GenomeFeaturizer
    target_columns: Tuple[str, ...] = BASE_TARGETS
    n_records: int = 0

    def predict(self, genomes: Sequence[Genome]) -> np.ndarray:
        """Predicted targets, shape ``(len(genomes), len(target_columns))``."""
        return self.model.predict(self.featurizer.transform(genomes))

    def predict_with_uncertainty(
        self, genomes: Sequence[Genome]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(mean, std)`` predicted targets for a batch of genomes."""
        return self.model.predict_with_uncertainty(self.featurizer.transform(genomes))


def training_matrices(
    genomes: Sequence[Genome],
    targets_by_genome: Sequence[Sequence[float]],
    featurizer: Optional[GenomeFeaturizer] = None,
) -> Tuple[np.ndarray, np.ndarray, GenomeFeaturizer]:
    """Featurize an aligned (genomes, target rows) pair into fit inputs."""
    featurizer = featurizer if featurizer is not None else GenomeFeaturizer()
    X = featurizer.transform(genomes)
    Y = np.asarray(targets_by_genome, dtype=np.float64).reshape(len(genomes), -1)
    return X, Y, featurizer


def fit_from_cache(
    cache_dir: Union[str, Path],
    context_key: Optional[str] = None,
    model: str = "ridge",
    seed: int = 0,
    **model_kwargs,
) -> TrainedSurrogate:
    """Fit a surrogate on every decodable journal record under ``cache_dir``.

    Args:
        cache_dir: campaign cache directory (``<campaign>/cache/``).
        context_key: restrict training to one evaluation context; ``None``
            pools every context in the directory (all generations of each).
        model: registered surrogate name (``"ridge"`` or ``"mlp"``).
        seed: fit seed (bootstrap resampling, MLP initialization).
        **model_kwargs: forwarded to the model constructor.

    Returns:
        A :class:`TrainedSurrogate`. Records are deduplicated by genome key
        per context; genomes whose layer count differs from the majority
        layout are skipped (a pooled directory can mix datasets with
        different architectures — one featurizer encodes one layout).
        ``robust_accuracy`` becomes a fourth target column exactly when
        every usable record carries it.

    Raises:
        ValueError: when the directory yields no usable records.
    """
    # Imported lazily: repro.campaign imports the search stack at package
    # import time, and the GA imports this package — a module-level import
    # here would complete that cycle.
    from ..campaign.cache import load_journal_records

    records = load_journal_records(cache_dir, context_key=context_key)
    if not records:
        raise ValueError(f"no usable journal records under {cache_dir!s}")
    layer_counts = [record.genome.n_layers for record in records]
    majority_layers = max(set(layer_counts), key=lambda n: (layer_counts.count(n), -n))
    usable = [record for record in records if record.genome.n_layers == majority_layers]
    include_robust = all(record.point.robust_accuracy is not None for record in usable)
    columns = BASE_TARGETS + (("robust_accuracy",) if include_robust else ())
    genomes = [record.genome for record in usable]
    targets = [
        [getattr(record.point, column) for column in columns] for record in usable
    ]
    X, Y, featurizer = training_matrices(genomes, targets)
    fitted = create_surrogate(model, **model_kwargs).fit(X, Y, seed=seed)
    return TrainedSurrogate(
        model=fitted,
        featurizer=featurizer,
        target_columns=columns,
        n_records=len(usable),
    )
