"""Surrogate-assisted offspring selection for the hardware-aware GA.

:class:`SurrogateAssistant` is the glue between the predictor stack and
:class:`~repro.search.ga.HardwareAwareGA`: it accumulates every *real*
evaluation the search performs, refits the surrogate online, and ranks
candidate offspring by predicted non-domination so the GA only spends real
stacked-QAT evaluations on the most promising fraction.

Ranking is *uncertainty-optimistic*: each candidate is scored at its
ensemble mean shifted one ``optimism`` standard deviation in its favor
(lower-confidence-bound on every minimized objective), so genomes in
regions the surrogate has never seen keep large optimistic scores and
still get explored — the standard guard against a surrogate collapsing
the search onto its own blind spots.

Everything is deterministic: refits are seeded per generation through
:func:`surrogate_seed` (the SHA-256 derivation pattern of
:func:`repro.search.evaluator.genome_seed`), ranking breaks ties by
candidate order, and identical inputs produce identical selections.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core import profiling
from ..core.results import DesignPoint
from ..search.genome import Genome
from ..search.nsga2 import nsga2_rank
from .features import GenomeFeaturizer
from .models import SurrogateModel, create_surrogate

_SEED_SPACE = 2**32


def surrogate_seed(base_seed: Optional[int], generation: int) -> Optional[int]:
    """Deterministic per-generation surrogate fit seed.

    Mixes the search's base seed with the generation index through SHA-256,
    mirroring :func:`repro.search.evaluator.genome_seed` — stable across
    processes and Python runs, uncorrelated with the evaluation seeds.
    """
    if base_seed is None:
        return None
    digest = hashlib.sha256(
        f"{int(base_seed)}|surrogate|{int(generation)}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_SPACE


class SurrogateAssistant:
    """Online-trained offspring prefilter wired into the GA's generation loop.

    Args:
        baseline: the prepared pipeline's baseline design point — predicted
            raw targets are normalized against it exactly as
            :func:`repro.search.objectives.objectives_of` normalizes
            measured ones.
        robust: rank on the 3-objective (loss, area, robust loss) space;
            requires observed points to carry ``robust_accuracy``.
        model: registered surrogate name (``"ridge"`` or ``"mlp"``).
        seed: search base seed; per-generation fit seeds derive from it.
        optimism: uncertainty bonus in ensemble standard deviations.
        min_fit_samples: observations required before the first fit; until
            then :meth:`rank` returns candidate order unchanged.
        model_kwargs: forwarded to the model constructor on every refit.
    """

    def __init__(
        self,
        baseline: DesignPoint,
        robust: bool = False,
        model: str = "ridge",
        seed: Optional[int] = 0,
        optimism: float = 1.0,
        min_fit_samples: int = 8,
        model_kwargs: Optional[dict] = None,
    ) -> None:
        if baseline.accuracy <= 0 or baseline.area <= 0:
            raise ValueError("Baseline accuracy and area must be positive")
        if optimism < 0:
            raise ValueError(f"optimism must be >= 0, got {optimism}")
        if min_fit_samples < 2:
            raise ValueError(f"min_fit_samples must be >= 2, got {min_fit_samples}")
        self.baseline = baseline
        self.robust = bool(robust)
        self.model_name = str(model)
        self.seed = seed
        self.optimism = float(optimism)
        self.min_fit_samples = int(min_fit_samples)
        self.model_kwargs = dict(model_kwargs or {})
        self.featurizer = GenomeFeaturizer()
        self.model: Optional[SurrogateModel] = None
        self.n_fits = 0
        self._observed: Dict[Tuple, List[float]] = {}
        self._genomes: Dict[Tuple, Genome] = {}
        # Validate the model name eagerly so a typo fails at construction,
        # not at the first refit deep inside the generation loop.
        create_surrogate(self.model_name, **self.model_kwargs)

    # -- online training ---------------------------------------------------------

    def _targets_of(self, point: DesignPoint) -> List[float]:
        targets = [float(point.accuracy), float(point.area)]
        if self.robust:
            if point.robust_accuracy is None:
                raise ValueError(
                    "robust surrogate ranking needs robust_accuracy on every "
                    "observed point"
                )
            targets.append(float(point.robust_accuracy))
        return targets

    def observe(self, genomes: Sequence[Genome], points: Sequence[DesignPoint]) -> None:
        """Record real evaluations as training rows (deduped by genome key)."""
        for genome, point in zip(genomes, points):
            key = genome.key()
            if key in self._observed:
                continue
            self._observed[key] = self._targets_of(point)
            self._genomes[key] = genome

    @property
    def n_observations(self) -> int:
        """Distinct genomes observed so far."""
        return len(self._observed)

    @property
    def ready(self) -> bool:
        """True once a surrogate has been fitted."""
        return self.model is not None

    def refit(self, generation: int) -> bool:
        """Refit the surrogate on everything observed; True when it fitted.

        A no-op (returning False) until ``min_fit_samples`` distinct
        observations exist. Appears as the ``surrogate_fit`` stage in
        ``repro --profile`` reports.
        """
        if self.n_observations < self.min_fit_samples:
            return False
        with profiling.stage("surrogate_fit"):
            keys = list(self._observed)
            features = self.featurizer.transform([self._genomes[k] for k in keys])
            targets = np.asarray([self._observed[k] for k in keys])
            fit_seed = surrogate_seed(self.seed, generation)
            model = create_surrogate(self.model_name, **self.model_kwargs)
            self.model = model.fit(
                features, targets, seed=0 if fit_seed is None else fit_seed
            )
            self.n_fits += 1
        return True

    # -- ranking -----------------------------------------------------------------

    def predicted_objectives(self, genomes: Sequence[Genome]) -> np.ndarray:
        """Optimistic predicted objective vectors, shape ``(N, 2 or 3)``.

        Raw-target ensemble means are shifted ``optimism`` standard
        deviations in each objective's favorable direction (accuracy up,
        area down), then mapped to the minimized objective space of
        :func:`repro.search.objectives.objectives_of`.
        """
        if self.model is None:
            raise RuntimeError("surrogate is not fitted; call refit() first")
        mean, std = self.model.predict_with_uncertainty(
            self.featurizer.transform(genomes)
        )
        accuracy = mean[:, 0] + self.optimism * std[:, 0]
        area = np.maximum(mean[:, 1] - self.optimism * std[:, 1], 0.0)
        loss = np.maximum(1.0 - accuracy / self.baseline.accuracy, 0.0)
        normalized_area = area / self.baseline.area
        columns = [loss, normalized_area]
        if self.robust:
            robust_accuracy = mean[:, 2] + self.optimism * std[:, 2]
            columns.append(
                np.maximum(1.0 - robust_accuracy / self.baseline.accuracy, 0.0)
            )
        return np.stack(columns, axis=1)

    def rank(self, candidates: Sequence[Genome]) -> List[int]:
        """Candidate indices ordered best-first by predicted non-domination.

        Uses the exact NSGA-II key (front index, then crowding distance)
        the real search ranks with, applied to optimistic predicted
        objectives; ties resolve to candidate order. Before the first fit
        the order is the identity — candidates pass through unranked.
        Appears as the ``surrogate_rank`` stage in profile reports.
        """
        candidates = list(candidates)
        if not candidates:
            return []
        if self.model is None:
            return list(range(len(candidates)))
        with profiling.stage("surrogate_rank"):
            objectives = self.predicted_objectives(candidates)
            keys = nsga2_rank([tuple(row) for row in objectives])
            order = sorted(range(len(candidates)), key=lambda i: (keys[i], i))
        return order

    def select(
        self,
        candidates: Sequence[Genome],
        cached_keys: Set[Tuple],
        budget: int,
    ) -> Tuple[List[Genome], List[Genome]]:
        """Split candidates into (already-evaluated, chosen-for-evaluation).

        Every candidate whose key is in ``cached_keys`` goes to the first
        list — re-reading a cached point is free, so known genomes (the
        incumbent Pareto archive in particular) are *never* evicted by the
        prefilter. The remaining pool is deduplicated, ranked, and the top
        ``budget`` genomes are chosen for real evaluation.
        """
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        free: List[Genome] = []
        pool: List[Genome] = []
        seen: Set[Tuple] = set()
        for genome in candidates:
            key = genome.key()
            if key in seen:
                continue
            seen.add(key)
            (free if key in cached_keys else pool).append(genome)
        order = self.rank(pool)
        chosen = [pool[i] for i in order[:budget]]
        return free, chosen
