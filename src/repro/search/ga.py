"""The hardware-aware genetic algorithm (Figure 2).

An NSGA-II loop over :class:`~repro.search.genome.Genome` candidates whose
fitness is the pair (accuracy loss, normalized bespoke area) measured with
the same evaluation flow as the standalone sweeps. The initial population is
seeded with the baseline and the "pure technique" corners so the combined
front starts from — and can only improve on — the standalone fronts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core import profiling
from ..core.pareto import dominates, pareto_front
from ..core.pipeline import PreparedPipeline
from ..core.results import DesignPoint
from .evaluator import EvaluationEngine
from .genome import (
    DEFAULT_BIT_CHOICES,
    DEFAULT_CLUSTER_CHOICES,
    DEFAULT_SPARSITY_CHOICES,
    Genome,
    GenomeSpace,
)
from .nsga2 import nsga2_rank, select_survivors, tournament_select
from .objectives import objectives_of
from .settings import EvaluationSettings, resolve_evaluation_settings

# Imported as a module path (not via the repro.surrogate package) at call
# sites below; only the registry of valid names is needed eagerly.
from ..surrogate.models import SURROGATE_MODELS


@dataclass(frozen=True)
class GAConfig:
    """Hyper-parameters of the hardware-aware GA.

    Attributes:
        population_size: individuals per generation.
        n_generations: evolution steps.
        mutation_rate: per-gene mutation probability.
        crossover_rate: probability that an offspring is produced by
            crossover (otherwise a mutated copy of one parent).
        finetune_epochs: fine-tuning epochs inside each evaluation.
        seed: RNG seed for the evolutionary operators.
        n_workers: evaluation worker processes (``None`` inherits the
            prepared pipeline's configuration, 1 = serial, 0 = all cores).
            Parallel runs are bit-identical to serial ones.
        cache_size: LRU bound on the genome evaluation cache (``None`` =
            unbounded, the default). A bound trades memory for occasional
            deterministic re-evaluations of evicted genomes.
        fault_rate / n_fault_trials / fault_model: Monte-Carlo fault
            injection during evaluation (off by default: rate 0.0, 0
            trials, ``"open"`` defects). When enabled, every design point
            gains ``robust_accuracy`` / ``accuracy_std`` and the NSGA-II
            ranking, survivor selection and Pareto archive all optimize
            fault tolerance as a third objective. Disabled searches are
            byte-identical to pre-robustness builds.
        surrogate: surrogate model name enabling surrogate-assisted search
            (``"ridge"`` or ``"mlp"``; ``None`` = off, the default). When
            enabled, each generation breeds ``surrogate_candidates`` x
            ``population_size`` candidate offspring, ranks them with an
            online-trained predictor (:mod:`repro.surrogate`), and spends
            real stacked-QAT evaluations only on the top
            ``surrogate_prefilter`` fraction of the population size.
            Reported fronts contain only really measured points; disabled
            searches are byte-identical to pre-surrogate builds. Surrogate
            knobs steer *which* genomes are evaluated, never what an
            evaluation returns. See ``docs/surrogate.md``.
        surrogate_candidates: candidate-pool multiplier k (the surrogate
            scores k x population_size offspring per generation; default 4).
        surrogate_prefilter: fraction of the population size that gets a
            real full-budget evaluation per generation (in ``(0, 1]``;
            default 0.25).
        halving_budgets: ascending short fine-tuning budgets (epochs) for
            successive halving between the surrogate prefilter and the full
            evaluation — survivors race through cheap short-epoch real
            evaluations, and only the NSGA-II-best half promotes per rung.
            Empty (the default) disables halving.
        bit_choices / sparsity_choices / cluster_choices: gene alphabets.
    """

    population_size: int = 16
    n_generations: int = 10
    mutation_rate: float = 0.25
    crossover_rate: float = 0.9
    finetune_epochs: int = 8
    seed: int = 0
    n_workers: Optional[int] = None
    cache_size: Optional[int] = None
    fault_rate: float = 0.0
    n_fault_trials: int = 0
    fault_model: str = "open"
    surrogate: Optional[str] = None
    surrogate_candidates: int = 4
    surrogate_prefilter: float = 0.25
    halving_budgets: Sequence[int] = ()
    bit_choices: Sequence[int] = DEFAULT_BIT_CHOICES
    sparsity_choices: Sequence[float] = DEFAULT_SPARSITY_CHOICES
    cluster_choices: Sequence[int] = DEFAULT_CLUSTER_CHOICES

    def __post_init__(self) -> None:
        if self.population_size < 4:
            raise ValueError(f"population_size must be >= 4, got {self.population_size}")
        if self.n_generations < 1:
            raise ValueError(f"n_generations must be >= 1, got {self.n_generations}")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if self.cache_size is not None and self.cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {self.cache_size}")
        resolve_evaluation_settings(ga_config=self)  # validates the fault knobs
        if self.surrogate is not None and self.surrogate not in SURROGATE_MODELS:
            raise ValueError(
                f"surrogate must be one of {SURROGATE_MODELS}, got '{self.surrogate}'"
            )
        if self.surrogate_candidates < 1:
            raise ValueError(
                f"surrogate_candidates must be >= 1, got {self.surrogate_candidates}"
            )
        if not 0.0 < self.surrogate_prefilter <= 1.0:
            raise ValueError(
                f"surrogate_prefilter must be in (0, 1], got {self.surrogate_prefilter}"
            )
        budgets = tuple(self.halving_budgets)
        if any(int(b) != b or b < 1 for b in budgets):
            raise ValueError(f"halving_budgets must be positive integers, got {budgets}")
        if any(a >= b for a, b in zip(budgets, budgets[1:])):
            raise ValueError(f"halving_budgets must be strictly increasing, got {budgets}")


@dataclass
class GAResult:
    """Outcome of one GA run.

    ``n_evaluations`` counts real full-budget evaluations;
    ``n_partial_evaluations`` the short-budget successive-halving ones
    (zero unless surrogate-assisted halving ran).
    """

    front: List[DesignPoint]
    all_points: List[DesignPoint]
    generations: List[Dict[str, float]] = field(default_factory=list)
    n_evaluations: int = 0
    n_partial_evaluations: int = 0

    def best_area_within_loss(self, baseline: DesignPoint, max_loss: float = 0.05):
        """Best combined design within a relative accuracy-loss budget (or None)."""
        eligible = [
            p
            for p in self.front
            if 1.0 - p.accuracy / baseline.accuracy <= max_loss + 1e-12
        ]
        if not eligible:
            return None
        return min(eligible, key=lambda p: p.area)


def _nondominated(points: List[DesignPoint], robust: bool = False) -> List[DesignPoint]:
    """Accuracy/area (optionally x robustness) non-dominated subset, order preserved.

    Uses :func:`repro.core.pareto.dominates` — the same predicate
    :func:`~repro.core.pareto.pareto_front` filters with (it additionally
    dedupes and sorts; the archive keeps the raw first-seen sequence so the
    final ``pareto_front`` call behaves exactly as it would over the
    complete history).
    """
    survivors: List[DesignPoint] = []
    for candidate in points:
        if not any(
            other is not candidate and dominates(other, candidate, robust=robust)
            for other in points
        ):
            survivors.append(candidate)
    return survivors


class HardwareAwareGA:
    """NSGA-II search over combined quantization/pruning/clustering configs.

    Args:
        prepared: prepared pipeline (trained baseline, data, technology).
        config: GA hyper-parameters.
        settings: per-genome evaluation settings (defaults derived from
            ``config.finetune_epochs``).
        cache: injected evaluation-cache instance (any
            :class:`~repro.search.evaluator.EvaluationCache` subclass). The
            campaign layer passes its persistent on-disk backend here so a
            killed search resumes from the genomes already evaluated.
    """

    def __init__(
        self,
        prepared: PreparedPipeline,
        config: Optional[GAConfig] = None,
        settings: Optional[EvaluationSettings] = None,
        cache=None,
    ) -> None:
        self.prepared = prepared
        self.config = config if config is not None else GAConfig()
        self.settings = (
            settings
            if settings is not None
            else resolve_evaluation_settings(ga_config=self.config)
        )
        # Robustness-aware searches rank, select and archive on a third
        # objective (fault-injected accuracy loss); disabled searches run
        # the exact 2-objective code path of earlier versions.
        self.robust = self.settings.robustness_enabled
        self.space = GenomeSpace(
            n_layers=len(prepared.baseline_model.dense_layers),
            bit_choices=self.config.bit_choices,
            sparsity_choices=self.config.sparsity_choices,
            cluster_choices=self.config.cluster_choices,
        )
        n_workers = self.config.n_workers
        if n_workers is None:
            n_workers = getattr(prepared.config, "n_workers", 1)
        self.evaluator = EvaluationEngine(
            prepared,
            self.settings,
            seed=self.config.seed,
            n_workers=n_workers,
            cache_size=None if cache is not None else self.config.cache_size,
            cache=cache,
        )
        self._rng = np.random.default_rng(self.config.seed)

        # The assistant and the halving evaluators only exist when the
        # surrogate is on, so disabled searches execute the literal
        # pre-surrogate code path.
        self.halving_budgets = tuple(int(b) for b in self.config.halving_budgets)
        self._rung_evaluators: Dict[int, object] = {}
        if self.config.surrogate is not None:
            from ..surrogate.assist import SurrogateAssistant

            self.assistant: Optional[SurrogateAssistant] = SurrogateAssistant(
                baseline=prepared.baseline_point,
                robust=self.robust,
                model=self.config.surrogate,
                seed=self.config.seed,
            )
        else:
            self.assistant = None

    # -- population handling ------------------------------------------------------

    def _initial_population(self) -> List[Genome]:
        population = self.space.seed_genomes()
        while len(population) < self.config.population_size:
            population.append(self.space.random_genome(self._rng))
        return population[: self.config.population_size]

    def _make_offspring(
        self, population: List[Genome], objectives, count: Optional[int] = None
    ) -> List[Genome]:
        # One NSGA-II ranking serves every tournament of the generation; the
        # RNG is consumed exactly as if each tournament re-ranked, so the
        # evolutionary trajectory is unchanged. ``count`` (surrogate mode)
        # breeds an oversized candidate pool with the same operators.
        count = self.config.population_size if count is None else count
        keys = nsga2_rank(objectives)
        offspring: List[Genome] = []
        while len(offspring) < count:
            parent_a = population[tournament_select(objectives, self._rng, keys=keys)]
            if self._rng.random() < self.config.crossover_rate:
                parent_b = population[
                    tournament_select(objectives, self._rng, keys=keys)
                ]
                child = self.space.crossover(parent_a, parent_b, self._rng)
            else:
                child = parent_a
            child = self.space.mutate_gene(child, self._rng, self.config.mutation_rate)
            offspring.append(child)
        return offspring

    # -- surrogate-assisted offspring ---------------------------------------------

    def _rung_evaluator(self, epochs: int):
        """Serial evaluator at a reduced fine-tuning budget (memoized).

        Short-budget points live in their own per-rung caches — they are
        measured under different settings than full evaluations, so they
        must never enter (or poison) the genome-keyed main cache.
        """
        if epochs not in self._rung_evaluators:
            self._rung_evaluators[epochs] = EvaluationEngine(
                self.prepared,
                replace(self.settings, finetune_epochs=epochs),
                seed=self.config.seed,
            )
        return self._rung_evaluators[epochs]

    def _race_through_halving(self, genomes: List[Genome], target: int) -> List[Genome]:
        """Successive halving: promote the NSGA-II-best half per rung.

        Each configured budget runs cheap short-epoch *real* evaluations of
        the surviving genomes; survivors of the final rung are the ones the
        generation evaluates at full budget. Appears as the ``halving``
        stage in profile reports.
        """
        survivors = list(genomes)
        baseline = self.prepared.baseline_point
        with profiling.stage("halving"):
            for epochs in self.halving_budgets:
                if len(survivors) <= target:
                    break
                points = self._rung_evaluator(epochs).evaluate_population(survivors)
                objectives = [
                    objectives_of(p, baseline, robust=self.robust) for p in points
                ]
                keys = nsga2_rank(objectives)
                order = sorted(range(len(survivors)), key=lambda i: (keys[i], i))
                keep = max(target, math.ceil(len(survivors) / 2))
                survivors = [survivors[i] for i in order[:keep]]
        return survivors[:target]

    def _surrogate_offspring(
        self, population: List[Genome], objectives, evaluated_keys: set, generation: int
    ) -> List[Genome]:
        """One generation's offspring under surrogate-assisted selection.

        Breeds an oversized candidate pool, refits the surrogate on every
        real evaluation so far, and keeps (a) every candidate already
        evaluated for real — re-reading the cache is free, so the incumbent
        archive can never be evicted by the prefilter — plus (b) the
        predicted-best novel genomes, optionally raced through successive
        halving down to the real-evaluation budget.
        """
        with profiling.stage("ga_selection"):
            candidates = self._make_offspring(
                population,
                objectives,
                count=self.config.population_size * self.config.surrogate_candidates,
            )
        self.assistant.refit(generation)
        budget = max(1, math.ceil(self.config.surrogate_prefilter * self.config.population_size))
        if self.halving_budgets:
            entry = budget * (2 ** len(self.halving_budgets))
            free, chosen = self.assistant.select(candidates, evaluated_keys, entry)
            chosen = self._race_through_halving(chosen, budget)
        else:
            free, chosen = self.assistant.select(candidates, evaluated_keys, budget)
        return free + chosen

    @property
    def n_partial_evaluations(self) -> int:
        """Short-budget evaluations spent by successive halving so far."""
        return sum(e.n_evaluations for e in self._rung_evaluators.values())

    # -- main loop ------------------------------------------------------------------

    def run(self) -> GAResult:
        """Run the evolutionary search and return the combined Pareto front."""
        try:
            return self._run()
        finally:
            self.evaluator.close()
            for evaluator in self._rung_evaluators.values():
                evaluator.close()

    def _run(self) -> GAResult:
        baseline = self.prepared.baseline_point
        population = self._initial_population()
        # Incremental Pareto archive: the non-dominated subset of every
        # point evaluated so far, in first-seen order. Dominance is
        # transitive, so filtering incrementally yields exactly the points
        # ``pareto_front`` would keep from the complete history — which
        # makes the final front independent of the evaluation cache's LRU
        # bound while only ever holding front-sized state (the memory
        # ceiling ``cache_size`` exists for is preserved).
        archive_keys: set = set()
        archive: List[DesignPoint] = []

        def record(genomes: List[Genome], genome_points: List[DesignPoint]) -> None:
            fresh = []
            for genome, point in zip(genomes, genome_points):
                key = genome.key()
                if key not in archive_keys:
                    archive_keys.add(key)
                    fresh.append(point)
            if not fresh:
                return
            candidates = archive + fresh
            survivors = _nondominated(candidates, robust=self.robust)
            archive[:] = survivors

        with profiling.stage("ga_evaluate"):
            points = self.evaluator.evaluate_population(population)
        record(population, points)
        if self.assistant is not None:
            self.assistant.observe(population, points)
        generations: List[Dict[str, float]] = []

        for generation in range(self.config.n_generations):
            objectives = [objectives_of(p, baseline, robust=self.robust) for p in points]
            if self.assistant is not None:
                offspring = self._surrogate_offspring(
                    population, objectives, archive_keys, generation
                )
            else:
                with profiling.stage("ga_selection"):
                    offspring = self._make_offspring(population, objectives)
            with profiling.stage("ga_evaluate"):
                offspring_points = self.evaluator.evaluate_population(offspring)
            record(offspring, offspring_points)
            if self.assistant is not None:
                self.assistant.observe(offspring, offspring_points)

            combined_population = population + offspring
            combined_points = points + offspring_points
            combined_objectives = [
                objectives_of(p, baseline, robust=self.robust) for p in combined_points
            ]
            with profiling.stage("ga_sort"):
                survivors = select_survivors(
                    combined_objectives, self.config.population_size
                )
            population = [combined_population[i] for i in survivors]
            points = [combined_points[i] for i in survivors]

            front = pareto_front(points, robust=self.robust)
            best_gain = max(
                (baseline.area / p.area for p in front if p.area > 0), default=0.0
            )
            stats = {
                "generation": float(generation),
                "front_size": float(len(front)),
                "best_area_gain": float(best_gain),
                "best_accuracy": float(max(p.accuracy for p in points)),
                "evaluations": float(self.evaluator.n_evaluations),
                "cache_hits": float(self.evaluator.cache_hits),
            }
            if self.assistant is not None:
                stats["offspring_evaluated"] = float(len(offspring))
                stats["surrogate_fits"] = float(self.assistant.n_fits)
                stats["partial_evaluations"] = float(self.n_partial_evaluations)
            generations.append(stats)

        # ``pareto_front(archive)`` equals ``pareto_front`` over the complete
        # evaluation history (see the archive invariant above); with a
        # bounded cache, ``all_points`` reflects the surviving cache entries.
        return GAResult(
            front=pareto_front(archive, robust=self.robust),
            all_points=self.evaluator.all_points(),
            generations=generations,
            n_evaluations=self.evaluator.n_evaluations,
            n_partial_evaluations=self.n_partial_evaluations,
        )


def run_combined_search(
    prepared: PreparedPipeline,
    config: Optional[GAConfig] = None,
    n_workers: Optional[int] = None,
) -> GAResult:
    """Convenience wrapper used by the Figure-2 experiment and examples."""
    if n_workers is not None:
        config = replace(config if config is not None else GAConfig(), n_workers=n_workers)
    return HardwareAwareGA(prepared, config=config).run()
