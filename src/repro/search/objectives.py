"""Objective evaluation: genome → minimized classifier → (accuracy, area).

Evaluating one genome applies all three techniques to a clone of the trained
baseline in the order pruning → clustering → quantization-aware fine-tuning
(a single joint fine-tuning pass recovers accuracy for all of them at once),
then synthesizes the bespoke circuit at the genome's bit-widths. The result
is returned as a ``combined`` :class:`~repro.core.results.DesignPoint`.

These are pure functions of ``(genome, prepared, settings, seed)``; caching
and parallel fan-out live in :mod:`repro.search.evaluator`.
:func:`evaluate_genomes_stacked` evaluates a
whole population at once through the stacked tensor path — byte-identical
to looping :func:`evaluate_genome`, several times faster at population
scale.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..bespoke.circuit import BespokeConfig
from ..bespoke.simulator import FixedPointSimulator, population_accuracy
from ..bespoke.synthesis import synthesize_cost_only
from ..clustering.weight_clustering import (
    cluster_model_weights,
    cluster_population_weights,
    reproject_clusters,
    reproject_population_clusters,
)
from ..core import profiling
from ..core.pipeline import PreparedPipeline
from ..core.results import DesignPoint
from ..nn.stacked import finetune_stacked, predict_stacked, supports_stacking
from ..nn.trainer import finetune
from ..pruning.magnitude import prune_by_magnitude
from ..quantization.qat import attach_quantizers
from ..reliability.monte_carlo import (
    monte_carlo_fault_injection,
    monte_carlo_population,
)
from .genome import Genome
from .settings import EvaluationSettings as _EvaluationSettings


def _pruned_clone(genome: Genome, prepared: PreparedPipeline):
    """A fresh baseline clone with the genome's pruning masks in place."""
    model = prepared.baseline_model.clone()
    dense_layers = model.dense_layers
    if genome.n_layers != len(dense_layers):
        raise ValueError(
            f"Genome covers {genome.n_layers} layers but the model has {len(dense_layers)}"
        )
    if any(s > 0.0 for s in genome.sparsity):
        with profiling.stage("prune"):
            prune_by_magnitude(model, list(genome.sparsity), global_ranking=False)
    return model


def _cluster_budgets(genome: Genome) -> Optional[List[int]]:
    """Per-layer cluster budgets (``None`` when the genome clusters nothing).

    A layer gene of 0 means "not clustered": its budget is large enough to
    keep every distinct value.
    """
    if not any(c > 0 for c in genome.clusters):
        return None
    return [c if c > 0 else 10**6 for c in genome.clusters]


def _apply_minimizations(
    genome: Genome,
    prepared: PreparedPipeline,
    settings: _EvaluationSettings,
    seed: Optional[int],
):
    """Prune, cluster and attach quantizers on a fresh baseline clone.

    The per-genome preamble of the serial path — everything of
    :func:`apply_genome` except the fine-tuning pass. Returns
    ``(model, clustering_result)``.
    """
    model = _pruned_clone(genome, prepared)
    clustering_result = None
    budgets = _cluster_budgets(genome)
    if budgets is not None:
        with profiling.stage("cluster"):
            clustering_result = cluster_model_weights(
                model,
                budgets,
                seed=seed,
                per_position=settings.per_position_clustering,
            )
    attach_quantizers(model, list(genome.weight_bits))
    return model, clustering_result


def _apply_population_minimizations(
    genomes: Sequence[Genome],
    prepared: PreparedPipeline,
    settings: _EvaluationSettings,
    seeds: Sequence[Optional[int]],
):
    """:func:`_apply_minimizations` for a whole population.

    Per-position clustering of every genome runs as one population-wide
    k-means (:func:`~repro.clustering.cluster_population_weights`), with
    the same models and clustering results as the per-genome preamble.
    Returns ``(models, clustering_results)``.
    """
    models = [_pruned_clone(genome, prepared) for genome in genomes]
    budgets = [_cluster_budgets(genome) for genome in genomes]
    clustered = [index for index, budget in enumerate(budgets) if budget is not None]
    clusterings = [None] * len(genomes)
    with profiling.stage("cluster"):
        if settings.per_position_clustering:
            results = cluster_population_weights(
                [models[index] for index in clustered],
                [budgets[index] for index in clustered],
                [seeds[index] for index in clustered],
            )
        else:
            results = [
                cluster_model_weights(
                    models[index], budgets[index], seed=seeds[index], per_position=False
                )
                for index in clustered
            ]
    for index, result in zip(clustered, results):
        clusterings[index] = result
    for model, genome in zip(models, genomes):
        attach_quantizers(model, list(genome.weight_bits))
    return models, clusterings


def apply_genome(
    genome: Genome,
    prepared: PreparedPipeline,
    settings: Optional[_EvaluationSettings] = None,
    seed: Optional[int] = None,
):
    """Apply a genome's minimizations to a clone of the prepared baseline.

    Returns the minimized model (the prepared baseline itself is untouched).
    """
    settings = settings if settings is not None else _EvaluationSettings()
    model, clustering_result = _apply_minimizations(genome, prepared, settings, seed)
    _finetune_model(prepared, settings, model, clustering_result, seed)
    return model


def evaluate_genome(
    genome: Genome,
    prepared: PreparedPipeline,
    settings: Optional[_EvaluationSettings] = None,
    seed: Optional[int] = None,
) -> DesignPoint:
    """Full evaluation of one genome: minimized accuracy and synthesized area.

    The synthesis report comes from the cost-only path
    (:func:`~repro.bespoke.synthesize_cost_only`): the search only consumes
    aggregate area/power/delay, and the cost-only report is bit-identical to
    the full netlist's. Ask :func:`~repro.bespoke.build_bespoke_circuit` for
    the netlist when a winning genome needs inspection or Verilog export.
    """
    settings = settings if settings is not None else _EvaluationSettings()
    with profiling.stage("evaluate_genome"):
        model = apply_genome(genome, prepared, settings, seed=seed)
        point = _score_model(genome, prepared, settings, model, seed=seed)
    return point


def _finetune_model(
    prepared: PreparedPipeline,
    settings: _EvaluationSettings,
    model,
    clustering_result,
    seed: Optional[int],
) -> None:
    """The fine-tuning tail of :func:`apply_genome` on an already-built model."""
    data = prepared.data
    if settings.finetune_epochs > 0:
        with profiling.stage("finetune"):
            finetune(
                model,
                data.train.features,
                data.train.labels,
                data.validation.features,
                data.validation.labels,
                epochs=settings.finetune_epochs,
                learning_rate=settings.finetune_learning_rate,
                seed=seed,
            )
        if clustering_result is not None:
            reproject_clusters(model, clustering_result)


def _score_model(
    genome: Genome,
    prepared: PreparedPipeline,
    settings: _EvaluationSettings,
    model,
    seed: Optional[int] = None,
) -> DesignPoint:
    """Accuracy measurement + cost-only synthesis of one minimized model."""
    data = prepared.data
    bespoke_config = _bespoke_config(genome, prepared)
    simulator = None
    if settings.simulate_accuracy or settings.robustness_enabled:
        simulator = FixedPointSimulator(model, bespoke_config)
    with profiling.stage("accuracy"):
        if settings.simulate_accuracy:
            accuracy = simulator.evaluate_accuracy(
                data.test.features, data.test.labels
            )
        else:
            accuracy = model.evaluate_accuracy(data.test.features, data.test.labels)
    robust_accuracy = accuracy_std = None
    if settings.robustness_enabled:
        with profiling.stage("robustness"):
            fault_result = monte_carlo_fault_injection(
                simulator,
                data.test.features,
                data.test.labels,
                settings.fault_config(seed),
            )
        robust_accuracy = fault_result.mean_accuracy
        accuracy_std = fault_result.accuracy_std
    return _synthesize_point(
        genome,
        prepared,
        model,
        bespoke_config,
        accuracy,
        robust_accuracy=robust_accuracy,
        accuracy_std=accuracy_std,
    )


def _bespoke_config(genome: Genome, prepared: PreparedPipeline) -> BespokeConfig:
    return BespokeConfig(
        input_bits=prepared.config.input_bits,
        weight_bits=list(genome.weight_bits),
    )


def _synthesize_point(
    genome: Genome,
    prepared: PreparedPipeline,
    model,
    bespoke_config: BespokeConfig,
    accuracy: float,
    robust_accuracy: Optional[float] = None,
    accuracy_std: Optional[float] = None,
) -> DesignPoint:
    """Cost-only synthesis + design-point assembly shared by both paths."""
    with profiling.stage("synthesize"):
        report = synthesize_cost_only(
            model,
            config=bespoke_config,
            tech=prepared.technology,
            name=f"{prepared.metadata.get('dataset', 'mlp')}_combined",
        )
    return DesignPoint(
        technique="combined",
        accuracy=float(accuracy),
        area=report.area,
        power=report.power,
        delay=report.delay,
        parameters=genome.as_dict(),
        report=report,
        robust_accuracy=robust_accuracy,
        accuracy_std=accuracy_std,
    )


def evaluate_genomes_stacked(
    genomes: Sequence[Genome],
    prepared: PreparedPipeline,
    settings: Optional[_EvaluationSettings] = None,
    seeds: Optional[Sequence[Optional[int]]] = None,
) -> List[DesignPoint]:
    """Evaluate a whole population as one stacked tensor program.

    Pruning, quantizer attachment and the final synthesis stay per-genome
    loops, while the heavy stages are batched across the population:

    * per-position weight clustering solves every row of every genome in
      one population-wide k-means
      (:func:`repro.clustering.cluster_population_weights`),
    * quantization-aware fine-tuning runs through
      :func:`repro.nn.stacked.finetune_stacked` (one ``(G, ...)`` tensor
      program instead of G serial trainings), and
    * test accuracy is measured with one batched forward pass —
      :func:`repro.nn.stacked.predict_stacked` for the float model, or
      :func:`repro.bespoke.simulator.population_accuracy` on the integer
      datapath when ``settings.simulate_accuracy`` is set.

    Every genome's design point is byte-identical to
    ``evaluate_genome(genome, prepared, settings, seed=seeds[g])`` — the
    stacked trainer's bit-identity contract plus exact integer/argmax
    arithmetic make batching numerically invisible, which the golden tests
    in ``tests/test_stacked_evaluation.py`` assert. Populations the stacked
    trainer cannot handle (architecture mismatches, zero fine-tuning
    epochs, non-symmetric quantizers) silently fall back to the serial
    per-genome loop.
    """
    settings = settings if settings is not None else _EvaluationSettings()
    genomes = list(genomes)
    if seeds is None:
        seeds = [None] * len(genomes)
    seeds = list(seeds)
    if len(seeds) != len(genomes):
        raise ValueError(f"Got {len(seeds)} seeds for {len(genomes)} genomes")

    def _serial_fallback() -> List[DesignPoint]:
        return [
            evaluate_genome(genome, prepared, settings, seed=seed)
            for genome, seed in zip(genomes, seeds)
        ]

    if len(genomes) < 2 or settings.finetune_epochs <= 0:
        return _serial_fallback()

    with profiling.stage("evaluate_population_stacked"):
        models, clusterings = _apply_population_minimizations(
            genomes, prepared, settings, seeds
        )
        if not supports_stacking(models):
            # Finish serially on the models already built — re-running the
            # pruning/clustering preamble would only repeat identical work.
            results = []
            for genome, model, clustering_result, seed in zip(
                genomes, models, clusterings, seeds
            ):
                with profiling.stage("evaluate_genome"):
                    _finetune_model(prepared, settings, model, clustering_result, seed)
                    results.append(
                        _score_model(genome, prepared, settings, model, seed=seed)
                    )
            return results

        data = prepared.data
        with profiling.stage("finetune"):
            finetune_stacked(
                models,
                data.train.features,
                data.train.labels,
                data.validation.features,
                data.validation.labels,
                epochs=settings.finetune_epochs,
                learning_rate=settings.finetune_learning_rate,
                seeds=seeds,
            )
        clustered = [index for index, result in enumerate(clusterings) if result is not None]
        reproject_population_clusters(
            [models[index] for index in clustered],
            [clusterings[index] for index in clustered],
        )

        bespoke_configs = [_bespoke_config(genome, prepared) for genome in genomes]
        test = data.test
        labels = np.asarray(test.labels).reshape(-1).astype(int)
        simulators = None
        if settings.simulate_accuracy or settings.robustness_enabled:
            simulators = [
                FixedPointSimulator(model, config)
                for model, config in zip(models, bespoke_configs)
            ]
        with profiling.stage("accuracy"):
            if settings.simulate_accuracy:
                accuracies = population_accuracy(simulators, test.features, labels)
            else:
                predictions = predict_stacked(models, test.features)
                accuracies = (predictions == labels).mean(axis=-1)
        robust_accuracies: List[Optional[float]] = [None] * len(genomes)
        accuracy_stds: List[Optional[float]] = [None] * len(genomes)
        if settings.robustness_enabled:
            with profiling.stage("robustness"):
                fault_results = monte_carlo_population(
                    simulators,
                    test.features,
                    labels,
                    [settings.fault_config(seed) for seed in seeds],
                )
            robust_accuracies = [result.mean_accuracy for result in fault_results]
            accuracy_stds = [result.accuracy_std for result in fault_results]
        return [
            _synthesize_point(
                genome,
                prepared,
                model,
                config,
                float(acc),
                robust_accuracy=robust,
                accuracy_std=std,
            )
            for genome, model, config, acc, robust, std in zip(
                genomes, models, bespoke_configs, accuracies, robust_accuracies, accuracy_stds
            )
        ]


def objectives_of(
    point: DesignPoint, baseline: DesignPoint, robust: bool = False
) -> Tuple[float, ...]:
    """The minimized objectives of one design point.

    The default is the paper's pair ``(relative accuracy loss, normalized
    area)``. With ``robust=True`` a third minimized objective is appended:
    the *robust* accuracy loss ``max(1 - robust_accuracy / baseline
    accuracy, 0)`` — the loss the deployed circuit actually shows under the
    configured Monte-Carlo defect model. The 2-objective form is untouched,
    so robustness-disabled searches rank (and therefore evolve)
    byte-identically to earlier versions.
    """
    if baseline.accuracy <= 0 or baseline.area <= 0:
        raise ValueError("Baseline accuracy and area must be positive")
    loss = max(1.0 - point.accuracy / baseline.accuracy, 0.0)
    normalized_area = point.area / baseline.area
    if not robust:
        return (loss, normalized_area)
    if point.robust_accuracy is None:
        raise ValueError(
            "Robust objective requested but the design point has no "
            "robust_accuracy — evaluate with fault_rate > 0 and "
            "n_fault_trials > 0"
        )
    robust_loss = max(1.0 - point.robust_accuracy / baseline.accuracy, 0.0)
    return (loss, normalized_area, robust_loss)
