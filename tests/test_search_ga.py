"""Integration tests for genome evaluation and the hardware-aware GA."""

import numpy as np
import pytest

from repro.core import PipelineConfig
from repro.core.pareto import pareto_front
from repro.search import (
    EvaluationEngine,
    EvaluationSettings,
    GAConfig,
    Genome,
    HardwareAwareGA,
    apply_genome,
    evaluate_genome,
    grid_search,
    objectives_of,
    random_search,
    resolve_evaluation_settings,
    run_combined_search,
)


@pytest.fixture(scope="module")
def prepared(prepared_pipeline):
    return prepared_pipeline.prepare()


def genome(bits=4, sparsity=0.0, clusters=0, n_layers=2):
    return Genome(
        weight_bits=(bits,) * n_layers,
        sparsity=(sparsity,) * n_layers,
        clusters=(clusters,) * n_layers,
    )


class TestGenomeEvaluation:
    def test_apply_genome_leaves_baseline_untouched(self, prepared):
        before = prepared.baseline_model.dense_layers[0].weights.copy()
        apply_genome(genome(bits=3, sparsity=0.3, clusters=2), prepared,
                     EvaluationSettings(finetune_epochs=2), seed=0)
        np.testing.assert_array_equal(
            prepared.baseline_model.dense_layers[0].weights, before
        )
        assert prepared.baseline_model.dense_layers[0].mask is None

    def test_apply_genome_respects_all_three_techniques(self, prepared):
        model = apply_genome(
            genome(bits=3, sparsity=0.4, clusters=2), prepared,
            EvaluationSettings(finetune_epochs=2), seed=0,
        )
        # pruning applied
        assert model.sparsity() >= 0.25
        # quantizers attached
        assert all(layer.weight_quantizer is not None for layer in model.dense_layers)
        # clustering applied: at most 2 distinct non-zero values per input row
        for layer in model.dense_layers:
            for row in layer.weights:
                nonzero = row[row != 0.0]
                if nonzero.size:
                    assert len(np.unique(nonzero)) <= 2

    def test_genome_layer_mismatch_rejected(self, prepared):
        with pytest.raises(ValueError):
            apply_genome(genome(n_layers=3), prepared)

    def test_evaluate_genome_returns_combined_point(self, prepared):
        point = evaluate_genome(
            genome(bits=4, sparsity=0.2), prepared,
            EvaluationSettings(finetune_epochs=2), seed=0,
        )
        assert point.technique == "combined"
        assert point.area > 0
        assert point.parameters["weight_bits"] == [4, 4]

    def test_baseline_genome_close_to_baseline_point(self, prepared):
        point = evaluate_genome(
            genome(bits=8, sparsity=0.0, clusters=0), prepared,
            EvaluationSettings(finetune_epochs=0),
        )
        assert point.area == pytest.approx(prepared.baseline_point.area, rel=0.05)

    def test_aggressive_genome_much_smaller(self, prepared):
        aggressive = evaluate_genome(
            genome(bits=2, sparsity=0.5, clusters=2), prepared,
            EvaluationSettings(finetune_epochs=2), seed=0,
        )
        assert aggressive.area < prepared.baseline_point.area * 0.5

    def test_objectives_of(self, prepared):
        baseline = prepared.baseline_point
        loss, area = objectives_of(baseline, baseline)
        assert loss == pytest.approx(0.0)
        assert area == pytest.approx(1.0)

    def test_cached_evaluator_memoizes(self, prepared):
        evaluator = EvaluationEngine(prepared, EvaluationSettings(finetune_epochs=1), seed=0)
        g = genome(bits=4)
        first = evaluator(g)
        second = evaluator(g)
        assert first is second
        assert evaluator.n_evaluations == 1
        assert evaluator.cache_size == 1
        assert evaluator.all_points() == [first]


class TestGAConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 2},
            {"n_generations": 0},
            {"mutation_rate": 1.5},
            {"crossover_rate": -0.1},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            GAConfig(**kwargs)


class TestHardwareAwareGA:
    @pytest.fixture(scope="class")
    def ga_result(self, prepared):
        config = GAConfig(
            population_size=6, n_generations=3, finetune_epochs=2, seed=0,
            bit_choices=(2, 4, 8), sparsity_choices=(0.0, 0.3, 0.6), cluster_choices=(0, 2),
        )
        return HardwareAwareGA(prepared, config=config).run()

    def test_front_is_non_dominated(self, ga_result):
        front = ga_result.front
        assert front == pareto_front(front)
        assert len(front) >= 1

    def test_all_points_recorded(self, ga_result):
        assert len(ga_result.all_points) == ga_result.n_evaluations
        assert ga_result.n_evaluations >= 6

    def test_generation_statistics(self, ga_result):
        assert len(ga_result.generations) == 3
        for entry in ga_result.generations:
            assert entry["front_size"] >= 1
            assert entry["best_area_gain"] >= 1.0

    def test_combined_front_reaches_small_areas(self, ga_result, prepared):
        best_gain = max(prepared.baseline_point.area / p.area for p in ga_result.front)
        assert best_gain > 2.0

    def test_best_within_loss_budget(self, ga_result, prepared):
        best = ga_result.best_area_within_loss(prepared.baseline_point, max_loss=0.5)
        assert best is not None
        none_budget = ga_result.best_area_within_loss(prepared.baseline_point, max_loss=-1.0)
        assert none_budget is None

    def test_run_combined_search_wrapper(self, prepared):
        result = run_combined_search(
            prepared,
            GAConfig(population_size=4, n_generations=1, finetune_epochs=1, seed=1),
        )
        assert result.front


class TestExhaustiveBaselines:
    def test_random_search_respects_budget(self, prepared):
        points = random_search(
            prepared, n_evaluations=5,
            settings=EvaluationSettings(finetune_epochs=1), seed=0,
        )
        assert len(points) == 5

    def test_random_search_invalid_budget(self, prepared):
        with pytest.raises(ValueError):
            random_search(prepared, n_evaluations=0)

    def test_grid_search_covers_grid(self, prepared):
        points = grid_search(
            prepared,
            bit_choices=(4, 8), sparsity_choices=(0.0, 0.4), cluster_choices=(0,),
            settings=EvaluationSettings(finetune_epochs=1), seed=0,
        )
        assert len(points) == 4
        assert all(p.technique == "combined" for p in points)


class TestRobustnessAwareGA:
    """Fault tolerance as a third NSGA-II objective (PR-5 tentpole wiring)."""

    @pytest.fixture(scope="class")
    def robust_result(self, prepared):
        config = GAConfig(
            population_size=6, n_generations=2, finetune_epochs=2, seed=0,
            fault_rate=0.1, n_fault_trials=4, fault_model="short",
            bit_choices=(2, 4, 8), sparsity_choices=(0.0, 0.3, 0.6), cluster_choices=(0, 2),
        )
        return HardwareAwareGA(prepared, config=config).run()

    def test_every_point_carries_robustness(self, robust_result):
        for point in robust_result.front + robust_result.all_points:
            assert point.robust_accuracy is not None
            assert point.accuracy_std is not None
            assert 0.0 <= point.robust_accuracy <= 1.0

    def test_front_is_robust_nondominated(self, robust_result):
        assert robust_result.front == pareto_front(robust_result.front, robust=True)

    def test_deterministic_given_seed(self, prepared, robust_result):
        config = GAConfig(
            population_size=6, n_generations=2, finetune_epochs=2, seed=0,
            fault_rate=0.1, n_fault_trials=4, fault_model="short",
            bit_choices=(2, 4, 8), sparsity_choices=(0.0, 0.3, 0.6), cluster_choices=(0, 2),
        )
        repeat = HardwareAwareGA(prepared, config=config).run()
        assert [
            (p.accuracy, p.area, p.robust_accuracy, p.accuracy_std)
            for p in repeat.front
        ] == [
            (p.accuracy, p.area, p.robust_accuracy, p.accuracy_std)
            for p in robust_result.front
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fault_rate": 1.5},
            {"fault_rate": -0.1},
            {"n_fault_trials": -1},
            {"fault_model": "bridging"},
        ],
    )
    def test_invalid_fault_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GAConfig(**kwargs)


class TestResolveEvaluationSettings:
    def test_defaults_with_no_configs(self):
        assert resolve_evaluation_settings() == EvaluationSettings(
            finetune_epochs=8, fault_rate=0.0, n_fault_trials=0, fault_model="open"
        )

    def test_search_entry_knobs_with_pipeline_epochs(self):
        config = PipelineConfig(dataset="seeds", finetune_epochs=3)
        settings = resolve_evaluation_settings(
            config, fault_rate=0.1, n_fault_trials=7, fault_model="short"
        )
        assert settings == EvaluationSettings(
            finetune_epochs=3, fault_rate=0.1, n_fault_trials=7, fault_model="short"
        )
        assert resolve_evaluation_settings(config) == EvaluationSettings(finetune_epochs=3)

    def test_ga_config_ignores_pipeline(self):
        ga_config = GAConfig(
            finetune_epochs=5, fault_rate=0.2, n_fault_trials=9, fault_model="level_shift"
        )
        config = PipelineConfig(dataset="seeds", finetune_epochs=3)
        settings = resolve_evaluation_settings(config, ga_config=ga_config)
        assert settings == resolve_evaluation_settings(ga_config=ga_config)
        assert settings == EvaluationSettings(
            finetune_epochs=5, fault_rate=0.2, n_fault_trials=9, fault_model="level_shift"
        )
        with pytest.raises(TypeError):
            resolve_evaluation_settings(ga_config=ga_config, fault_rate=0.1)

    def test_ga_only_without_pipeline(self):
        settings = resolve_evaluation_settings(
            ga_config=GAConfig(fault_rate=0.05, n_fault_trials=2)
        )
        assert settings.fault_rate == 0.05
        assert settings.n_fault_trials == 2
        assert settings.fault_model == "open"
