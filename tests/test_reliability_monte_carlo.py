"""Vectorized Monte-Carlo fault injection: bit-identity, seeding, engine seams.

The PR-5 tentpole promises that the batched fault-injection kernel is
*numerically invisible*: bit-identical to the retained per-trial reference
loop across fault models, weight bit-widths and degenerate rates, identical
between the single-simulator and population forms, and identical across
every evaluation seam of the engine (serial / process pool / stacked).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from strategies import fault_configs, quantized_weight_tensors

from repro.bespoke import BespokeConfig, FixedPointSimulator
from repro.core.pareto import dominates, pareto_front
from repro.core.results import DesignPoint
from repro.pruning import prune_by_magnitude
from repro.reliability import (
    FaultInjectionConfig,
    accumulator_bounds,
    fault_trial_seed,
    float_path_is_exact,
    monte_carlo_fault_injection,
    monte_carlo_fault_injection_reference,
    monte_carlo_population,
)
from repro.reliability import monte_carlo as monte_carlo_module
from repro.search import (
    EvaluationEngine,
    EvaluationSettings,
    GenomeSpace,
    evaluate_genome,
    genome_seed,
    objectives_of,
)


@pytest.fixture(scope="module")
def simulator(seeds_model):
    return FixedPointSimulator(seeds_model, BespokeConfig(input_bits=4, weight_bits=4))


def _assert_results_equal(a, b):
    """Exact (bitwise float) equality of two FaultInjectionResults."""
    assert a.config == b.config
    assert a.fault_free_accuracy == b.fault_free_accuracy
    assert a.mean_accuracy == b.mean_accuracy
    assert a.worst_accuracy == b.worst_accuracy
    assert a.accuracy_per_trial == b.accuracy_per_trial
    assert a.faults_per_trial == b.faults_per_trial
    assert a.accuracy_std == b.accuracy_std


class TestTrialSeeds:
    def test_deterministic_and_in_numpy_range(self):
        seeds = [fault_trial_seed(7, trial) for trial in range(50)]
        assert seeds == [fault_trial_seed(7, trial) for trial in range(50)]
        assert all(0 <= seed < 2**32 for seed in seeds)

    def test_distinct_across_trials_and_bases(self):
        seeds = {fault_trial_seed(base, trial) for base in range(8) for trial in range(8)}
        assert len(seeds) == 64  # SHA-256 makes collisions vanishingly unlikely


class TestVectorizedEqualsReference:
    @pytest.mark.parametrize("fault_model", ["open", "short", "level_shift"])
    @pytest.mark.parametrize("fault_rate", [0.0, 0.05, 0.5, 1.0])
    def test_models_and_rates(self, simulator, seeds_data, fault_model, fault_rate):
        config = FaultInjectionConfig(
            fault_rate=fault_rate, fault_model=fault_model, n_trials=6, seed=11
        )
        fast = monte_carlo_fault_injection(
            simulator, seeds_data.test.features, seeds_data.test.labels, config
        )
        reference = monte_carlo_fault_injection_reference(
            simulator, seeds_data.test.features, seeds_data.test.labels, config
        )
        _assert_results_equal(fast, reference)

    @pytest.mark.parametrize("weight_bits", [2, 4, 8])
    def test_weight_bit_widths(self, seeds_model, seeds_data, weight_bits):
        simulator = FixedPointSimulator(
            seeds_model, BespokeConfig(input_bits=4, weight_bits=weight_bits)
        )
        config = FaultInjectionConfig(
            fault_rate=0.15, fault_model="level_shift", n_trials=5, seed=3
        )
        _assert_results_equal(
            monte_carlo_fault_injection(
                simulator, seeds_data.test.features, seeds_data.test.labels, config
            ),
            monte_carlo_fault_injection_reference(
                simulator, seeds_data.test.features, seeds_data.test.labels, config
            ),
        )

    def test_bias_sites(self, simulator, seeds_data):
        config = FaultInjectionConfig(
            fault_rate=0.3, fault_model="short", n_trials=5, seed=5, include_bias=True
        )
        _assert_results_equal(
            monte_carlo_fault_injection(
                simulator, seeds_data.test.features, seeds_data.test.labels, config
            ),
            monte_carlo_fault_injection_reference(
                simulator, seeds_data.test.features, seeds_data.test.labels, config
            ),
        )

    def test_pruned_model_excludes_dead_connections(self, seeds_model, seeds_data):
        pruned = seeds_model.clone()
        prune_by_magnitude(pruned, 0.5)
        simulator = FixedPointSimulator(pruned, BespokeConfig(input_bits=4, weight_bits=4))
        config = FaultInjectionConfig(fault_rate=1.0, fault_model="open", n_trials=3, seed=0)
        result = monte_carlo_fault_injection(
            simulator, seeds_data.test.features, seeds_data.test.labels, config
        )
        n_nonzero = sum(
            int(np.count_nonzero(layer.weights)) for layer in simulator.layers
        )
        assert result.faults_per_trial == [n_nonzero] * 3
        _assert_results_equal(
            result,
            monte_carlo_fault_injection_reference(
                simulator, seeds_data.test.features, seeds_data.test.labels, config
            ),
        )

    @pytest.mark.parametrize("forced", [np.int64, np.float32, np.float64])
    def test_forward_dtype_tiers_identical(self, simulator, seeds_data, monkeypatch, forced):
        """Every arithmetic tier (float32/float64 BLAS, int64 fallback)
        produces the same bits — the dtype choice is purely a speed knob."""
        config = FaultInjectionConfig(fault_rate=0.2, fault_model="short", n_trials=4, seed=9)
        fast = monte_carlo_fault_injection(
            simulator, seeds_data.test.features, seeds_data.test.labels, config
        )
        monkeypatch.setattr(
            monte_carlo_module, "_forward_dtype", lambda simulators: np.dtype(forced)
        )
        forced_result = monte_carlo_fault_injection(
            simulator, seeds_data.test.features, seeds_data.test.labels, config
        )
        _assert_results_equal(fast, forced_result)

    def test_forward_dtype_tiering(self, simulator, seeds_model):
        """The tier picker matches the documented bounds."""
        assert monte_carlo_module._forward_dtype([simulator]) == np.float32
        wide = FixedPointSimulator(seeds_model, BespokeConfig(input_bits=4, weight_bits=8))
        wide_bound = max(accumulator_bounds(wide))
        expected = np.float32 if wide_bound < (1 << 21) else np.float64
        assert monte_carlo_module._forward_dtype([wide]) == expected
        # A mixed population adopts the widest member's tier.
        assert monte_carlo_module._forward_dtype([simulator, wide]) == expected

    @given(config=fault_configs(max_trials=4))
    @settings(max_examples=15, deadline=None)
    def test_arbitrary_configs(self, simulator, seeds_data, config):
        """Property over the full fault-config domain (rates 0.0 and 1.0,
        every model, bias sites on/off, arbitrary seeds)."""
        _assert_results_equal(
            monte_carlo_fault_injection(
                simulator, seeds_data.test.features, seeds_data.test.labels, config
            ),
            monte_carlo_fault_injection_reference(
                simulator, seeds_data.test.features, seeds_data.test.labels, config
            ),
        )

    @given(drawn=quantized_weight_tensors())
    @settings(max_examples=60, deadline=None)
    def test_batch_accuracies_keep_argmax_tie_rule(self, drawn):
        """The kernel's folded-score accuracy keeps numpy's first-occurrence
        argmax tie rule on integer score matrices (small levels make ties
        common), in both the float64 and the int64 stacking dtypes."""
        scores, _ = drawn
        labels = np.arange(scores.shape[0]) % scores.shape[1]
        expected = float((np.argmax(scores, axis=-1) == labels).mean())
        for dtype in (np.float64, np.int64):
            batched = scores[None].astype(dtype)
            got = monte_carlo_module._batch_accuracies(batched, labels)
            assert got.shape == (1,) and float(got[0]) == expected

    def test_wide_class_count_regression(self):
        """>8 classes: the tie-fold multiplier must exceed every tie rank.

        Regression for a review finding: with a fixed multiplier of 8, a
        10-class row scoring (4, ..., 5) folded class 0 to 4*8+9=41 and the
        true winner (class 9, score 5) to 5*8+0=40 — declaring the wrong
        class. The multiplier now scales with the class count.
        """
        scores = np.zeros((1, 1, 10))
        scores[0, 0, 0] = 4.0
        scores[0, 0, 9] = 5.0
        labels = np.array([9])
        assert monte_carlo_module._batch_accuracies(scores, labels)[0] == 1.0

    @pytest.mark.parametrize("n_classes", [9, 10, 17])
    def test_wide_output_circuits(self, seeds_data, n_classes):
        """Full-kernel equality on circuits with more classes than the fold
        multiplier's old fixed value (pendigits-style 10-way outputs)."""
        from repro.nn import build_mlp

        model = build_mlp(7, (6,), n_classes, seed=n_classes)
        simulator = FixedPointSimulator(model, BespokeConfig(input_bits=4, weight_bits=4))
        labels = np.asarray(seeds_data.test.labels).reshape(-1) % n_classes
        config = FaultInjectionConfig(
            fault_rate=0.2, fault_model="short", n_trials=5, seed=7
        )
        _assert_results_equal(
            monte_carlo_fault_injection(
                simulator, seeds_data.test.features, labels, config
            ),
            monte_carlo_fault_injection_reference(
                simulator, seeds_data.test.features, labels, config
            ),
        )

    def test_zero_rate_trials_equal_fault_free(self, simulator, seeds_data):
        config = FaultInjectionConfig(fault_rate=0.0, n_trials=4, seed=0)
        result = monte_carlo_fault_injection(
            simulator, seeds_data.test.features, seeds_data.test.labels, config
        )
        assert result.faults_per_trial == [0] * 4
        assert result.accuracy_per_trial == [result.fault_free_accuracy] * 4
        assert result.accuracy_std == 0.0


class TestExactnessBound:
    def test_bounds_monotone_and_exactness(self, simulator):
        bounds = accumulator_bounds(simulator)
        assert len(bounds) == len(simulator.layers)
        assert all(bound > 0 for bound in bounds)
        assert float_path_is_exact(simulator)

    def test_trace_respects_static_bound(self, simulator, seeds_data):
        """The static worst case really bounds observed accumulators."""
        simulator.forward_integer(seeds_data.test.features, record_trace=True)
        bounds = accumulator_bounds(simulator)
        for low, high, bound in zip(
            simulator.trace.accumulator_min, simulator.trace.accumulator_max, bounds
        ):
            assert max(abs(low), abs(high)) <= bound


class TestPopulationKernel:
    def test_population_matches_single(self, seeds_model, seeds_data):
        models = []
        for sparsity in (0.0, 0.3, 0.6):
            model = seeds_model.clone()
            if sparsity:
                prune_by_magnitude(model, sparsity)
            models.append(model)
        simulators = [
            FixedPointSimulator(model, BespokeConfig(input_bits=4, weight_bits=4))
            for model in models
        ]
        configs = [
            FaultInjectionConfig(fault_rate=0.1, fault_model="short", n_trials=5, seed=seed)
            for seed in (101, 202, 303)
        ]
        population = monte_carlo_population(
            simulators, seeds_data.test.features, seeds_data.test.labels, configs
        )
        for simulator, config, result in zip(simulators, configs, population):
            _assert_results_equal(
                result,
                monte_carlo_fault_injection(
                    simulator, seeds_data.test.features, seeds_data.test.labels, config
                ),
            )

    def test_validation(self, simulator, seeds_data):
        config = FaultInjectionConfig(n_trials=2)
        with pytest.raises(ValueError):
            monte_carlo_population([], seeds_data.test.features, seeds_data.test.labels, [])
        with pytest.raises(ValueError):
            monte_carlo_population(
                [simulator], seeds_data.test.features, seeds_data.test.labels, [config] * 2
            )
        with pytest.raises(ValueError):
            monte_carlo_population(
                [simulator, simulator],
                seeds_data.test.features,
                seeds_data.test.labels,
                [config, FaultInjectionConfig(n_trials=3)],
            )


class TestEngineSeams:
    """Same seed => byte-identical robust design points across every seam."""

    @pytest.fixture(scope="class")
    def genomes(self, prepared_pipeline):
        prepared = prepared_pipeline.prepare()
        space = GenomeSpace(n_layers=len(prepared.baseline_model.dense_layers))
        rng = np.random.default_rng(42)
        return [space.random_genome(rng) for _ in range(4)]

    @staticmethod
    def _signatures(points):
        return [
            (p.accuracy, p.area, p.power, p.delay, p.robust_accuracy, p.accuracy_std)
            for p in points
        ]

    def test_serial_vs_workers_vs_stacked(self, prepared_pipeline, genomes):
        prepared = prepared_pipeline.prepare()
        settings = EvaluationSettings(
            finetune_epochs=2, fault_rate=0.1, n_fault_trials=4, fault_model="short"
        )
        serial = [
            evaluate_genome(g, prepared, settings, seed=genome_seed(0, g)) for g in genomes
        ]
        stacked = EvaluationEngine(prepared, settings, seed=0).evaluate_population(genomes)
        with EvaluationEngine(prepared, settings, seed=0, n_workers=2) as pool:
            parallel = pool.evaluate_population(genomes)
        assert self._signatures(serial) == self._signatures(stacked)
        assert self._signatures(serial) == self._signatures(parallel)
        assert all(p.robust_accuracy is not None for p in serial)

    def test_robust_settings_change_cache_context(self, fast_pipeline_config):
        from repro.campaign import evaluation_context_key

        plain = EvaluationSettings(finetune_epochs=2)
        robust = EvaluationSettings(finetune_epochs=2, fault_rate=0.1, n_fault_trials=4)
        assert evaluation_context_key(
            fast_pipeline_config, plain, 0
        ) != evaluation_context_key(fast_pipeline_config, robust, 0)


class TestRobustObjectivesAndFronts:
    @staticmethod
    def _point(accuracy, area, robust_accuracy=None, accuracy_std=None):
        return DesignPoint(
            technique="combined",
            accuracy=accuracy,
            area=area,
            robust_accuracy=robust_accuracy,
            accuracy_std=accuracy_std,
        )

    def test_objectives_of_appends_robust_loss(self):
        baseline = self._point(0.9, 10.0)
        point = self._point(0.85, 5.0, robust_accuracy=0.75, accuracy_std=0.01)
        two = objectives_of(point, baseline)
        three = objectives_of(point, baseline, robust=True)
        assert len(two) == 2 and three[:2] == two
        assert three[2] == pytest.approx(1.0 - 0.75 / 0.9)

    def test_objectives_of_requires_robust_accuracy(self):
        baseline = self._point(0.9, 10.0)
        with pytest.raises(ValueError):
            objectives_of(self._point(0.8, 5.0), baseline, robust=True)

    def test_robust_dominance_third_axis(self):
        fragile = self._point(0.9, 5.0, robust_accuracy=0.5)
        tough = self._point(0.9, 5.0, robust_accuracy=0.8)
        assert dominates(tough, fragile, robust=True)
        assert not dominates(fragile, tough, robust=True)
        # On the classic axes the two points tie — neither dominates.
        assert not dominates(tough, fragile) and not dominates(fragile, tough)

    def test_robust_front_keeps_tolerance_tradeoffs(self):
        small_fragile = self._point(0.9, 4.0, robust_accuracy=0.5)
        big_tough = self._point(0.9, 6.0, robust_accuracy=0.85)
        classic = pareto_front([small_fragile, big_tough])
        robust = pareto_front([small_fragile, big_tough], robust=True)
        assert classic == [small_fragile]
        assert robust == [small_fragile, big_tough]

    def test_robust_front_requires_field(self):
        with pytest.raises(ValueError):
            pareto_front([self._point(0.9, 4.0)], robust=True)

    def test_design_point_serialization_roundtrip(self):
        point = self._point(0.8, 3.0, robust_accuracy=0.7, accuracy_std=0.02)
        doc = point.as_dict()
        assert doc["robust_accuracy"] == 0.7 and doc["accuracy_std"] == 0.02
        assert DesignPoint(**doc) == point
        plain_doc = self._point(0.8, 3.0).as_dict()
        assert "robust_accuracy" not in plain_doc and "accuracy_std" not in plain_doc

    def test_design_point_validation(self):
        with pytest.raises(ValueError):
            self._point(0.8, 3.0, robust_accuracy=1.5)
        with pytest.raises(ValueError):
            self._point(0.8, 3.0, accuracy_std=-0.1)


class TestSettingsValidation:
    def test_evaluation_settings_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            EvaluationSettings(fault_rate=1.5)
        with pytest.raises(ValueError):
            EvaluationSettings(n_fault_trials=-1)
        with pytest.raises(ValueError):
            EvaluationSettings(fault_model="bridging")

    def test_robustness_enabled_needs_both_knobs(self):
        assert not EvaluationSettings().robustness_enabled
        assert not EvaluationSettings(fault_rate=0.1).robustness_enabled
        assert not EvaluationSettings(n_fault_trials=5).robustness_enabled
        assert EvaluationSettings(fault_rate=0.1, n_fault_trials=5).robustness_enabled

    def test_fault_config_derivation(self):
        settings = EvaluationSettings(
            fault_rate=0.2, n_fault_trials=7, fault_model="level_shift"
        )
        config = settings.fault_config(123)
        assert config.fault_rate == 0.2
        assert config.n_trials == 7
        assert config.fault_model == "level_shift"
        assert config.seed == 123
        assert settings.fault_config(None).seed == 0
