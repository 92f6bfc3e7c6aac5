"""Tests for the fault-injection / reliability analysis (repro.reliability)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.pruning import prune_by_magnitude
from repro.quantization import QATConfig, attach_quantizers, quantize_aware_train
from repro.reliability import (
    FAULT_MODELS,
    FaultInjectionConfig,
    FaultInjectionResult,
    compare_fault_tolerance,
    fault_rate_sweep,
    inject_faults,
    run_fault_injection,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "reliability_golden.json"


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fault_rate": -0.1},
            {"fault_rate": 1.5},
            {"fault_model": "bridging"},
            {"weight_bits": 1},
            {"level_shift_levels": 0},
            {"n_trials": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultInjectionConfig(**kwargs)

    def test_fault_models_constant(self):
        assert set(FAULT_MODELS) == {"open", "short", "level_shift"}


class TestInjectFaults:
    def test_zero_rate_injects_nothing(self, seeds_model):
        candidate = seeds_model.clone()
        before = [layer.weights.copy() for layer in candidate.dense_layers]
        count = inject_faults(
            candidate, FaultInjectionConfig(fault_rate=0.0), np.random.default_rng(0)
        )
        assert count == 0
        for layer, original in zip(candidate.dense_layers, before):
            np.testing.assert_array_equal(layer.weights, original)

    def test_open_faults_zero_weights(self, seeds_model):
        candidate = seeds_model.clone()
        nonzero_before = sum(
            np.count_nonzero(layer.effective_weights()) for layer in candidate.dense_layers
        )
        count = inject_faults(
            candidate,
            FaultInjectionConfig(fault_rate=0.2, fault_model="open"),
            np.random.default_rng(0),
        )
        nonzero_after = sum(
            np.count_nonzero(layer.effective_weights()) for layer in candidate.dense_layers
        )
        assert count > 0
        assert nonzero_after == nonzero_before - count

    def test_short_faults_set_extreme_values(self, seeds_model):
        candidate = seeds_model.clone()
        config = FaultInjectionConfig(fault_rate=0.3, fault_model="short", weight_bits=8)
        inject_faults(candidate, config, np.random.default_rng(1))
        max_abs = max(np.abs(layer.weights).max() for layer in candidate.dense_layers)
        original_max = max(np.abs(layer.weights).max() for layer in seeds_model.dense_layers)
        assert max_abs >= original_max * 0.99

    def test_level_shift_changes_weights_slightly(self, seeds_model):
        candidate = seeds_model.clone()
        config = FaultInjectionConfig(
            fault_rate=0.3, fault_model="level_shift", weight_bits=6, level_shift_levels=1
        )
        inject_faults(candidate, config, np.random.default_rng(2))
        deltas = [
            np.abs(c.weights - o.weights).max()
            for c, o in zip(candidate.dense_layers, seeds_model.dense_layers)
        ]
        assert max(deltas) > 0.0

    def test_pruned_connections_not_eligible(self, seeds_model):
        candidate = seeds_model.clone()
        prune_by_magnitude(candidate, 0.5)
        config = FaultInjectionConfig(fault_rate=1.0, fault_model="short", weight_bits=8)
        inject_faults(candidate, config, np.random.default_rng(0))
        # Shorted weights only appear where the mask allows hardware.
        for layer in candidate.dense_layers:
            assert np.all(layer.effective_weights()[layer.mask == 0.0] == 0.0)


class TestCampaigns:
    def test_run_fault_injection_result_fields(self, seeds_model, seeds_data):
        config = FaultInjectionConfig(fault_rate=0.05, n_trials=5, seed=0)
        result = run_fault_injection(
            seeds_model, seeds_data.test.features, seeds_data.test.labels, config
        )
        assert isinstance(result, FaultInjectionResult)
        assert len(result.accuracy_per_trial) == 5
        assert result.worst_accuracy <= result.mean_accuracy <= 1.0
        assert result.fault_free_accuracy >= result.worst_accuracy - 1e-9
        assert result.mean_accuracy_drop >= -0.05
        assert "fault_model" in result.as_dict()

    def test_original_model_untouched(self, seeds_model, seeds_data):
        before = seeds_model.dense_layers[0].weights.copy()
        run_fault_injection(
            seeds_model,
            seeds_data.test.features,
            seeds_data.test.labels,
            FaultInjectionConfig(fault_rate=0.2, n_trials=3),
        )
        np.testing.assert_array_equal(seeds_model.dense_layers[0].weights, before)

    def test_deterministic_given_seed(self, seeds_model, seeds_data):
        config = FaultInjectionConfig(fault_rate=0.1, n_trials=4, seed=11)
        first = run_fault_injection(
            seeds_model, seeds_data.test.features, seeds_data.test.labels, config
        )
        second = run_fault_injection(
            seeds_model, seeds_data.test.features, seeds_data.test.labels, config
        )
        assert first.accuracy_per_trial == second.accuracy_per_trial

    def test_higher_fault_rates_hurt_more(self, seeds_model, seeds_data):
        results = fault_rate_sweep(
            seeds_model,
            seeds_data.test.features,
            seeds_data.test.labels,
            fault_rates=(0.02, 0.3),
            fault_model="short",
            n_trials=8,
            seed=0,
        )
        assert results[0].mean_accuracy >= results[1].mean_accuracy

    def test_accuracy_std_matches_per_trial_accuracies(self, seeds_model, seeds_data):
        result = run_fault_injection(
            seeds_model,
            seeds_data.test.features,
            seeds_data.test.labels,
            FaultInjectionConfig(fault_rate=0.2, n_trials=6, seed=1),
        )
        assert result.accuracy_std == float(np.std(result.accuracy_per_trial))
        assert result.as_dict()["accuracy_std"] == result.accuracy_std
        assert FaultInjectionResult(
            config=result.config,
            fault_free_accuracy=1.0,
            mean_accuracy=1.0,
            worst_accuracy=1.0,
        ).accuracy_std == 0.0

    def test_compare_fault_tolerance_designs(self, seeds_model, seeds_data):
        quantized = seeds_model.clone()
        attach_quantizers(quantized, 3)
        comparison = compare_fault_tolerance(
            {"baseline": seeds_model, "quantized": quantized},
            seeds_data.test.features,
            seeds_data.test.labels,
            FaultInjectionConfig(fault_rate=0.05, n_trials=3, seed=0),
        )
        assert set(comparison) == {"baseline", "quantized"}
        for result in comparison.values():
            assert 0.0 <= result.mean_accuracy <= 1.0

    def test_minimized_design_stays_functional_under_defects(self, seeds_model, seeds_data):
        minimized = seeds_model.clone()
        prune_by_magnitude(minimized, 0.4)
        quantize_aware_train(minimized, seeds_data, QATConfig(weight_bits=4, epochs=8), seed=0)
        comparison = compare_fault_tolerance(
            {"baseline": seeds_model, "minimized": minimized},
            seeds_data.test.features,
            seeds_data.test.labels,
            FaultInjectionConfig(
                fault_rate=0.05, fault_model="open", weight_bits=8, n_trials=15, seed=0
            ),
        )
        # Both designs stay functional at a 5 % defect rate; the minimized one
        # has fewer redundant connections, so some extra drop is expected.
        assert comparison["baseline"].mean_accuracy > 0.6
        assert comparison["minimized"].mean_accuracy > 0.6
        extra_drop = (
            comparison["minimized"].mean_accuracy_drop
            - comparison["baseline"].mean_accuracy_drop
        )
        assert extra_drop < 0.25


class TestGoldenRegression:
    """Pin the float-model sweep outputs with a checked-in fixture.

    The fixture (``tests/data/reliability_golden.json``) was generated from
    the shared Seeds classifier before the Monte-Carlo vectorization work
    started, so any numeric drift in ``fault_rate_sweep`` /
    ``compare_fault_tolerance`` — however it sneaks in — fails loudly. Exact
    float equality is intended: these paths are fully seeded.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    @staticmethod
    def _assert_matches(result, expected):
        document = dict(
            result.as_dict(),
            accuracy_per_trial=result.accuracy_per_trial,
            faults_per_trial=result.faults_per_trial,
        )
        assert document == expected

    def test_fault_rate_sweep_pinned(self, seeds_model, seeds_data, golden):
        sweep = fault_rate_sweep(
            seeds_model,
            seeds_data.test.features,
            seeds_data.test.labels,
            fault_rates=(0.01, 0.05, 0.2),
            fault_model="open",
            n_trials=6,
            weight_bits=8,
            seed=0,
        )
        assert len(sweep) == len(golden["fault_rate_sweep"])
        for result, expected in zip(sweep, golden["fault_rate_sweep"]):
            self._assert_matches(result, expected)

    def test_compare_fault_tolerance_pinned(self, seeds_model, seeds_data, golden):
        minimized = seeds_model.clone()
        prune_by_magnitude(minimized, 0.4)
        attach_quantizers(minimized, 4)
        comparison = compare_fault_tolerance(
            {"baseline": seeds_model, "minimized": minimized},
            seeds_data.test.features,
            seeds_data.test.labels,
            FaultInjectionConfig(
                fault_rate=0.1, fault_model="short", weight_bits=8, n_trials=5, seed=3
            ),
        )
        assert set(comparison) == set(golden["compare_fault_tolerance"])
        for name, result in comparison.items():
            self._assert_matches(result, golden["compare_fault_tolerance"][name])
