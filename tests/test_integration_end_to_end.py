"""End-to-end integration tests: the full story on one small classifier.

These tests exercise the complete reproduction path in one place — train,
minimize with all three techniques, synthesize, verify the circuit
bit-accurately, check energy and reliability, and export artefacts — and
assert the cross-module invariants that individual unit tests cannot see
(e.g. the area model, the Verilog netlist and the simulator must all describe
the same circuit).
"""

import pytest

from repro.analysis import export_sweep, sweep_plot
from repro.bespoke import (
    BespokeConfig,
    FixedPointSimulator,
    count_verilog_adders,
    export_verilog,
    synthesize,
)
from repro.clustering import cluster_and_finetune
from repro.core import best_area_gain_at_loss, pareto_front
from repro.hardware import battery_life_comparison, energy_per_inference
from repro.pruning import prune_by_magnitude
from repro.quantization import QATConfig, quantize_aware_train
from repro.reliability import FaultInjectionConfig, run_fault_injection


@pytest.fixture(scope="module")
def prepared(prepared_pipeline):
    return prepared_pipeline.prepare()


@pytest.fixture(scope="module")
def minimized_design(prepared):
    """A combined minimized design: 40 % sparsity, 3 clusters, 3-bit QAT."""
    model = prepared.baseline_model.clone()
    prune_by_magnitude(model, 0.4)
    cluster_and_finetune(model, prepared.data, 3, epochs=5, seed=0)
    quantize_aware_train(model, prepared.data, QATConfig(weight_bits=3, epochs=8), seed=0)
    config = BespokeConfig(input_bits=4, weight_bits=3)
    report = synthesize(model, config=config, name="seeds_combined_e2e")
    return model, config, report


class TestCombinedMinimizationStory:
    def test_area_shrinks_while_accuracy_holds(self, prepared, minimized_design):
        model, _, report = minimized_design
        accuracy = model.evaluate_accuracy(
            prepared.data.test.features, prepared.data.test.labels
        )
        assert report.area < prepared.baseline_point.area * 0.6
        assert accuracy >= prepared.baseline_accuracy - 0.12

    def test_all_three_mechanisms_visible_in_hardware(self, prepared, minimized_design):
        model, _, report = minimized_design
        baseline_report = prepared.baseline_point.report
        # Pruning: fewer multipliers than connections; clustering/sharing: the
        # shared-product count is non-zero; quantization: smaller area per mult.
        assert report.n_multipliers < baseline_report.n_multipliers
        assert report.n_shared_products > 0
        assert model.sparsity() >= 0.3

    def test_power_and_energy_follow_area(self, prepared, minimized_design):
        _, _, report = minimized_design
        baseline = prepared.baseline_point.report
        assert baseline.power / report.power > 1.3
        assert energy_per_inference(baseline) / energy_per_inference(report) > 1.3

    def test_circuit_is_functionally_the_model(self, prepared, minimized_design):
        model, config, _ = minimized_design
        simulator = FixedPointSimulator(model, config)
        agreement = simulator.agreement_with_model(model, prepared.data.test.features)
        assert agreement >= 0.95

    def test_verilog_matches_area_model_trend(self, prepared, minimized_design):
        model, config, report = minimized_design
        baseline_source = export_verilog(
            prepared.baseline_model, BespokeConfig(input_bits=4, weight_bits=8)
        )
        minimized_source = export_verilog(model, config)
        # The structural netlist must shrink in the same direction as the
        # analytical area model.
        assert count_verilog_adders(minimized_source) < count_verilog_adders(baseline_source)
        assert report.area < prepared.baseline_point.area

    def test_minimized_design_survives_defects(self, prepared, minimized_design):
        model, _, _ = minimized_design
        result = run_fault_injection(
            model,
            prepared.data.test.features,
            prepared.data.test.labels,
            FaultInjectionConfig(fault_rate=0.03, n_trials=5, seed=0),
        )
        assert result.mean_accuracy >= result.fault_free_accuracy - 0.15


class TestSweepToArtefacts:
    def test_sweep_export_and_plot_roundtrip(self, prepared_pipeline, tmp_path):
        sweep = prepared_pipeline.run(("quantization",))
        front = pareto_front(sweep.points)
        assert front
        best = best_area_gain_at_loss(sweep.points, sweep.baseline, 0.05)
        assert best is None or best.area_gain >= 1.0

        paths = export_sweep(sweep, tmp_path)
        assert all(path.exists() for path in paths.values())
        figure = sweep_plot(sweep)
        assert "q" in figure and "B" in figure

    def test_best_quantized_design_saves_power_energy_and_battery(self, prepared_pipeline):
        """Power and energy follow area: the smallest quantized design within
        the 5 % accuracy budget is also the more power-efficient one."""
        prepared = prepared_pipeline.prepare()
        points = prepared_pipeline.run_technique("quantization")
        best = best_area_gain_at_loss(points, prepared.baseline_point, 0.05)
        design = next(p for p in points if p.parameters == best.parameters).report
        baseline = prepared.baseline_point.report
        assert baseline.power / design.power > 1.5
        assert energy_per_inference(baseline) / energy_per_inference(design) > 1.5
        battery = battery_life_comparison(design, baseline, inferences_per_second=1.0)
        assert battery["lifetime_gain"] > 1.5

    def test_quantized_points_agree_between_accuracy_and_circuit(self, prepared_pipeline):
        """The accuracy reported by a sweep point must be reproducible by
        simulating the corresponding circuit configuration."""
        prepared = prepared_pipeline.prepare()
        points = prepared_pipeline.run_technique("quantization")
        # Rebuild the most aggressive configuration and cross-check.
        lowest = min(points, key=lambda p: p.parameters["weight_bits"])
        model = prepared.baseline_model.clone()
        quantize_aware_train(
            model,
            prepared.data,
            QATConfig(weight_bits=int(lowest.parameters["weight_bits"]),
                      epochs=prepared.config.finetune_epochs),
            seed=prepared.config.seed,
        )
        simulator = FixedPointSimulator(
            model,
            BespokeConfig(
                input_bits=prepared.config.input_bits,
                weight_bits=int(lowest.parameters["weight_bits"]),
            ),
        )
        circuit_accuracy = simulator.evaluate_accuracy(
            prepared.data.test.features, prepared.data.test.labels
        )
        assert circuit_accuracy == pytest.approx(lowest.accuracy, abs=0.08)
