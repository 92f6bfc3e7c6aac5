"""Tests for the full bespoke circuit construction and synthesis reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bespoke.circuit import BespokeConfig, build_bespoke_circuit
from repro.bespoke.synthesis import (
    report_from_circuit,
    synthesize,
    synthesize_baseline,
    synthesize_cost_only,
)
from repro.hardware.technology import egt_library, silicon_library
from repro.nn.layers import ActivationLayer, Dense
from repro.nn.network import MLP, build_mlp
from repro.pruning.magnitude import prune_by_magnitude
from repro.quantization.qat import attach_quantizers


@pytest.fixture
def model():
    return build_mlp(6, (5,), 3, seed=0)


class TestBespokeConfig:
    def test_defaults(self):
        config = BespokeConfig()
        assert config.input_bits == 4
        assert config.weight_bits == 8
        assert config.share_products

    def test_per_layer_bits(self):
        config = BespokeConfig(weight_bits=(4, 6))
        assert config.bits_for_layer(0, 2) == 4
        assert config.bits_for_layer(1, 2) == 6

    def test_per_layer_bits_length_checked(self):
        config = BespokeConfig(weight_bits=(4, 6))
        with pytest.raises(ValueError):
            config.bits_for_layer(0, 3)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            BespokeConfig(input_bits=0)
        with pytest.raises(ValueError):
            BespokeConfig(weight_bits=1)
        with pytest.raises(ValueError):
            BespokeConfig(weight_bits=())
        with pytest.raises(ValueError):
            BespokeConfig(multiplier_method="karatsuba")


class TestCircuitConstruction:
    def test_component_population(self, model):
        circuit = build_bespoke_circuit(model)
        kinds = circuit.netlist.count_by_kind()
        assert kinds["adder_tree"] == 5 + 3
        assert kinds["activation"] == 5          # hidden ReLUs only
        assert kinds["argmax"] == 1
        assert kinds["register"] == 2
        assert circuit.n_multipliers > 0

    def test_no_registers_when_disabled(self, model):
        circuit = build_bespoke_circuit(model, BespokeConfig(include_io_registers=False))
        assert circuit.netlist.count_by_kind().get("register", 0) == 0

    def test_requires_dense_layers(self):
        with pytest.raises(ValueError):
            build_bespoke_circuit(MLP([]))

    def test_weight_formats_match_layer_count(self, model):
        circuit = build_bespoke_circuit(model)
        assert len(circuit.weight_formats) == 2

    def test_metadata_fields(self, model):
        circuit = build_bespoke_circuit(model, name="toy")
        assert circuit.metadata["topology"] == [6, 5, 3]
        assert circuit.metadata["weight_bits"] == [8, 8]


class TestSynthesisReports:
    def test_report_totals_positive(self, model):
        report = synthesize(model, name="toy")
        assert report.area > 0
        assert report.power > 0
        assert report.delay > 0
        assert report.total_gates > 0
        assert report.technology == "EGT"

    def test_area_breakdown_sums_to_one(self, model):
        report = synthesize(model)
        assert sum(report.area_breakdown().values()) == pytest.approx(1.0)

    def test_by_layer_breakdown_covers_area(self, model):
        report = synthesize(model)
        total = sum(cost.area for cost in report.by_layer.values())
        assert total == pytest.approx(report.area)

    def test_lower_weight_bits_reduce_area(self, model):
        wide = synthesize(model, BespokeConfig(weight_bits=8))
        narrow = synthesize(model, BespokeConfig(weight_bits=3))
        assert narrow.area < wide.area

    def test_lower_input_bits_reduce_area(self, model):
        wide = synthesize(model, BespokeConfig(input_bits=8))
        narrow = synthesize(model, BespokeConfig(input_bits=4))
        assert narrow.area < wide.area

    def test_pruning_reduces_area(self, model):
        baseline = synthesize(model)
        pruned_model = model.clone()
        prune_by_magnitude(pruned_model, 0.5)
        pruned = synthesize(pruned_model)
        assert pruned.area < baseline.area
        assert pruned.n_multipliers < baseline.n_multipliers

    def test_quantizer_hooks_respected(self, model):
        quantized_model = model.clone()
        attach_quantizers(quantized_model, 2)
        report_q = synthesize(quantized_model, BespokeConfig(weight_bits=2))
        report_f = synthesize(model, BespokeConfig(weight_bits=8))
        assert report_q.area < report_f.area

    def test_silicon_technology_much_smaller(self, model):
        egt_report = synthesize(model, tech=egt_library())
        silicon_report = synthesize(model, tech=silicon_library())
        assert egt_report.area / silicon_report.area > 100

    def test_normalization_helpers(self, model):
        baseline = synthesize(model, BespokeConfig(weight_bits=8))
        small = synthesize(model, BespokeConfig(weight_bits=3))
        assert small.normalized_area(baseline) == pytest.approx(small.area / baseline.area)
        assert small.area_gain(baseline) == pytest.approx(baseline.area / small.area)
        assert small.normalized_power(baseline) < 1.0

    def test_format_summary_contains_key_lines(self, model):
        baseline = synthesize(model)
        text = baseline.format_summary()
        assert "Total area" in text
        assert "Constant mults" in text
        normalized = synthesize(model, BespokeConfig(weight_bits=4)).format_summary(baseline)
        assert "Normalized area" in text or "Normalized area" in normalized

    def test_as_dict_serializable(self, model):
        import json

        report = synthesize(model)
        json.dumps(report.as_dict())


class TestBaselineSynthesis:
    def test_baseline_ignores_masks_and_quantizers(self, model):
        reference = synthesize_baseline(model)
        modified = model.clone()
        prune_by_magnitude(modified, 0.6)
        attach_quantizers(modified, 2)
        from_modified = synthesize_baseline(modified)
        assert from_modified.area == pytest.approx(reference.area)

    def test_baseline_leaves_input_model_untouched(self, model):
        clone = model.clone()
        prune_by_magnitude(clone, 0.5)
        synthesize_baseline(clone)
        assert clone.dense_layers[0].mask is not None

    def test_report_from_circuit_matches_synthesize(self, model):
        circuit = build_bespoke_circuit(model, name="direct")
        report = report_from_circuit(circuit)
        assert report.area == pytest.approx(synthesize(model, name="direct").area)

    def test_delay_is_serial_across_layers(self, model):
        report = synthesize(model)
        per_layer_max = max(cost.delay for cost in report.by_kind.values())
        assert report.delay >= per_layer_max


# --- cost-only synthesis vs the netlist oracle ------------------------------------


def _assert_cost_equal(fast, full):
    """Floats by ``.hex()`` (so ``-0.0 != 0.0``), gate counts in key order."""
    for field in ("area", "power", "delay"):
        assert getattr(fast, field).hex() == getattr(full, field).hex(), field
    assert fast.gate_counts == full.gate_counts
    assert list(fast.gate_counts) == list(full.gate_counts)


def _assert_reports_identical(fast, full):
    _assert_cost_equal(fast.total, full.total)
    for breakdown in ("by_kind", "by_layer"):
        fast_parts, full_parts = getattr(fast, breakdown), getattr(full, breakdown)
        assert list(fast_parts) == list(full_parts), breakdown
        for key in full_parts:
            _assert_cost_equal(fast_parts[key], full_parts[key])
    assert fast.component_counts == full.component_counts
    assert list(fast.component_counts) == list(full.component_counts)
    assert fast.n_multipliers == full.n_multipliers
    assert fast.n_shared_products == full.n_shared_products
    assert fast.metadata == full.metadata
    assert (fast.circuit_name, fast.technology) == (full.circuit_name, full.technology)


#: Weight values on a coarse grid, so magnitudes repeat (product sharing),
#: hit powers of two and zero.
_GRID_WEIGHTS = st.sampled_from([0.0, 0.25, -0.25, 0.5, -0.75, 1.0, -1.0, 1.5, -2.0, 0.3])
#: Zero, ordinary, large, and biases far beyond ``input_bits + weight_bits``
#: bits, whose operand width the circuit clamps.
_BIASES = st.sampled_from([0.0, 0.1, -0.4, 1.0, -3.0, 250.0, -1.0e9])


@st.composite
def _bespoke_models(draw):
    """A 1-3 Dense-layer MLP with zero rows, pruned layers and odd activations."""
    n_layers = draw(st.integers(1, 3))
    widths = [draw(st.integers(1, 6)) for _ in range(n_layers + 1)]
    hidden_activation = draw(st.sampled_from(["relu", "leaky_relu", "tanh"]))
    model = MLP()
    for index in range(n_layers):
        layer = Dense(widths[index], widths[index + 1], use_bias=draw(st.booleans()))
        shape = layer.weights.shape
        layer.weights = np.array(
            draw(st.lists(_GRID_WEIGHTS, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
        ).reshape(shape)
        zero_rows = draw(st.lists(st.booleans(), min_size=shape[0], max_size=shape[0]))
        layer.weights[np.array(zero_rows)] = 0.0
        if draw(st.integers(0, 5)) == 0:
            layer.mask = np.zeros(shape)  # a fully pruned layer
        if layer.use_bias:
            layer.bias = np.array(
                draw(st.lists(_BIASES, min_size=shape[1], max_size=shape[1]))
            )
        model.add(layer)
        if index < n_layers - 1:
            model.add(ActivationLayer(hidden_activation))
    if draw(st.booleans()):
        model.add(ActivationLayer("relu"))  # a last layer with a ReLU block
    config = BespokeConfig(
        input_bits=draw(st.integers(1, 8)),
        weight_bits=[draw(st.integers(2, 8)) for _ in range(n_layers)],
        share_products=draw(st.booleans()),
        multiplier_method=draw(st.sampled_from(["csd", "binary"])),
        include_io_registers=draw(st.booleans()),
    )
    return model, config


class TestCostOnlyMatchesNetlist:
    """``synthesize_cost_only`` == ``report_from_circuit(build_bespoke_circuit(...))``."""

    @given(case=_bespoke_models(), silicon=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_property(self, case, silicon):
        model, config = case
        tech = silicon_library() if silicon else egt_library()
        full = report_from_circuit(build_bespoke_circuit(model, config=config, tech=tech, name="m"))
        fast = synthesize_cost_only(model, config=config, tech=tech, name="m")
        _assert_reports_identical(fast, full)

    def test_fully_pruned_network(self, model):
        pruned = model.clone()
        for layer in pruned.dense_layers:
            layer.mask = np.zeros_like(layer.weights)
        full = synthesize(pruned, name="p")
        fast = synthesize_cost_only(pruned, name="p")
        assert "multiplier" not in full.by_kind
        _assert_reports_identical(fast, full)
