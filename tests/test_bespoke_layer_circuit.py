"""Unit tests for repro.bespoke.layer_circuit: per-layer hardware generation."""

import numpy as np
import pytest

from repro.bespoke.layer_circuit import (
    LayerCircuitSpec,
    build_layer_circuit,
    distinct_products_per_input,
    estimate_layer_latency_depth,
)
from repro.hardware.technology import egt_library

TECH = egt_library()


def make_spec(weights, biases=None, **kwargs):
    weights = np.asarray(weights, dtype=np.int64)
    if biases is None:
        biases = np.zeros(weights.shape[1], dtype=np.int64)
    defaults = dict(input_bits=4, weight_bits=8, relu=True, share_products=True)
    defaults.update(kwargs)
    return LayerCircuitSpec(weights=weights, biases=np.asarray(biases, dtype=np.int64), **defaults)


class TestSpecValidation:
    def test_float_weights_rejected(self):
        with pytest.raises(TypeError):
            LayerCircuitSpec(
                weights=np.ones((2, 2)), biases=np.zeros(2, dtype=np.int64),
                input_bits=4, weight_bits=8,
            )

    def test_bias_shape_checked(self):
        with pytest.raises(ValueError):
            make_spec([[1, 2], [3, 4]], biases=[1, 2, 3])

    def test_bits_positive(self):
        with pytest.raises(ValueError):
            make_spec([[1]], input_bits=0)

    def test_dimensions_exposed(self):
        spec = make_spec([[1, 2, 3], [4, 5, 6]])
        assert spec.n_inputs == 2
        assert spec.n_neurons == 3


class TestMultiplierGeneration:
    def test_zero_weights_create_no_multipliers(self):
        result = build_layer_circuit(make_spec(np.zeros((3, 2), dtype=int)), TECH, 0)
        assert result.n_multipliers == 0

    def test_one_multiplier_per_nonzero_without_sharing(self):
        weights = [[3, 5], [0, 7]]
        result = build_layer_circuit(
            make_spec(weights, share_products=False), TECH, 0
        )
        assert result.n_multipliers == 3
        assert result.n_shared_products == 0

    def test_sharing_merges_identical_magnitudes(self):
        # Input 0 feeds weights +5 and -5: one shared multiplier.
        weights = [[5, -5, 5], [3, 4, 0]]
        result = build_layer_circuit(make_spec(weights), TECH, 0)
        # row 0 -> {5}, row 1 -> {3, 4}
        assert result.n_multipliers == 3
        assert result.n_shared_products == 2

    def test_sharing_is_per_input_position_only(self):
        # Same magnitude on different inputs is NOT shared.
        weights = [[5, 0], [0, 5]]
        result = build_layer_circuit(make_spec(weights), TECH, 0)
        assert result.n_multipliers == 2

    def test_multiplier_attributes_record_fanout(self):
        weights = [[5, -5, 5]]
        result = build_layer_circuit(make_spec(weights), TECH, 0)
        multipliers = [c for c in result.components if c.kind == "multiplier"]
        assert multipliers[0].attributes["fanout"] == 3

    @pytest.mark.parametrize("share_products", [True, False])
    def test_multiplier_plan_matches_per_row_unique(self, share_products):
        # The row-wise sort's runs give what a per-row np.unique gives:
        # names, coefficients, input positions and fanouts, in order.
        rng = np.random.default_rng(0)
        for _ in range(40):
            shape = tuple(rng.integers(1, 7, size=2))
            weights = rng.integers(-4, 5, size=shape) * (rng.random(shape) < 0.7)
            weights[rng.integers(shape[0])] = 0
            result = build_layer_circuit(
                make_spec(weights, share_products=share_products), TECH, 0
            )
            expected = []
            for row_index, row in enumerate(np.abs(weights)):
                row_nz = row[row != 0]
                if share_products:
                    magnitudes, fanouts = np.unique(row_nz, return_counts=True)
                else:
                    magnitudes, fanouts = row_nz, np.ones(row_nz.size, dtype=int)
                for index, (magnitude, fanout) in enumerate(zip(magnitudes, fanouts)):
                    expected.append((
                        f"layer0/in{row_index}/mult{index}",
                        {"coefficient": int(magnitude), "input_position": row_index,
                         "fanout": int(fanout)},
                    ))
            multipliers = [
                (c.name, c.attributes) for c in result.components if c.kind == "multiplier"
            ]
            assert multipliers == expected
            assert result.n_shared_products == np.count_nonzero(weights) - len(expected)

    def test_distinct_products_per_input_helper(self):
        weights = np.array([[5, -5, 3], [0, 0, 0], [2, 4, 8]])
        assert distinct_products_per_input(weights) == [2, 0, 3]


class TestAdderTreesAndActivation:
    def test_one_tree_per_neuron(self):
        weights = [[1, 2, 3], [4, 5, 6]]
        result = build_layer_circuit(make_spec(weights), TECH, 0)
        trees = [c for c in result.components if c.kind == "adder_tree"]
        assert len(trees) == 3

    def test_pruned_connections_reduce_operands(self):
        dense = build_layer_circuit(make_spec([[7, 7], [9, 9], [11, 11]]), TECH, 0)
        sparse = build_layer_circuit(make_spec([[7, 7], [0, 0], [11, 11]]), TECH, 0)
        dense_tree = [c for c in dense.components if c.kind == "adder_tree"][0]
        sparse_tree = [c for c in sparse.components if c.kind == "adder_tree"][0]
        assert sparse_tree.attributes["n_operands"] < dense_tree.attributes["n_operands"]
        assert sparse_tree.cost.area < dense_tree.cost.area

    def test_nonzero_bias_adds_an_operand(self):
        without = build_layer_circuit(make_spec([[3], [5]]), TECH, 0)
        with_bias = build_layer_circuit(make_spec([[3], [5]], biases=[12]), TECH, 0)
        operands_without = without.components[-2].attributes["n_operands"]
        operands_with = [
            c for c in with_bias.components if c.kind == "adder_tree"
        ][0].attributes["n_operands"]
        assert operands_with == operands_without + 1

    def test_relu_components_only_when_requested(self):
        weights = [[1, 2]]
        with_relu = build_layer_circuit(make_spec(weights, relu=True), TECH, 0)
        without_relu = build_layer_circuit(make_spec(weights, relu=False), TECH, 0)
        assert any(c.kind == "activation" for c in with_relu.components)
        assert not any(c.kind == "activation" for c in without_relu.components)

    def test_output_bits_grow_with_operands(self):
        small = build_layer_circuit(make_spec(np.full((2, 1), 7, dtype=int)), TECH, 0)
        large = build_layer_circuit(make_spec(np.full((16, 1), 7, dtype=int)), TECH, 0)
        assert large.output_bits > small.output_bits

    def test_component_names_are_prefixed_and_unique(self):
        result = build_layer_circuit(make_spec([[1, 2], [3, 4]]), TECH, 3)
        names = [c.name for c in result.components]
        assert len(names) == len(set(names))
        assert all(name.startswith("layer3/") for name in names)

    def test_csd_method_cheaper_than_binary(self):
        weights = np.full((4, 4), 0b111011, dtype=int)
        csd = build_layer_circuit(make_spec(weights, multiplier_method="csd"), TECH, 0)
        binary = build_layer_circuit(make_spec(weights, multiplier_method="binary"), TECH, 0)
        csd_area = sum(c.cost.area for c in csd.components if c.kind == "multiplier")
        binary_area = sum(c.cost.area for c in binary.components if c.kind == "multiplier")
        assert csd_area < binary_area


class TestLatencyDepth:
    @pytest.mark.parametrize("operands, depth", [(0, 0), (1, 0), (2, 1), (5, 3), (8, 3), (9, 4)])
    def test_depth_values(self, operands, depth):
        assert estimate_layer_latency_depth(operands) == depth
