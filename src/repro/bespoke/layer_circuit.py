"""Bespoke circuit generation for a single Dense layer.

A bespoke Dense layer consists of, per neuron, the constant-coefficient
multipliers of its non-zero weights, an adder tree summing the products (plus
the hard-wired bias, if any), and the activation block. Because every weight
is a hard-wired constant:

* pruned (zero) weights produce no multiplier and no adder-tree operand,
* weights at the same *input position* (same row of the weight matrix) with
  the same magnitude can share one multiplier — the mechanism the paper's
  weight-clustering technique exploits (and that synthesis resource sharing
  applies automatically when low bit-widths make weights coincide).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..hardware.arithmetic import (
    adder_tree_from_widths,
    constant_multiplier,
    multiplier_costs,
    neuron_output_width,
    relu_unit,
)
from ..hardware.cost import HardwareCost, sum_gate_counts
from ..hardware.technology import TechnologyLibrary
from .netlist import CircuitComponent


@dataclass(frozen=True)
class LayerCircuitSpec:
    """Inputs needed to generate one Dense layer's bespoke hardware.

    Attributes:
        weights: integer coefficient matrix of shape ``(n_inputs, n_neurons)``.
        biases: integer bias vector of shape ``(n_neurons,)``.
        input_bits: bit-width of the layer's input activations.
        weight_bits: bit-width of the hard-wired weights.
        relu: whether the layer is followed by a ReLU activation.
        share_products: share multipliers across neurons for identical
            |coefficient| at the same input position.
        multiplier_method: ``"csd"`` or ``"binary"`` shift-add decomposition.
    """

    weights: np.ndarray
    biases: np.ndarray
    input_bits: int
    weight_bits: int
    relu: bool = True
    share_products: bool = True
    multiplier_method: str = "csd"

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights)
        biases = np.asarray(self.biases)
        if weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
        if biases.shape != (weights.shape[1],):
            raise ValueError(
                f"biases must have shape ({weights.shape[1]},), got {biases.shape}"
            )
        if not np.issubdtype(weights.dtype, np.integer):
            raise TypeError("Layer circuit weights must be integers (hard-wired levels)")
        if not np.issubdtype(biases.dtype, np.integer):
            raise TypeError("Layer circuit biases must be integers")
        if self.input_bits <= 0 or self.weight_bits <= 0:
            raise ValueError("input_bits and weight_bits must be positive")

    @property
    def n_inputs(self) -> int:
        return int(np.asarray(self.weights).shape[0])

    @property
    def n_neurons(self) -> int:
        return int(np.asarray(self.weights).shape[1])


@dataclass
class LayerCircuitResult:
    """Components generated for one layer plus bookkeeping for later layers."""

    components: List[CircuitComponent]
    output_bits: int
    n_multipliers: int
    n_shared_products: int


def _layer_mult_plan(
    spec: LayerCircuitSpec, weights: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The layer's multipliers in instantiation order, and the shared-product count.

    Returns parallel arrays ``(input_index, magnitude, fanout)``, input
    position by input position. With ``share_products`` a position gets its
    distinct non-zero |coefficients| in ascending order (one row-wise
    ``np.sort`` for the whole layer), each feeding as many weights as share
    it; otherwise every non-zero |coefficient| in row order, fanout 1.
    """
    magnitudes = np.abs(weights)
    if spec.share_products:
        ordered = np.sort(magnitudes, axis=1)
        first = ordered != 0
        last = first.copy()
        first[:, 1:] &= ordered[:, 1:] != ordered[:, :-1]
        last[:, :-1] &= ordered[:, :-1] != ordered[:, 1:]
        # Each run of equal non-zero magnitudes has one first and one last entry.
        starts = np.flatnonzero(first)
        inputs = starts // ordered.shape[1]
        coefficients = ordered.ravel()[starts]
        fanouts = np.flatnonzero(last) - starts + 1
    else:
        inputs, columns = np.nonzero(magnitudes)
        coefficients = magnitudes[inputs, columns]
        fanouts = np.ones(coefficients.size, dtype=np.int64)
    n_shared = int(np.count_nonzero(magnitudes)) - int(coefficients.size)
    return inputs, coefficients, fanouts, n_shared


def _neuron_operand_widths(
    spec: LayerCircuitSpec, weights: np.ndarray, biases: np.ndarray
) -> List[List[int]]:
    """Adder-tree operand widths per neuron, in ascending order.

    One operand per non-zero weight (``input_bits`` plus the coefficient's
    bit length) and one for a non-zero bias (its bit length, clamped to
    ``input_bits + weight_bits``, at least 1).
    """
    input_bits = spec.input_bits
    bias_cap = spec.input_bits + spec.weight_bits
    per_neuron: List[List[int]] = []
    for column, bias in zip(weights.T.tolist(), biases.tolist()):
        widths = [input_bits + abs(weight).bit_length() for weight in column if weight]
        if bias:
            widths.append(max(min(abs(bias).bit_length(), bias_cap), 1))
        widths.sort()
        per_neuron.append(widths)
    return per_neuron


def build_layer_circuit(
    spec: LayerCircuitSpec,
    tech: TechnologyLibrary,
    layer_index: int,
    name_prefix: Optional[str] = None,
) -> LayerCircuitResult:
    """Generate the bespoke hardware of one Dense layer.

    Returns the component list together with the layer's output bit-width,
    which becomes the next layer's ``input_bits``.
    """
    prefix = name_prefix if name_prefix is not None else f"layer{layer_index}"
    weights = np.asarray(spec.weights, dtype=np.int64)
    biases = np.asarray(spec.biases, dtype=np.int64)
    components: List[CircuitComponent] = []
    n_multipliers = 0

    # --- multipliers, organised per input position so products can be shared ---
    inputs, coefficients, fanouts, n_shared = _layer_mult_plan(spec, weights)
    positions = np.arange(inputs.size) - np.searchsorted(inputs, inputs)
    for input_index, mult_index, magnitude, fanout in zip(
        inputs.tolist(), positions.tolist(), coefficients.tolist(), fanouts.tolist()
    ):
        cost = constant_multiplier(
            magnitude, spec.input_bits, tech, method=spec.multiplier_method
        )
        components.append(
            CircuitComponent(
                name=f"{prefix}/in{input_index}/mult{mult_index}",
                kind="multiplier",
                cost=cost,
                layer_index=layer_index,
                attributes={
                    "coefficient": magnitude,
                    "input_position": input_index,
                    "fanout": fanout,
                },
            )
        )
        n_multipliers += 1

    # --- per-neuron adder trees and activations --------------------------------
    max_operands = 0
    for neuron_index, operand_widths in enumerate(
        _neuron_operand_widths(spec, weights, biases)
    ):
        n_operands = len(operand_widths)
        max_operands = max(max_operands, n_operands)
        tree_cost = adder_tree_from_widths(operand_widths or [1], tech)
        components.append(
            CircuitComponent(
                name=f"{prefix}/neuron{neuron_index}/sum",
                kind="adder_tree",
                cost=tree_cost,
                layer_index=layer_index,
                attributes={"n_operands": n_operands},
            )
        )
        if spec.relu:
            act_width = neuron_output_width(
                spec.input_bits, spec.weight_bits, max(n_operands, 1)
            )
            components.append(
                CircuitComponent(
                    name=f"{prefix}/neuron{neuron_index}/relu",
                    kind="activation",
                    cost=relu_unit(act_width, tech),
                    layer_index=layer_index,
                    attributes={"width": act_width},
                )
            )

    output_bits = neuron_output_width(
        spec.input_bits, spec.weight_bits, max(max_operands, 1)
    )
    return LayerCircuitResult(
        components=components,
        output_bits=output_bits,
        n_multipliers=n_multipliers,
        n_shared_products=n_shared,
    )


@dataclass
class LayerCosts:
    """Cost-only record of one Dense layer: its blocks' costs, no components.

    The blocks are the ones :func:`build_layer_circuit` instantiates, in its
    order: every multiplier, then per neuron the adder tree followed by the
    ReLU (when the layer has one).

    Attributes:
        multiplier_areas / multiplier_powers: per multiplier, in block order.
        neuron_areas / neuron_powers: per adder tree and ReLU, interleaved
            per neuron.
        delays: slowest block per kind (``"multiplier"``, ``"adder_tree"``,
            ``"activation"``); ``0.0`` for a kind the layer lacks.
        gates: summed gate counts per kind, and under ``None`` for the
            whole layer with cells in the order its blocks first use them.
        relu: whether the neuron lists interleave ReLUs.
        output_bits / n_multipliers / n_shared_products: as in
            :class:`LayerCircuitResult`.
    """

    multiplier_areas: List[float]
    multiplier_powers: List[float]
    neuron_areas: List[float]
    neuron_powers: List[float]
    delays: Dict[str, float]
    gates: Dict[Optional[str], Dict[str, int]]
    relu: bool
    output_bits: int
    n_multipliers: int
    n_shared_products: int

    def kind_costs(self, kind: str) -> Tuple[List[float], List[float]]:
        """Areas and powers of one kind's blocks, in block order."""
        if kind == "multiplier":
            return self.multiplier_areas, self.multiplier_powers
        start, step = (1, 2) if kind == "activation" else (0, 2 if self.relu else 1)
        return self.neuron_areas[start::step], self.neuron_powers[start::step]


def accumulate_layer_costs(spec: LayerCircuitSpec, tech: TechnologyLibrary) -> LayerCosts:
    """Cost-only twin of :func:`build_layer_circuit`.

    The multipliers are :func:`build_layer_circuit`'s, their costs one
    :func:`~repro.hardware.arithmetic.multiplier_costs` gather; each
    neuron's adder tree is looked up by its sorted operand widths. Used by
    :func:`~repro.bespoke.synthesis.synthesize_cost_only`, where only the
    aggregate synthesis report matters.
    """
    weights = np.asarray(spec.weights, dtype=np.int64)
    biases = np.asarray(spec.biases, dtype=np.int64)
    _, coefficients, _, n_shared = _layer_mult_plan(spec, weights)
    areas, powers, delays, adders = multiplier_costs(
        coefficients, spec.input_bits, tech, spec.multiplier_method
    ).T.tolist()
    full_adders = int(sum(adders))
    multiplier_gates = {"FA": full_adders} if full_adders else {}

    input_bits = spec.input_bits
    operands = _neuron_operand_widths(spec, weights, biases)
    trees = [adder_tree_from_widths(widths or [1], tech) for widths in operands]
    blocks = trees
    activations: List[HardwareCost] = []
    if spec.relu:
        relus = {
            count: relu_unit(neuron_output_width(input_bits, spec.weight_bits, max(count, 1)), tech)
            for count in {len(widths) for widths in operands}
        }
        activations = [relus[len(widths)] for widths in operands]
        blocks = [block for pair in zip(trees, activations) for block in pair]

    gates: Dict[Optional[str], Dict[str, int]] = {
        "multiplier": multiplier_gates,
        "adder_tree": sum_gate_counts(tree.gate_counts for tree in trees),
        "activation": sum_gate_counts(block.gate_counts for block in activations),
        None: sum_gate_counts([multiplier_gates] + [block.gate_counts for block in blocks]),
    }
    max_operands = max((len(widths) for widths in operands), default=0)
    return LayerCosts(
        multiplier_areas=areas,
        multiplier_powers=powers,
        neuron_areas=[block.area for block in blocks],
        neuron_powers=[block.power for block in blocks],
        delays={
            "multiplier": max(delays, default=0.0),
            "adder_tree": max([tree.delay for tree in trees], default=0.0),
            "activation": max([block.delay for block in activations], default=0.0),
        },
        gates=gates,
        relu=spec.relu,
        output_bits=neuron_output_width(input_bits, spec.weight_bits, max(max_operands, 1)),
        n_multipliers=int(coefficients.size),
        n_shared_products=n_shared,
    )


def distinct_products_per_input(weights: np.ndarray) -> List[int]:
    """Number of distinct non-zero |coefficients| per input position.

    This is the multiplier count each input position needs under product
    sharing; used by tests and by the clustering analysis utilities.
    """
    weights = np.asarray(weights)
    if weights.ndim != 2:
        raise ValueError("weights must be 2-D")
    counts = []
    for row in weights:
        counts.append(len(set(abs(int(v)) for v in row if v != 0)))
    return counts


def estimate_layer_latency_depth(n_operands: int) -> int:
    """Adder-tree depth (levels) for ``n_operands`` operands."""
    if n_operands <= 1:
        return 0
    return int(math.ceil(math.log2(n_operands)))
