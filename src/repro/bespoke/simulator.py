"""Bit-accurate fixed-point simulation of bespoke MLP circuits.

The area model in :mod:`repro.bespoke.synthesis` describes what hardware the
bespoke circuit needs; this module describes what that hardware *computes*.
The simulator executes the integer datapath exactly as the circuit would —
unsigned fixed-point inputs, hard-wired integer weights, integer bias
operands, integer adder trees, sign-gated ReLU, argmax comparator tree — so
it can be used for

* functional verification: the circuit's predictions must agree with the
  (quantized) software model it was generated from,
* accuracy evaluation of the *actual* deployed circuit rather than its
  floating-point proxy,
* datapath statistics (accumulator ranges, toggle estimates) used by the
  energy model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..hardware.fixed_point import FixedPointFormat, derive_format
from ..nn.network import MLP
from .circuit import BespokeConfig, _dense_relu_flags


@dataclass
class FixedPointLayer:
    """The integer view of one Dense layer as hard-wired in the circuit.

    Attributes:
        weights: integer coefficient matrix ``(n_inputs, n_neurons)``.
        bias: integer bias operands (already on the product grid).
        weight_format: fixed-point format the integers were derived with.
        activation_scale: float value of one LSB of this layer's *input*.
        output_scale: float value of one LSB of this layer's *output*
            (``weight_format.scale * activation_scale``).
        relu: whether a ReLU follows the layer.
    """

    weights: np.ndarray
    bias: np.ndarray
    weight_format: FixedPointFormat
    activation_scale: float
    output_scale: float
    relu: bool

    @property
    def n_inputs(self) -> int:
        return int(self.weights.shape[0])

    @property
    def n_neurons(self) -> int:
        return int(self.weights.shape[1])


@dataclass
class SimulationTrace:
    """Datapath statistics collected during a simulation run."""

    accumulator_min: List[int] = field(default_factory=list)
    accumulator_max: List[int] = field(default_factory=list)
    accumulator_bits: List[int] = field(default_factory=list)
    n_samples: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "accumulator_min": list(self.accumulator_min),
            "accumulator_max": list(self.accumulator_max),
            "accumulator_bits": list(self.accumulator_bits),
            "n_samples": self.n_samples,
        }


class FixedPointSimulator:
    """Executes the bespoke circuit's integer datapath.

    Args:
        model: the trained (and possibly minimized) MLP the circuit was
            generated from; its ``effective_weights()`` are hard-wired.
        config: the same :class:`BespokeConfig` used for synthesis, so the
            simulated datapath and the costed datapath are identical.
    """

    def __init__(self, model: MLP, config: Optional[BespokeConfig] = None) -> None:
        self.config = config if config is not None else BespokeConfig()
        dense_layers = model.dense_layers
        if not dense_layers:
            raise ValueError("Cannot simulate an MLP without Dense layers")
        relu_flags = _dense_relu_flags(model)

        self.input_bits = self.config.input_bits
        input_levels = (1 << self.input_bits) - 1
        activation_scale = 1.0 / input_levels

        self.layers: List[FixedPointLayer] = []
        for layer_index, (layer, relu) in enumerate(zip(dense_layers, relu_flags)):
            bits = self.config.bits_for_layer(layer_index, len(dense_layers))
            effective = layer.effective_weights()
            fmt = derive_format(effective, bits)
            int_weights = fmt.to_integers(effective)
            bias = layer.effective_bias() if layer.use_bias else np.zeros(layer.n_outputs)
            output_scale = fmt.scale * activation_scale
            int_bias = np.round(bias / output_scale).astype(np.int64)
            self.layers.append(
                FixedPointLayer(
                    weights=int_weights,
                    bias=int_bias,
                    weight_format=fmt,
                    activation_scale=activation_scale,
                    output_scale=output_scale,
                    relu=relu,
                )
            )
            # The next layer consumes this layer's integer outputs directly;
            # one LSB of those outputs is worth ``output_scale``.
            activation_scale = output_scale

        self.trace = SimulationTrace()

    # -- input conversion --------------------------------------------------------

    def quantize_inputs(self, features: np.ndarray) -> np.ndarray:
        """Map features in ``[0, 1]`` to the circuit's unsigned integer levels."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features.reshape(1, -1)
        if features.size and (features.min() < -1e-9 or features.max() > 1.0 + 1e-9):
            raise ValueError("Simulator inputs must be scaled to [0, 1]")
        levels = (1 << self.input_bits) - 1
        return np.round(np.clip(features, 0.0, 1.0) * levels).astype(np.int64)

    # -- simulation -----------------------------------------------------------------

    def simulate_batch(self, features: np.ndarray, record_trace: bool = False) -> np.ndarray:
        """Vectorized integer datapath over a whole ``(n_samples, n_features)`` batch.

        This is the production path used by every accuracy evaluation: one
        integer matrix multiply per layer instead of per-sample Python loops.
        It is bit-identical to :meth:`simulate_sample` (the scalar golden
        model) — the test suite asserts exact agreement between the two.
        """
        activations = self.quantize_inputs(features)
        if activations.shape[1] != self.layers[0].n_inputs:
            raise ValueError(
                f"Expected {self.layers[0].n_inputs} features, got {activations.shape[1]}"
            )
        if record_trace:
            self.trace = SimulationTrace(n_samples=int(activations.shape[0]))
        for layer in self.layers:
            accumulators = activations @ layer.weights + layer.bias
            if record_trace:
                low = int(accumulators.min()) if accumulators.size else 0
                high = int(accumulators.max()) if accumulators.size else 0
                self.trace.accumulator_min.append(low)
                self.trace.accumulator_max.append(high)
                self.trace.accumulator_bits.append(
                    max(int(abs(low)).bit_length(), int(abs(high)).bit_length()) + 1
                )
            if layer.relu:
                accumulators = np.maximum(accumulators, 0)
            activations = accumulators
        return activations

    def simulate_sample(self, sample: np.ndarray) -> List[int]:
        """Scalar golden model: one sample through explicit per-neuron loops.

        Mirrors the circuit structure operation by operation — one Python
        integer multiply-accumulate per hard-wired weight, arbitrary
        precision so no accumulator can silently wrap. Used to validate the
        vectorized batch path, never in the evaluation hot loop.
        """
        levels = [int(v) for v in self.quantize_inputs(np.asarray(sample).reshape(1, -1))[0]]
        if len(levels) != self.layers[0].n_inputs:
            raise ValueError(
                f"Expected {self.layers[0].n_inputs} features, got {len(levels)}"
            )
        for layer in self.layers:
            outputs: List[int] = []
            for neuron in range(layer.n_neurons):
                accumulator = int(layer.bias[neuron])
                for position in range(layer.n_inputs):
                    accumulator += levels[position] * int(layer.weights[position, neuron])
                if layer.relu and accumulator < 0:
                    accumulator = 0
                outputs.append(accumulator)
            levels = outputs
        return levels

    def forward_integer(self, features: np.ndarray, record_trace: bool = False) -> np.ndarray:
        """Run the integer datapath; returns the final-layer integer scores."""
        return self.simulate_batch(features, record_trace=record_trace)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted class indices of the circuit (argmax comparator tree)."""
        return np.argmax(self.forward_integer(features), axis=1)

    def predict_scores(self, features: np.ndarray) -> np.ndarray:
        """Final-layer scores re-expressed in float (integer x output LSB)."""
        scores = self.forward_integer(features).astype(np.float64)
        return scores * self.layers[-1].output_scale

    def evaluate_accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Top-1 accuracy of the simulated circuit."""
        labels = np.asarray(labels).reshape(-1).astype(int)
        return float(np.mean(self.predict(features) == labels))

    # -- verification -----------------------------------------------------------------

    def agreement_with_model(self, model: MLP, features: np.ndarray) -> float:
        """Fraction of samples where circuit and software model predict the same class.

        The comparison is meaningful when ``model`` is the network the
        simulator was built from (the integer datapath is then an exact
        rescaling of the float one, up to bias rounding).
        """
        circuit_predictions = self.predict(features)
        model_predictions = model.predict(np.asarray(features, dtype=np.float64))
        return float(np.mean(circuit_predictions == model_predictions))

    def datapath_report(self, features: np.ndarray) -> Dict[str, object]:
        """Accumulator-range statistics for a representative input set."""
        self.forward_integer(features, record_trace=True)
        report = self.trace.as_dict()
        report["configured_weight_bits"] = [
            self.config.bits_for_layer(i, len(self.layers)) for i in range(len(self.layers))
        ]
        report["input_bits"] = self.input_bits
        return report


def validate_population(simulators: Sequence["FixedPointSimulator"]) -> None:
    """Check that a population of simulators can be batched along a new axis.

    All simulators must share input bit-width, layer shapes and ReLU flags
    (guaranteed when they were built from same-topology models, as in the
    population evaluation engine); only the integer coefficients may
    differ. Shared by :func:`simulate_population` and the Monte-Carlo
    population kernel in :mod:`repro.reliability.monte_carlo`, so the two
    batched paths can never drift apart on what counts as compatible.
    """
    if not simulators:
        raise ValueError("Cannot simulate an empty population")
    first = simulators[0]
    for simulator in simulators[1:]:
        if simulator.input_bits != first.input_bits:
            raise ValueError("Population simulators disagree on input_bits")
        if len(simulator.layers) != len(first.layers):
            raise ValueError("Population simulators disagree on layer count")
        for layer, reference in zip(simulator.layers, first.layers):
            if layer.weights.shape != reference.weights.shape:
                raise ValueError("Population simulators disagree on layer shapes")
            if layer.relu != reference.relu:
                raise ValueError("Population simulators disagree on ReLU placement")


def simulate_population(
    simulators: Sequence["FixedPointSimulator"],
    features: np.ndarray,
) -> np.ndarray:
    """Population-axis extension of :meth:`FixedPointSimulator.simulate_batch`.

    Stacks the hard-wired integer weights of G same-architecture simulators
    into ``(G, n_inputs, n_neurons)`` tensors and pushes the whole input
    batch through every circuit with one batched integer matmul per layer:
    ``(G, n_samples, n_outputs)`` integer scores, where slice ``g`` is
    *exactly* ``simulators[g].simulate_batch(features)`` — the datapath is
    pure int64 arithmetic, so batching cannot change a single bit.

    All simulators must share input bit-width, layer shapes and ReLU flags
    (see :func:`validate_population`); only the integer coefficients may
    differ.
    """
    validate_population(simulators)
    first = simulators[0]
    activations = first.quantize_inputs(features)
    if activations.shape[1] != first.layers[0].n_inputs:
        raise ValueError(
            f"Expected {first.layers[0].n_inputs} features, got {activations.shape[1]}"
        )
    out: np.ndarray = activations
    for layer_index in range(len(first.layers)):
        weights = np.stack(
            [simulator.layers[layer_index].weights for simulator in simulators]
        )
        bias = np.stack(
            [simulator.layers[layer_index].bias for simulator in simulators]
        )
        accumulators = np.matmul(out, weights) + bias[:, None, :]
        if first.layers[layer_index].relu:
            accumulators = np.maximum(accumulators, 0)
        out = accumulators
    return out


def population_accuracy(
    simulators: Sequence["FixedPointSimulator"],
    features: np.ndarray,
    labels: np.ndarray,
) -> np.ndarray:
    """Top-1 accuracy of every circuit of a population in one batched pass.

    Returns a ``(G,)`` float vector; entry ``g`` equals
    ``simulators[g].evaluate_accuracy(features, labels)`` exactly (scores
    are integers and ``np.argmax`` keeps the first of tied maxima, as the
    serial path does).
    """
    labels = np.asarray(labels).reshape(-1).astype(int)
    scores = simulate_population(simulators, features)
    predictions = np.argmax(scores, axis=-1)
    return (predictions == labels).mean(axis=-1)


def verify_circuit(
    model: MLP,
    features: np.ndarray,
    config: Optional[BespokeConfig] = None,
    min_agreement: float = 0.98,
) -> Dict[str, object]:
    """One-call functional verification of the bespoke mapping.

    Builds the simulator from ``model`` + ``config``, compares its
    predictions against the software model on ``features`` and returns a
    verdict dictionary. Raises no exception — callers (and the test suite)
    decide what agreement level they require.
    """
    simulator = FixedPointSimulator(model, config)
    agreement = simulator.agreement_with_model(model, features)
    return {
        "agreement": agreement,
        "passed": agreement >= min_agreement,
        "n_samples": int(np.asarray(features).shape[0]),
        "min_agreement": min_agreement,
    }
