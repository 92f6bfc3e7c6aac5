"""Full bespoke MLP circuit construction.

Turns a trained (and possibly minimized) :class:`~repro.nn.network.MLP` into
a :class:`~repro.bespoke.netlist.Netlist`: per-layer constant multipliers and
adder trees, ReLU blocks for hidden layers, the final argmax comparator tree
and optional interface registers. The weights hard-wired into the circuit are
the layer's ``effective_weights()`` quantized to the configured bit-width, so
whatever the minimization packages did (masks, fake-quantizers, clustered
values) is exactly what the hardware sees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from ..hardware.arithmetic import argmax_unit, register_bank
from ..hardware.fixed_point import FixedPointFormat, derive_format
from ..hardware.technology import TechnologyLibrary, egt_library
from ..nn.layers import ActivationLayer, Dense
from ..nn.network import MLP
from .layer_circuit import LayerCircuitResult, LayerCircuitSpec, build_layer_circuit
from .netlist import CircuitComponent, Netlist


@dataclass(frozen=True)
class BespokeConfig:
    """Configuration of the bespoke mapping.

    Attributes:
        input_bits: unsigned bit-width of the circuit's primary inputs.
        weight_bits: weight bit-width; either a single int for all layers or
            a per-layer sequence.
        share_products: enable multiplier sharing for identical |coefficients|
            at the same input position (what synthesis resource sharing and
            the paper's weight clustering exploit).
        multiplier_method: ``"csd"`` (default) or ``"binary"`` decomposition.
        include_io_registers: add input/output register banks (the printed
            classifier interface of Mubarik et al.).
    """

    input_bits: int = 4
    weight_bits: Union[int, Sequence[int]] = 8
    share_products: bool = True
    multiplier_method: str = "csd"
    include_io_registers: bool = True

    def __post_init__(self) -> None:
        if self.input_bits <= 0:
            raise ValueError(f"input_bits must be positive, got {self.input_bits}")
        bits = self.weight_bits
        if isinstance(bits, int):
            if bits < 2:
                raise ValueError(f"weight_bits must be >= 2, got {bits}")
        else:
            if len(bits) == 0 or any(b < 2 for b in bits):
                raise ValueError("per-layer weight_bits must all be >= 2")
        if self.multiplier_method not in ("csd", "binary"):
            raise ValueError(
                f"multiplier_method must be 'csd' or 'binary', got {self.multiplier_method}"
            )

    def bits_for_layer(self, layer_index: int, n_layers: int) -> int:
        """Weight bit-width of a given Dense layer."""
        if isinstance(self.weight_bits, int):
            return self.weight_bits
        bits = list(self.weight_bits)
        if len(bits) != n_layers:
            raise ValueError(
                f"weight_bits has {len(bits)} entries but the MLP has {n_layers} Dense layers"
            )
        return int(bits[layer_index])


@dataclass
class BespokeCircuit:
    """The generated circuit: netlist plus per-layer bookkeeping."""

    name: str
    netlist: Netlist
    layer_results: List[LayerCircuitResult]
    weight_formats: List[FixedPointFormat]
    config: BespokeConfig
    technology: TechnologyLibrary
    metadata: dict = field(default_factory=dict)

    @property
    def n_multipliers(self) -> int:
        return sum(result.n_multipliers for result in self.layer_results)

    @property
    def n_shared_products(self) -> int:
        return sum(result.n_shared_products for result in self.layer_results)


def _dense_relu_flags(model: MLP) -> List[bool]:
    """Whether each Dense layer is followed by a ReLU-like activation."""
    flags: List[bool] = []
    layers = model.layers
    for index, layer in enumerate(layers):
        if not isinstance(layer, Dense):
            continue
        follows_relu = False
        for successor in layers[index + 1 :]:
            if isinstance(successor, Dense):
                break
            if isinstance(successor, ActivationLayer) and successor.activation.name in (
                "relu",
                "leaky_relu",
            ):
                follows_relu = True
                break
        flags.append(follows_relu)
    return flags


def derive_layer_spec(
    layer: Dense,
    weight_bits: int,
    input_bits: int,
    relu: bool,
    config: BespokeConfig,
) -> "tuple[LayerCircuitSpec, FixedPointFormat, int]":
    """Quantize one Dense layer's effective parameters into a circuit spec.

    Single source of truth for the float → hard-wired-integer mapping, shared
    by the full netlist construction (:func:`build_bespoke_circuit`) and the
    cost-only synthesis path (:func:`repro.bespoke.synthesis.synthesize_cost_only`).
    Also returns the count of non-zero effective weights (before rounding,
    which can zero a weight that is non-zero in float), so the cost-only
    path reports :meth:`MLP.sparsity` without recomputing them.
    """
    effective = layer.effective_weights()
    fmt = derive_format(effective, weight_bits)
    int_weights = fmt.to_integers(effective)
    # The bias enters the adder tree as one hard-wired operand; it is
    # quantized on the product grid (weight scale x input LSB).
    bias = layer.effective_bias() if layer.use_bias else np.zeros(layer.n_outputs)
    input_lsb = 1.0 / ((1 << input_bits) - 1)
    bias_scale = fmt.scale * input_lsb
    int_bias = np.round(bias / bias_scale).astype(np.int64)
    spec = LayerCircuitSpec(
        weights=int_weights,
        biases=int_bias,
        input_bits=input_bits,
        weight_bits=weight_bits,
        relu=relu,
        share_products=config.share_products,
        multiplier_method=config.multiplier_method,
    )
    return spec, fmt, int(np.count_nonzero(effective))


def build_bespoke_circuit(
    model: MLP,
    config: Optional[BespokeConfig] = None,
    tech: Optional[TechnologyLibrary] = None,
    name: str = "bespoke_mlp",
) -> BespokeCircuit:
    """Map an MLP to a bespoke printed circuit.

    Args:
        model: the (possibly minimized) network; its ``effective_weights()``
            are the coefficients that get hard-wired.
        config: bespoke mapping configuration (defaults: 4-bit inputs,
            8-bit weights, CSD multipliers, product sharing, I/O registers).
        tech: technology library (defaults to the EGT printed library).
        name: circuit instance name used in reports.
    """
    config = config if config is not None else BespokeConfig()
    tech = tech if tech is not None else egt_library()
    dense_layers = model.dense_layers
    if not dense_layers:
        raise ValueError("Cannot build a bespoke circuit for an MLP without Dense layers")
    relu_flags = _dense_relu_flags(model)

    netlist = Netlist()
    layer_results: List[LayerCircuitResult] = []
    weight_formats: List[FixedPointFormat] = []

    current_input_bits = config.input_bits
    if config.include_io_registers:
        netlist.add(
            CircuitComponent(
                name="io/input_registers",
                kind="register",
                cost=register_bank(dense_layers[0].n_inputs * config.input_bits, tech),
                layer_index=None,
                attributes={"width": dense_layers[0].n_inputs * config.input_bits},
            )
        )

    for layer_index, (layer, relu) in enumerate(zip(dense_layers, relu_flags)):
        weight_bits = config.bits_for_layer(layer_index, len(dense_layers))
        spec, fmt, _active = derive_layer_spec(
            layer, weight_bits, current_input_bits, relu, config
        )
        result = build_layer_circuit(spec, tech, layer_index)
        netlist.extend(result.components)
        layer_results.append(result)
        weight_formats.append(fmt)
        current_input_bits = result.output_bits

    # Output stage: argmax over the last layer's scores.
    n_classes = dense_layers[-1].n_outputs
    index_bits = max(int(math.ceil(math.log2(n_classes))), 1)
    netlist.add(
        CircuitComponent(
            name="output/argmax",
            kind="argmax",
            cost=argmax_unit(n_classes, current_input_bits, index_bits, tech),
            layer_index=None,
            attributes={"n_classes": n_classes, "score_bits": current_input_bits},
        )
    )
    if config.include_io_registers:
        netlist.add(
            CircuitComponent(
                name="io/output_registers",
                kind="register",
                cost=register_bank(index_bits, tech),
                layer_index=None,
                attributes={"width": index_bits},
            )
        )

    metadata = {
        "input_bits": config.input_bits,
        "weight_bits": [config.bits_for_layer(i, len(dense_layers)) for i in range(len(dense_layers))],
        "share_products": config.share_products,
        "multiplier_method": config.multiplier_method,
        "topology": model.topology(),
        "sparsity": model.sparsity(),
    }
    return BespokeCircuit(
        name=name,
        netlist=netlist,
        layer_results=layer_results,
        weight_formats=weight_formats,
        config=config,
        technology=tech,
        metadata=metadata,
    )
