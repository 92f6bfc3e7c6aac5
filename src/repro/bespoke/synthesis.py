"""Synthesis driver: MLP → bespoke circuit → :class:`SynthesisReport`.

This is the module that plays the role of Synopsys Design Compiler +
PrimeTime in the original flow: it produces the area/power/delay numbers the
evaluation is based on. See ``DESIGN.md`` section 2 for the substitution
rationale.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional

from ..hardware.arithmetic import argmax_unit, register_bank
from ..hardware.cost import HardwareCost, sum_gate_counts
from ..hardware.technology import TechnologyLibrary, egt_library
from ..nn.network import MLP
from .circuit import (
    BespokeCircuit,
    BespokeConfig,
    _dense_relu_flags,
    build_bespoke_circuit,
    derive_layer_spec,
)
from .layer_circuit import LayerCosts, accumulate_layer_costs
from .report import SynthesisReport


def report_from_circuit(circuit: BespokeCircuit) -> SynthesisReport:
    """Compute the synthesis report of an already-built bespoke circuit.

    The critical path is estimated as the serial chain of the slowest
    multiplier, the per-layer adder trees and the argmax stage, which is
    what dominates a fully combinational bespoke MLP.
    """
    netlist = circuit.netlist
    total_parallel = netlist.total_cost()
    by_kind = netlist.cost_by_kind()
    by_layer_raw = netlist.cost_by_layer()
    by_layer: Dict[int, HardwareCost] = {}
    for key, value in by_layer_raw.items():
        by_layer[-1 if key is None else int(key)] = value

    # Critical path: per layer the slowest multiplier + slowest adder tree
    # (+ activation), then the argmax; everything chained serially.
    delay = 0.0
    for layer_index in range(len(circuit.layer_results)):
        layer_components = netlist.by_layer(layer_index)
        mult_delay = max(
            (c.cost.delay for c in layer_components if c.kind == "multiplier"),
            default=0.0,
        )
        tree_delay = max(
            (c.cost.delay for c in layer_components if c.kind == "adder_tree"),
            default=0.0,
        )
        act_delay = max(
            (c.cost.delay for c in layer_components if c.kind == "activation"),
            default=0.0,
        )
        delay += mult_delay + tree_delay + act_delay
    delay += sum(c.cost.delay for c in netlist.by_kind("argmax"))
    delay += max((c.cost.delay for c in netlist.by_kind("register")), default=0.0)

    total = HardwareCost(
        area=total_parallel.area,
        power=total_parallel.power,
        delay=delay,
        gate_counts=total_parallel.gate_counts,
    )
    return SynthesisReport(
        circuit_name=circuit.name,
        technology=circuit.technology.name,
        total=total,
        by_kind=by_kind,
        by_layer=by_layer,
        component_counts=netlist.count_by_kind(),
        n_multipliers=circuit.n_multipliers,
        n_shared_products=circuit.n_shared_products,
        metadata=dict(circuit.metadata),
    )


def _sum_in_order(values: Iterable[float]) -> float:
    """Left fold of ``+`` from ``0.0``: a netlist ``HardwareCost`` sum, float
    for float (``sum`` compensates its rounding from Python 3.12 on)."""
    return functools.reduce(operator.add, values, 0.0)


def _cost(
    areas: Iterable[float],
    powers: Iterable[float],
    delay: float,
    gate_counts: Iterable[Mapping[str, int]],
) -> HardwareCost:
    """The netlist fold of some blocks, given their costs in block order."""
    return HardwareCost(
        area=_sum_in_order(areas),
        power=_sum_in_order(powers),
        delay=delay,
        gate_counts=sum_gate_counts(gate_counts),
    )


def _fold(blocks: List[HardwareCost]) -> HardwareCost:
    """``sum(blocks, HardwareCost.zero())`` without the intermediate costs."""
    return _cost(
        [block.area for block in blocks],
        [block.power for block in blocks],
        max([block.delay for block in blocks], default=0.0),
        [block.gate_counts for block in blocks],
    )


def synthesize_cost_only(
    model: MLP,
    config: Optional[BespokeConfig] = None,
    tech: Optional[TechnologyLibrary] = None,
    name: str = "bespoke_mlp",
) -> SynthesisReport:
    """Synthesis report without materializing the netlist.

    Costs the blocks :func:`build_bespoke_circuit` would instantiate — input
    registers, per-layer multipliers/adder trees/ReLUs, argmax, output
    registers — with :func:`~repro.bespoke.layer_circuit.accumulate_layer_costs`
    instead of named :class:`~repro.bespoke.netlist.CircuitComponent`
    objects. The total, per-kind and per-layer areas and powers are their
    blocks' costs added one by one in the netlist's order, so every float,
    and every dict's key order, is the one
    ``report_from_circuit(build_bespoke_circuit(...))`` gives (asserted by
    ``tests/test_perf_fastpaths.py`` and ``tests/test_bespoke_synthesis.py``).
    Use this in search inner loops, and the full netlist path for reports,
    ablation queries and Verilog export.
    """
    config = config if config is not None else BespokeConfig()
    tech = tech if tech is not None else egt_library()
    dense_layers = model.dense_layers
    if not dense_layers:
        raise ValueError("Cannot build a bespoke circuit for an MLP without Dense layers")
    relu_flags = _dense_relu_flags(model)
    n_layers = len(dense_layers)

    layers: List[LayerCosts] = []
    current_input_bits = config.input_bits
    n_active = 0
    for layer_index, (layer, relu) in enumerate(zip(dense_layers, relu_flags)):
        spec, _fmt, active = derive_layer_spec(
            layer,
            config.bits_for_layer(layer_index, n_layers),
            current_input_bits,
            relu,
            config,
        )
        n_active += active
        costs = accumulate_layer_costs(spec, tech)
        layers.append(costs)
        current_input_bits = costs.output_bits

    n_classes = dense_layers[-1].n_outputs
    index_bits = max(int(math.ceil(math.log2(n_classes))), 1)
    argmax = argmax_unit(n_classes, current_input_bits, index_bits, tech)
    # The global blocks (layer key -1) around the layers, in netlist order.
    head: List[HardwareCost] = []
    tail = [argmax]
    if config.include_io_registers:
        head = [register_bank(dense_layers[0].n_inputs * config.input_bits, tech)]
        tail.append(register_bank(index_bits, tech))
    registers = head + tail[1:]

    # Each kind's layers, in the order the netlist first meets the kind.
    kinds: Dict[str, List[LayerCosts]] = {"register": []} if registers else {}
    for costs in layers:
        if costs.n_multipliers:
            kinds.setdefault("multiplier", []).append(costs)
        kinds.setdefault("adder_tree", []).append(costs)
        if costs.relu:
            kinds.setdefault("activation", []).append(costs)
    kinds.setdefault("argmax", [])

    by_kind: Dict[str, HardwareCost] = {}
    component_counts: Dict[str, int] = {}
    for kind, members in kinds.items():
        if kind in ("register", "argmax"):
            blocks = registers if kind == "register" else [argmax]
            by_kind[kind] = _fold(blocks)
            component_counts[kind] = len(blocks)
            continue
        areas, powers = zip(*(costs.kind_costs(kind) for costs in members))
        by_kind[kind] = _cost(
            chain.from_iterable(areas),
            chain.from_iterable(powers),
            max(costs.delays[kind] for costs in members),
            [costs.gates[kind] for costs in members],
        )
        component_counts[kind] = sum(len(kind_areas) for kind_areas in areas)

    by_layer: Dict[int, HardwareCost] = {}
    if head:
        by_layer[-1] = _fold(head + tail)
    for layer_index, costs in enumerate(layers):
        by_layer[layer_index] = _cost(
            chain(costs.multiplier_areas, costs.neuron_areas),
            chain(costs.multiplier_powers, costs.neuron_powers),
            max(0.0, *costs.delays.values()),
            [costs.gates[None]],
        )
    if not head:
        by_layer[-1] = _fold(tail)

    # Critical path: per layer the slowest multiplier + adder tree +
    # activation, chained serially, then the argmax and the slowest register.
    delay = 0.0
    for costs in layers:
        delay += (
            costs.delays["multiplier"] + costs.delays["adder_tree"] + costs.delays["activation"]
        )
    delay += argmax.delay
    delay += max((block.delay for block in registers), default=0.0)
    total = _cost(
        chain(
            [block.area for block in head],
            *[chain(costs.multiplier_areas, costs.neuron_areas) for costs in layers],
            [block.area for block in tail],
        ),
        chain(
            [block.power for block in head],
            *[chain(costs.multiplier_powers, costs.neuron_powers) for costs in layers],
            [block.power for block in tail],
        ),
        delay,
        [block.gate_counts for block in head]
        + [costs.gates[None] for costs in layers]
        + [block.gate_counts for block in tail],
    )

    # MLP.sparsity(), from the non-zero counts derive_layer_spec already took.
    n_weights = model.n_connections()
    metadata = {
        "input_bits": config.input_bits,
        "weight_bits": [config.bits_for_layer(i, n_layers) for i in range(n_layers)],
        "share_products": config.share_products,
        "multiplier_method": config.multiplier_method,
        "topology": model.topology(),
        "sparsity": 1.0 - n_active / n_weights if n_weights else 0.0,
    }
    return SynthesisReport(
        circuit_name=name,
        technology=tech.name,
        total=total,
        by_kind=by_kind,
        by_layer=by_layer,
        component_counts=component_counts,
        n_multipliers=sum(costs.n_multipliers for costs in layers),
        n_shared_products=sum(costs.n_shared_products for costs in layers),
        metadata=metadata,
    )


def synthesize(
    model: MLP,
    config: Optional[BespokeConfig] = None,
    tech: Optional[TechnologyLibrary] = None,
    name: str = "bespoke_mlp",
) -> SynthesisReport:
    """One-call synthesis: build the bespoke circuit and report its costs.

    Args:
        model: trained (and possibly minimized) MLP.
        config: bespoke mapping configuration; defaults to the baseline
            convention (4-bit inputs, 8-bit weights, CSD, product sharing).
        tech: technology library, defaults to the EGT printed library.
        name: design name recorded in the report.
    """
    tech = tech if tech is not None else egt_library()
    circuit = build_bespoke_circuit(model, config=config, tech=tech, name=name)
    return report_from_circuit(circuit)


def synthesize_baseline(
    model: MLP,
    input_bits: int = 4,
    weight_bits: int = 8,
    tech: Optional[TechnologyLibrary] = None,
    name: str = "baseline_mlp",
) -> SynthesisReport:
    """Synthesize the un-minimized baseline the paper normalizes against.

    The baseline is the same trained network mapped with the default
    full-precision-for-printed convention (8-bit weights, 4-bit inputs),
    without any pruning mask or clustering applied. Masks/quantizer hooks on
    the model are temporarily ignored by synthesizing a clean clone.
    """
    baseline_model = model.clone()
    for layer in baseline_model.dense_layers:
        layer.mask = None
        layer.weight_quantizer = None
        layer.bias_quantizer = None
    config = BespokeConfig(input_bits=input_bits, weight_bits=weight_bits)
    return synthesize(baseline_model, config=config, tech=tech, name=name)
