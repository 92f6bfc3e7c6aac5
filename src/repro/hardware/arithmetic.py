"""Gate-level cost models for the arithmetic blocks of bespoke MLPs.

These models replace the Synopsys DC + PrimeTime synthesis flow of the
paper. Each function returns a :class:`~repro.hardware.cost.HardwareCost`
built from the cells of a :class:`~repro.hardware.technology.TechnologyLibrary`.

The blocks are exactly those a bespoke (hard-wired coefficient) MLP needs:

* constant-coefficient multipliers (CSD shift-add networks),
* ripple-carry adders and multi-operand adder trees,
* ReLU gating, comparators and the argmax selection tree of the output layer,
* registers for the input/output interface.

All block costs are pure functions of their arguments, and the search inner
loop asks for the same small domain over and over (coefficients below
``2**weight_bits``, a handful of operand-width multisets per layer), so the
heavyweight entry points — :func:`constant_multiplier`,
:func:`adder_tree_from_widths`, :func:`argmax_unit` — are memoized on
``(arguments, tech.cache_key)``, and :func:`multiplier_costs` lays the
multiplier memo out as an array. The memoized values are frozen
:class:`HardwareCost` instances shared between callers; they are built by
the same float operations as the original serial folds, so cached and
uncached results are bit-identical (asserted by the property tests in
``tests/test_perf_fastpaths.py``).
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Tuple

import numpy as np

from .cost import HardwareCost
from .csd import (
    coefficient_bit_length,
    csd_stage_table,
    is_power_of_two,
)
from .technology import TechnologyLibrary

_RIPPLE_CACHE: Dict[Tuple, HardwareCost] = {}
_MULT_CACHE: Dict[Tuple, HardwareCost] = {}
_TREE_CACHE: Dict[Tuple, HardwareCost] = {}
_ARGMAX_CACHE: Dict[Tuple, HardwareCost] = {}
_MULT_TABLES: Dict[Tuple, np.ndarray] = {}


def clear_cost_caches() -> None:
    """Drop every memoized block cost (used by tests)."""
    _RIPPLE_CACHE.clear()
    _MULT_CACHE.clear()
    _TREE_CACHE.clear()
    _ARGMAX_CACHE.clear()
    _MULT_TABLES.clear()


def _chain_totals(
    levels: Iterable[Tuple[int, int]], tech: TechnologyLibrary
) -> Tuple[float, float, float, int]:
    """Accumulated (area, power, serial delay, FA count) of ripple-adder levels.

    ``levels`` is a sequence of ``(width, count)`` pairs: ``count`` parallel
    ``width``-bit ripple-carry adders per level, levels composed serially.
    This is the shared kernel behind every adder-chain cost model
    (:func:`constant_multiplier` stages, :func:`adder_tree`,
    :func:`adder_tree_from_widths`); the accumulation order matches the
    original per-level ``HardwareCost`` folds exactly, so the floats are
    unchanged.
    """
    fa = tech.cell("FA")
    area = 0.0
    power = 0.0
    delay = 0.0
    fa_count = 0
    for width, count in levels:
        area += (fa.area * width) * count
        power += (fa.power * width) * count
        delay += fa.delay * width
        fa_count += width * count
    return area, power, delay, fa_count


def ripple_carry_adder(width: int, tech: TechnologyLibrary) -> HardwareCost:
    """A ``width``-bit ripple-carry adder: one full adder per bit.

    The delay is the full carry-propagation chain, which is what dominates
    the (very relaxed) timing of printed circuits.
    """
    if width <= 0:
        raise ValueError(f"Adder width must be positive, got {width}")
    key = (int(width), tech.cache_key)
    cached = _RIPPLE_CACHE.get(key)
    if cached is not None:
        return cached
    fa = tech.cell("FA")
    cost = HardwareCost(
        area=fa.area * width,
        power=fa.power * width,
        delay=fa.delay * width,
        gate_counts={"FA": width},
    )
    _RIPPLE_CACHE[key] = cost
    return cost


def subtractor(width: int, tech: TechnologyLibrary) -> HardwareCost:
    """Two's-complement subtractor: an adder plus one inverter per bit."""
    adder = ripple_carry_adder(width, tech)
    inverters = tech.cost("INV", width)
    return adder.serial(inverters)


def constant_multiplier(
    coefficient: int,
    input_bits: int,
    tech: TechnologyLibrary,
    method: str = "csd",
) -> HardwareCost:
    """Constant-coefficient multiplier implemented as a shift-add network.

    Args:
        coefficient: the hard-wired integer coefficient (may be negative).
        input_bits: unsigned bit-width of the multiplied input.
        tech: technology library supplying the cell costs.
        method: ``"csd"`` (canonical signed digit, what synthesis achieves)
            or ``"binary"`` (naive shift-add, used by the ablation study).

    A zero coefficient costs nothing (the product is dropped), a power-of-two
    coefficient is pure wiring. Otherwise the multiplier needs
    ``nonzero_digits - 1`` adder stages whose width grows with the partial
    product: stage widths are approximated as ``input_bits`` plus the
    coefficient's magnitude bits, which matches the final product width.

    Results are memoized on ``(coefficient, input_bits, method,
    tech.cache_key)``: one genome evaluation asks for the same few hundred
    coefficients thousands of times, and the domain is bounded by the weight
    bit-width, so the memo turns the synthesis hot loop into dict lookups.
    """
    if input_bits <= 0:
        raise ValueError(f"input_bits must be positive, got {input_bits}")
    if method not in ("csd", "binary"):
        raise ValueError(f"method must be 'csd' or 'binary', got '{method}'")
    coefficient = int(coefficient)
    key = (coefficient, int(input_bits), method, tech.cache_key)
    cached = _MULT_CACHE.get(key)
    if cached is not None:
        return cached
    cost = _constant_multiplier_uncached(coefficient, input_bits, tech, method)
    _MULT_CACHE[key] = cost
    return cost


def _constant_multiplier_uncached(
    coefficient: int,
    input_bits: int,
    tech: TechnologyLibrary,
    method: str,
) -> HardwareCost:
    """The actual multiplier cost model behind the :func:`constant_multiplier` memo."""
    if coefficient == 0:
        return HardwareCost.zero()
    if is_power_of_two(coefficient) and coefficient > 0:
        # A pure left shift: wiring only.
        return HardwareCost.zero()

    magnitude = -coefficient if coefficient < 0 else coefficient
    magnitude_bits = coefficient_bit_length(coefficient)
    # Stage counts come from the precomputed table covering the coefficient's
    # bit-width (CSD digit counts are sign-symmetric, so |c| indexes it).
    stages = int(csd_stage_table(magnitude_bits, method)[magnitude])
    product_width = input_bits + magnitude_bits
    if coefficient < 0 and stages == 0:
        # A negative power of two: the negation is folded into the consuming
        # adder tree (subtraction), charge one inverter row for the complement.
        return tech.cost("INV", product_width)

    area, power, delay, fa_count = _chain_totals(
        ((product_width, 1) for _ in range(stages)), tech
    )
    return HardwareCost(
        area=area, power=power, delay=delay, gate_counts={"FA": fa_count}
    )


def multiplier_costs(
    magnitudes: np.ndarray, input_bits: int, tech: TechnologyLibrary, method: str = "csd"
) -> np.ndarray:
    """:func:`constant_multiplier` of many non-negative coefficients at once.

    Returns ``(n, 4)`` rows ``[area, power, delay, full adders]``, the
    memoized cost of each magnitude (a non-negative coefficient's
    multiplier uses full adders only). The rows come from one table per
    ``(input_bits, method, tech.cache_key)``, indexed by magnitude and
    filled on first use, so a hit is one gather.
    """
    key = (int(input_bits), method, tech.cache_key)
    table = _MULT_TABLES.get(key)
    top = int(magnitudes.max(initial=0))
    if table is None or top >= table.shape[0]:
        grown = np.full((1 << max(top.bit_length(), 1), 4), np.nan)
        if table is not None:
            grown[: table.shape[0]] = table
        table = _MULT_TABLES[key] = grown
    rows = table[magnitudes]
    missing = np.isnan(rows[:, 0])
    if missing.any():
        for magnitude in set(magnitudes[missing].tolist()):
            cost = constant_multiplier(magnitude, input_bits, tech, method=method)
            if set(cost.gate_counts) - {"FA"}:
                raise ValueError("multiplier_costs expects full-adder-only multipliers")
            table[magnitude] = (cost.area, cost.power, cost.delay, cost.gate_counts.get("FA", 0))
        rows = table[magnitudes]
    return rows


def adder_tree(
    n_operands: int, operand_width: int, tech: TechnologyLibrary
) -> HardwareCost:
    """Balanced adder tree summing ``n_operands`` values of ``operand_width`` bits.

    The tree needs ``n_operands - 1`` adders; widths grow by one bit per
    level to accommodate carries. Zero or one operand needs no hardware.
    """
    if n_operands < 0:
        raise ValueError(f"n_operands must be non-negative, got {n_operands}")
    if operand_width <= 0:
        raise ValueError(f"operand_width must be positive, got {operand_width}")
    if n_operands <= 1:
        return HardwareCost.zero()

    levels: List[Tuple[int, int]] = []
    level_width = operand_width
    remaining = n_operands
    while remaining > 1:
        adders_this_level = remaining // 2
        levels.append((level_width, adders_this_level))
        remaining = adders_this_level + (remaining % 2)
        level_width += 1
    area, power, delay, fa_count = _chain_totals(levels, tech)
    return HardwareCost(
        area=area, power=power, delay=delay, gate_counts={"FA": fa_count}
    )


def adder_tree_from_widths(
    operand_widths: "list[int]", tech: TechnologyLibrary
) -> HardwareCost:
    """Adder tree over operands of heterogeneous bit-widths.

    Synthesis sizes each adder to its actual operands, so summing many narrow
    products (small hard-wired coefficients) is cheaper than the worst-case
    uniform-width estimate. The model combines the two narrowest operands
    first (Huffman-style, which is what a area-driven synthesis netlist tends
    towards); each combination costs a ripple-carry adder at the wider
    operand's width and produces a result one bit wider.

    The Huffman merge runs on a binary heap (the historical sorted-list
    ``pop(0)``/``insert`` loop was quadratic) and the result is memoized on
    the sorted width multiset, which repeats heavily across the neurons of a
    layer and across genomes.
    """
    # Rows that arrive sorted are their own memo key: a hit skips the sort.
    cached = _TREE_CACHE.get((tuple(operand_widths), tech.cache_key))
    if cached is not None:
        return cached
    widths = sorted(int(w) for w in operand_widths)
    if any(w <= 0 for w in widths):
        raise ValueError("operand widths must be positive")
    if len(widths) <= 1:
        return HardwareCost.zero()
    key = (tuple(widths), tech.cache_key)
    cached = _TREE_CACHE.get(key)
    if cached is not None:
        return cached

    # The merge schedule touches only operand *values*, so any tie-breaking
    # between equal widths yields the same (width, 1) sequence; a heap gives
    # it in O(n log n).
    heap = list(widths)  # already sorted => a valid min-heap
    merges: List[Tuple[int, int]] = []
    while len(heap) > 1:
        first = heapq.heappop(heap)
        second = heapq.heappop(heap)
        adder_width = second if second > first else first
        merges.append((adder_width, 1))
        heapq.heappush(heap, adder_width + 1)
    total_area, total_power, depth_delay, total_fa = _chain_totals(merges, tech)

    # Delay: a balanced tree is log-depth, not the full serial chain; scale
    # the accumulated serial delay down to the tree depth.
    n_operands = len(operand_widths)
    tree_depth = math.ceil(math.log2(n_operands)) if n_operands > 1 else 0
    serial_stages = n_operands - 1
    delay = depth_delay * (tree_depth / serial_stages) if serial_stages else 0.0
    cost = HardwareCost(
        area=total_area,
        power=total_power,
        delay=delay,
        gate_counts={"FA": total_fa},
    )
    _TREE_CACHE[key] = cost
    return cost


def relu_unit(width: int, tech: TechnologyLibrary) -> HardwareCost:
    """ReLU on a two's-complement value: sign bit gates the output bus.

    One inverter for the sign bit plus one AND gate per data bit.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    sign = tech.cost("INV", 1)
    gates = tech.cost("AND2", width)
    return sign.serial(gates)


def comparator(width: int, tech: TechnologyLibrary) -> HardwareCost:
    """Magnitude comparator (greater-than) over two ``width``-bit values.

    Modelled as a subtractor whose sign bit is the comparison result.
    """
    return subtractor(width, tech)


def argmax_unit(
    n_values: int, width: int, index_bits: int, tech: TechnologyLibrary
) -> HardwareCost:
    """Argmax over ``n_values`` scores: a linear chain of compare-and-select.

    Each of the ``n_values - 1`` stages needs a comparator, a ``width``-bit
    value multiplexer and an ``index_bits``-bit index multiplexer. The chain
    is a serial fold of one fixed stage cost; it is accumulated in scalars
    (identical float sequence to composing ``HardwareCost.serial``
    repeatedly) and memoized.
    """
    if n_values <= 0:
        raise ValueError(f"n_values must be positive, got {n_values}")
    if n_values == 1:
        return HardwareCost.zero()
    key = (int(n_values), int(width), int(index_bits), tech.cache_key)
    cached = _ARGMAX_CACHE.get(key)
    if cached is not None:
        return cached
    stage = comparator(width, tech).serial(tech.cost("MUX2", width + index_bits))
    area = 0.0
    power = 0.0
    delay = 0.0
    for _ in range(n_values - 1):
        area += stage.area
        power += stage.power
        delay += stage.delay
    gate_counts = {
        cell: count * (n_values - 1) for cell, count in stage.gate_counts.items()
    }
    cost = HardwareCost(area=area, power=power, delay=delay, gate_counts=gate_counts)
    _ARGMAX_CACHE[key] = cost
    return cost


def register_bank(width: int, tech: TechnologyLibrary) -> HardwareCost:
    """A bank of ``width`` flip-flops (input/output interface registers)."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return tech.cost("DFF", width)


def neuron_output_width(
    input_bits: int, weight_bits: int, n_operands: int
) -> int:
    """Bit-width of a neuron's accumulated sum.

    Product width plus ``ceil(log2(n_operands))`` carry bits plus a sign bit.
    """
    if input_bits <= 0 or weight_bits <= 0:
        raise ValueError("input_bits and weight_bits must be positive")
    if n_operands <= 0:
        return input_bits + weight_bits + 1
    growth = math.ceil(math.log2(n_operands)) if n_operands > 1 else 0
    return input_bits + weight_bits + growth + 1
