"""Vectorized Monte-Carlo fault injection on the bespoke integer datapath.

:mod:`repro.reliability.fault_injection` perturbs the *float* software model
one trial at a time — fine for a post-hoc study, far too slow as a search
objective. This module is the engine-grade counterpart: it injects the same
defect mechanisms (open, short, level-shift) directly into the hard-wired
integer coefficients of a :class:`~repro.bespoke.simulator.FixedPointSimulator`
and evaluates **all T trials (and, in the population form, all G genomes) in
one batched pass**.

Determinism and bit-identity contract
-------------------------------------

* Every trial owns a SHA-256-derived seed (:func:`fault_trial_seed` over the
  campaign seed and the trial index; the per-genome campaign seed is itself
  the genome's derived evaluation seed, see
  :func:`repro.search.evaluator.genome_seed`). The seed is expanded into the
  trial's randomness with SHAKE-256 — a fixed byte stream, so fault patterns
  depend only on ``(base seed, genome, trial)``: never on worker processes,
  batch shapes, evaluation order, or numpy's bit-generator internals.
* :func:`monte_carlo_fault_injection` (vectorized) is **bit-identical** to
  :func:`monte_carlo_fault_injection_reference` (the retained per-trial
  loop): both consume the same per-trial fault patterns, and the batched
  forward pass is exact. The fast path runs the integer matrix products
  through float64 BLAS, which is exact while every intermediate integer
  stays below 2**53; :func:`float_path_is_exact` checks a static worst-case
  bound per layer and the kernel falls back to exact int64 arithmetic when
  the bound is exceeded. The test suite asserts equality across fault
  models, bit-widths and degenerate rates (0.0 and 1.0).
* :func:`monte_carlo_population` stacks G same-architecture simulators into
  one ``(G * T)``-deep batch; slice ``g`` is exactly the single-simulator
  result for ``simulators[g]`` — which is what makes the robustness
  objective identical between serial, parallel and stacked evaluation.

Fault semantics (integer domain)
--------------------------------

Eligible sites are the non-zero hard-wired weight coefficients (a pruned
connection has no hardware to fail) and, with ``include_bias=True``, the
non-zero bias operands. Per layer, ``round(fault_rate * n_sites)`` sites are
hit per trial, without replacement (a uniform random subset):

* ``open``  — coefficient forced to 0 (broken segment),
* ``short`` — coefficient forced to +/- the layer's largest representable
  level (random sign; for bias sites, +/- the layer's largest bias
  magnitude),
* ``level_shift`` — coefficient moved +/- ``level_shift_levels`` steps and
  clipped to the representable range (misprinted low-order bits).

``FaultInjectionConfig.weight_bits`` is ignored here: the level grid comes
from the simulator's own per-layer weight formats, so the injected faults
match the deployed circuit exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..bespoke.simulator import FixedPointSimulator, validate_population
from .fault_injection import FaultInjectionConfig, FaultInjectionResult

#: Seeds are reduced modulo 2**32 so they read like ``numpy`` seeds everywhere.
_SEED_SPACE = 2**32

#: The scorer folds class indices into the scores (see ``_batch_accuracies``),
#: so exactness needs ``multiplier * bound + multiplier - 1`` below the float
#: type's contiguous integer range — 2**53 for float64, 2**24 for float32;
#: checking against half the range keeps a 2x safety margin.
_EXACT_FLOAT64_RANGE = 1 << 52
_EXACT_FLOAT32_RANGE = 1 << 23

#: A "random sign is negative" test on raw 64-bit draws (u < 0.5 equivalent).
_HALF_U64 = np.uint64(1 << 63)


def fault_trial_seed(base_seed: int, trial: int) -> int:
    """Deterministic seed of one Monte-Carlo trial.

    SHA-256 of ``(base_seed, trial)`` — stable across processes and Python
    runs (unlike ``hash()``), exactly like the per-genome evaluation seeds
    of :func:`repro.search.evaluator.genome_seed`. The ``base_seed`` is the
    campaign seed of the :class:`~repro.reliability.FaultInjectionConfig`;
    in the search engine it is the genome's derived evaluation seed, giving
    every (genome, trial) pair its own independent fault pattern.
    """
    digest = hashlib.sha256(
        f"fault|{int(base_seed)}|{int(trial)}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_SPACE


def _trial_draws(trial_seed: int, n_draws: int) -> bytes:
    """One trial's randomness: ``8 * n_draws`` bytes expanded from its seed.

    SHAKE-256 in one squeeze: a fixed, platform-independent byte stream per
    seed, orders of magnitude cheaper than constructing a numpy Generator
    per trial (the hot-path cost at engine scale: T trials x G genomes per
    generation). Draw ``k`` of a trial is always the same 8 bytes
    (interpreted big-endian), so the reference loop and the vectorized
    kernel cannot consume randomness differently.
    """
    return hashlib.shake_256(int(trial_seed).to_bytes(8, "big")).digest(8 * n_draws)


def _draw_matrix(
    config: FaultInjectionConfig,
    trials: Sequence[int],
    n_draws: int,
) -> np.ndarray:
    """The ``(len(trials), n_draws)`` uint64 draw matrix of the given trials.

    Row ``i`` depends only on ``fault_trial_seed(config.seed, trials[i])``,
    so any batching of trials — all at once in the vectorized kernel, one
    at a time in the reference loop — reads identical randomness. Each
    draw is 8 bytes read as a big-endian uint64, so fault patterns depend
    only on the byte stream.
    """
    raw = b"".join(
        _trial_draws(fault_trial_seed(config.seed, trial), n_draws)
        for trial in trials
    )
    return (
        np.frombuffer(raw, dtype=">u8")
        .astype(np.uint64, copy=False)
        .reshape(len(trials), n_draws)
    )


@dataclass(frozen=True)
class _FaultSite:
    """Precomputed per-layer fault-site table (identical for every trial).

    Attributes:
        eligible: flat indices of the eligible coefficients in the layer's
            flattened tensor (weights, or bias when ``is_bias``).
        n_hit: faults injected per trial (``round(rate * n_eligible)``).
        extreme: magnitude a ``short`` fault forces the coefficient to.
        is_bias: whether the site table covers the bias vector.
    """

    eligible: np.ndarray
    n_hit: int
    extreme: int
    is_bias: bool


def _fault_sites(
    simulator: FixedPointSimulator, config: FaultInjectionConfig
) -> List[_FaultSite]:
    """Site tables for every layer (weights first, then bias when enabled).

    The eligible sets depend only on the unperturbed coefficients, so they
    are computed once per campaign, not once per trial — both the reference
    loop and the vectorized kernel sample from the same tables.
    """
    sites: List[_FaultSite] = []
    for layer in simulator.layers:
        eligible = np.flatnonzero(layer.weights.reshape(-1))
        sites.append(
            _FaultSite(
                eligible=eligible,
                n_hit=int(round(config.fault_rate * eligible.size)),
                extreme=int(layer.weight_format.max_level),
                is_bias=False,
            )
        )
        if config.include_bias:
            bias_eligible = np.flatnonzero(layer.bias)
            extreme = int(np.abs(layer.bias).max()) if layer.bias.size else 0
            sites.append(
                _FaultSite(
                    eligible=bias_eligible,
                    n_hit=int(round(config.fault_rate * bias_eligible.size)),
                    extreme=extreme,
                    is_bias=True,
                )
            )
    return sites


def _draws_per_trial(sites: Sequence[_FaultSite]) -> int:
    """Random draws one trial consumes (selection keys + sign draws)."""
    return sum(site.eligible.size + site.n_hit for site in sites)


def _sample_patterns(
    draws: np.ndarray,
    sites: Sequence[_FaultSite],
    flats: Sequence[np.ndarray],
    config: FaultInjectionConfig,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Fault patterns of a batch of trials: per site ``(indices, values)``.

    ``draws`` is a slice of the trial draw matrix; both kernels call this
    one routine (the vectorized path with all T rows at once, the reference
    loop with one row at a time), so their randomness can never diverge.
    Site selection is a uniform ``n_hit``-subset per trial: every eligible
    site gets a 64-bit key from the trial's stream and the ``n_hit``
    smallest keys are hit (``np.argpartition`` works per row, so batched
    and single-row sampling agree; the picked indices are sorted before
    use). Returned
    ``indices``/``values`` are ``(n_trials, n_hit)`` arrays aligned with
    ``sites``; ``flats`` are the unperturbed flattened coefficient tensors.
    """
    n_trials = draws.shape[0]
    cursor = 0
    pattern: List[Tuple[np.ndarray, np.ndarray]] = []
    for site, flat in zip(sites, flats):
        keys = draws[:, cursor : cursor + site.eligible.size]
        signs = draws[
            :, cursor + site.eligible.size : cursor + site.eligible.size + site.n_hit
        ]
        cursor += site.eligible.size + site.n_hit
        if site.n_hit == 0:
            empty = np.empty((n_trials, 0), dtype=np.int64)
            pattern.append((empty, empty))
            continue
        if site.n_hit >= site.eligible.size:
            indices = np.broadcast_to(site.eligible, (n_trials, site.eligible.size))
        else:
            picks = np.argpartition(keys, site.n_hit - 1, axis=-1)[:, : site.n_hit]
            indices = site.eligible[np.sort(picks, axis=-1)]
        if config.fault_model == "open":
            values = np.zeros((n_trials, site.n_hit), dtype=np.int64)
        elif config.fault_model == "short":
            values = np.where(signs < _HALF_U64, site.extreme, -site.extreme)
        else:  # level_shift
            directions = np.where(signs < _HALF_U64, 1, -1)
            shifted = flat[indices] + directions * config.level_shift_levels
            values = np.clip(shifted, -site.extreme, site.extreme)
        pattern.append((indices, values.astype(np.int64)))
    return pattern


def _layer_flats(
    simulator: FixedPointSimulator, config: FaultInjectionConfig
) -> List[np.ndarray]:
    """Unperturbed flattened coefficient tensors aligned with the site tables."""
    flats: List[np.ndarray] = []
    for layer in simulator.layers:
        flats.append(layer.weights.reshape(-1))
        if config.include_bias:
            flats.append(layer.bias.reshape(-1))
    return flats


def accumulator_bounds(simulator: FixedPointSimulator) -> List[int]:
    """Static worst-case accumulator magnitude per layer under any faults.

    Activations are non-negative (unsigned inputs, ReLU hidden layers), so
    the accumulator magnitude of layer ``l`` is at most
    ``n_inputs * max_activation * max_level + max |bias|``; the layer's
    outputs (after the optional ReLU, or the raw scores) are bounded by the
    same value. Faults can only move coefficients within
    ``[-max_level, max_level]``, so the bound holds for every perturbed
    circuit as well.
    """
    bounds: List[int] = []
    max_activation = (1 << simulator.input_bits) - 1
    for layer in simulator.layers:
        max_bias = int(np.abs(layer.bias).max()) if layer.bias.size else 0
        bound = (
            layer.n_inputs * max_activation * int(layer.weight_format.max_level)
            + max_bias
        )
        bounds.append(bound)
        max_activation = bound
    return bounds


def _fold_multiplier(n_classes: int) -> int:
    """The power-of-two scale of the tie-folding scorer.

    ``score * multiplier + (n_classes - 1 - index)`` is a strict total order
    matching argmax-first semantics only while every tie rank stays below
    the multiplier, so the multiplier is the smallest power of two >= the
    class count (min 8).
    """
    return 1 << max(3, (int(n_classes) - 1).bit_length())


def float_path_is_exact(simulator: FixedPointSimulator) -> bool:
    """True when the float BLAS kernel is provably exact for this circuit.

    Every intermediate partial sum is bounded by the layer's worst-case
    accumulator magnitude, and the tie-aware scorer shifts scores by the
    class-count fold multiplier; float64 represents all integers below
    2**53 exactly, so keeping the folded bound under half that range makes
    the BLAS path bit-identical to int64 arithmetic in any summation
    order, with a 2x safety margin.
    """
    return _forward_dtype([simulator]) != np.int64


def _forward_dtype(simulators: Sequence[FixedPointSimulator]) -> np.dtype:
    """The cheapest dtype that keeps the batched forward pass exact.

    Tiny printed classifiers (a few bits, a handful of neurons) fit the
    float32 contiguous-integer range even after tie folding — sgemm runs
    roughly twice as fast as dgemm and every elementwise pass moves half
    the memory. Larger accumulators use float64; circuits beyond the
    float64 bound fall back to exact (but slower) int64 products.
    """
    worst = max(max(accumulator_bounds(simulator)) for simulator in simulators)
    multiplier = _fold_multiplier(simulators[0].layers[-1].n_neurons)
    folded_worst = worst * multiplier + multiplier - 1
    if folded_worst < _EXACT_FLOAT32_RANGE:
        return np.dtype(np.float32)
    if folded_worst < _EXACT_FLOAT64_RANGE:
        return np.dtype(np.float64)
    return np.dtype(np.int64)


def _batch_accuracies(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-batch top-1 accuracy with numpy's first-occurrence argmax tie rule.

    Instead of ``np.argmax`` (a slow small-axis reduction at these shapes),
    each class column is folded into ``score * multiplier + (n_classes - 1 -
    index)`` — with the power-of-two :func:`_fold_multiplier` above every
    tie rank, a strict total order whose maximum is attained exactly by the
    first-occurring maximal score — and reduced with
    :func:`_folded_accuracies`. A sample is correct iff its label's folded
    score equals the folded maximum. Exact for integer-valued scores below
    the :func:`float_path_is_exact` bound; equality with the reference
    loop's literal ``np.argmax`` is pinned by the test suite.

    The batched forward pass normally folds the transform into the last
    matmul for free (see :func:`_stacked_accuracies`); this standalone form
    covers already-materialized score tensors (and ReLU-terminated
    circuits, where the fold cannot be fused through the clamp).
    """
    n_classes = scores.shape[-1]
    tie_rank = n_classes - 1  # class 0 wins all ties, class C-1 none
    # Native-dtype arithmetic: float on the BLAS paths, int64 on the exact
    # fallback (where folding in float could lose bits).
    multiplier = _fold_multiplier(n_classes)
    folded = scores * multiplier + np.arange(tie_rank, -1, -1, dtype=scores.dtype)
    return _folded_accuracies(folded, labels)


def _folded_accuracies(folded: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Accuracy over ``(batch, samples, classes)`` tie-folded score tensors.

    ``folded`` holds a strict total order per sample (no two classes share a
    value), so a sample is correct exactly when its label's entry equals the
    per-sample maximum — computed with a chain of fused ``np.maximum``
    passes plus one flat gather, which beats ``np.argmax`` several-fold at
    the kernel's wide-batch shapes.
    """
    n_classes = folded.shape[-1]
    best = folded[..., 0].copy()
    for index in range(1, n_classes):
        np.maximum(best, folded[..., index], out=best)
    flat = folded.reshape(-1, n_classes)
    label_indices = np.broadcast_to(labels, folded.shape[:-1]).reshape(-1)
    at_label = flat[np.arange(flat.shape[0]), label_indices].reshape(folded.shape[:-1])
    return (at_label == best).mean(axis=-1)


def _result(
    config: FaultInjectionConfig,
    fault_free: float,
    accuracies: np.ndarray,
    fault_counts: List[int],
) -> FaultInjectionResult:
    """Assemble a :class:`FaultInjectionResult` from per-trial accuracies."""
    return FaultInjectionResult(
        config=config,
        fault_free_accuracy=float(fault_free),
        mean_accuracy=float(np.mean(accuracies)),
        worst_accuracy=float(np.min(accuracies)),
        accuracy_per_trial=[float(a) for a in accuracies],
        faults_per_trial=fault_counts,
    )


def monte_carlo_fault_injection_reference(
    simulator: FixedPointSimulator,
    features: np.ndarray,
    labels: np.ndarray,
    config: Optional[FaultInjectionConfig] = None,
) -> FaultInjectionResult:
    """The retained per-trial loop — the golden model of the vectorized kernel.

    One trial at a time: sample the trial's fault pattern, scatter it into a
    copy of the hard-wired integer coefficients, run the exact int64
    datapath, score with a literal ``np.argmax``. Kept (and exercised by
    the equality tests) so the batched kernel can never silently drift.
    """
    config = config if config is not None else FaultInjectionConfig()
    labels = np.asarray(labels).reshape(-1).astype(int)
    activations = simulator.quantize_inputs(features)
    sites = _fault_sites(simulator, config)
    flats = _layer_flats(simulator, config)
    n_draws = _draws_per_trial(sites)
    n_faults = sum(site.n_hit for site in sites)
    fault_free = float(
        np.mean(np.argmax(simulator.simulate_batch(features), axis=1) == labels)
    )

    accuracies = np.empty(config.n_trials, dtype=np.float64)
    for trial in range(config.n_trials):
        draws = _draw_matrix(config, [trial], n_draws)
        pattern = _sample_patterns(draws, sites, flats, config)
        out = activations
        site_index = 0
        for layer in simulator.layers:
            weights = layer.weights.copy()
            indices, values = pattern[site_index]
            weights.reshape(-1)[indices[0]] = values[0]
            site_index += 1
            bias = layer.bias
            if config.include_bias:
                indices, values = pattern[site_index]
                if indices.size:
                    bias = bias.copy()
                    bias[indices[0]] = values[0]
                site_index += 1
            out = out @ weights + bias
            if layer.relu:
                out = np.maximum(out, 0)
        predictions = np.argmax(out, axis=1)
        accuracies[trial] = np.mean(predictions == labels)
    return _result(config, fault_free, accuracies, [n_faults] * config.n_trials)


def _perturbed_stacks(
    simulator: FixedPointSimulator,
    config: FaultInjectionConfig,
    sites: Sequence[_FaultSite],
    flats: Sequence[np.ndarray],
    dtype: np.dtype,
) -> Tuple[List[np.ndarray], List[np.ndarray], List[int]]:
    """All T trials' perturbed coefficients as per-layer ``(T, ...)`` stacks.

    Built directly in the forward dtype (float64 on the exact BLAS path) so
    the kernel never materializes a second full-size integer copy — the
    scattered fault values are integers either way, so the cast is exact —
    and scattered with one ``np.put_along_axis`` per site instead of a
    per-trial Python loop (indices are unique per row, so the scatter is
    order-independent).
    """
    n_trials = config.n_trials
    weight_stacks = [
        np.broadcast_to(layer.weights, (n_trials,) + layer.weights.shape).astype(dtype)
        for layer in simulator.layers
    ]
    bias_stacks = [
        np.broadcast_to(layer.bias, (n_trials,) + layer.bias.shape).astype(dtype)
        for layer in simulator.layers
    ]
    draws = _draw_matrix(config, range(n_trials), _draws_per_trial(sites))
    pattern = _sample_patterns(draws, sites, flats, config)
    n_faults = sum(site.n_hit for site in sites)
    site_index = 0
    for layer_index in range(len(simulator.layers)):
        indices, values = pattern[site_index]
        if indices.size:
            np.put_along_axis(
                weight_stacks[layer_index].reshape(n_trials, -1), indices, values, axis=-1
            )
        site_index += 1
        if config.include_bias:
            indices, values = pattern[site_index]
            if indices.size:
                np.put_along_axis(bias_stacks[layer_index], indices, values, axis=-1)
            site_index += 1
    return weight_stacks, bias_stacks, [n_faults] * n_trials


def _stacked_accuracies(
    weight_stacks: Sequence[np.ndarray],
    bias_stacks: Sequence[np.ndarray],
    relu_flags: Sequence[bool],
    activations: np.ndarray,
    labels: np.ndarray,
) -> np.ndarray:
    """Accuracy of every stacked circuit in one batched forward pass.

    ``weight_stacks[l]`` is ``(B, n_in, n_out)`` — one slice per (trial, or
    genome x trial) — and ``activations`` is the shared quantized input
    batch. The stacks' dtype (chosen by :func:`_forward_dtype`) decides the
    arithmetic: float32/float64 BLAS where provably exact, int64 products
    otherwise.

    When no ReLU follows the last layer (every bespoke classifier: the
    output layer feeds the argmax comparator raw) and the arithmetic is a
    float tier, the tie-folding transform of :func:`_batch_accuracies` is
    fused into the final matrix product — the last weight stack is
    pre-scaled by the fold multiplier and the tie ranks join its bias — so
    scoring costs one maximum chain and a gather, with no extra full-size
    passes. The int64 fallback tier scores with a literal ``np.argmax``
    instead: it handles circuits whose accumulators may approach the int64
    range, where folding could overflow.
    """
    last = len(weight_stacks) - 1
    dtype = weight_stacks[0].dtype
    fuse_fold = not relu_flags[last] and dtype != np.int64
    if dtype == np.int64:
        batch = weight_stacks[0].shape[0]
        out: np.ndarray = np.broadcast_to(activations, (batch,) + activations.shape)
    else:
        out = activations.astype(dtype)
    for index, (weights, bias, relu) in enumerate(
        zip(weight_stacks, bias_stacks, relu_flags)
    ):
        if fuse_fold and index == last:
            n_classes = weights.shape[-1]
            multiplier = _fold_multiplier(n_classes)
            weights = weights * multiplier
            bias = bias * multiplier + np.arange(n_classes - 1, -1, -1, dtype=dtype)
        out = np.matmul(out, weights)
        out += bias[:, None, :]
        if relu:
            np.maximum(out, 0, out=out)
    if fuse_fold:
        return _folded_accuracies(out, labels)
    if dtype == np.int64:
        predictions = np.argmax(out, axis=-1)
        return (predictions == labels).mean(axis=-1)
    return _batch_accuracies(out, labels)


def monte_carlo_fault_injection(
    simulator: FixedPointSimulator,
    features: np.ndarray,
    labels: np.ndarray,
    config: Optional[FaultInjectionConfig] = None,
) -> FaultInjectionResult:
    """Vectorized Monte-Carlo campaign: all ``n_trials`` in one batched pass.

    Bit-identical to
    :func:`monte_carlo_fault_injection_reference` (the test suite asserts
    exact equality): the fault patterns come from the same per-trial
    SHA-256/SHAKE-256 streams, and the batched forward pass is exact
    integer arithmetic (float64 BLAS under the bound checked by
    :func:`float_path_is_exact`, int64 otherwise).
    """
    config = config if config is not None else FaultInjectionConfig()
    labels = np.asarray(labels).reshape(-1).astype(int)
    activations = simulator.quantize_inputs(features)
    sites = _fault_sites(simulator, config)
    flats = _layer_flats(simulator, config)
    relu_flags = [layer.relu for layer in simulator.layers]
    dtype = _forward_dtype([simulator])

    fault_free = float(
        np.mean(np.argmax(simulator.simulate_batch(features), axis=1) == labels)
    )
    weight_stacks, bias_stacks, fault_counts = _perturbed_stacks(
        simulator, config, sites, flats, dtype
    )
    accuracies = _stacked_accuracies(
        weight_stacks, bias_stacks, relu_flags, activations, labels
    )
    return _result(config, fault_free, accuracies, fault_counts)


def monte_carlo_population(
    simulators: Sequence[FixedPointSimulator],
    features: np.ndarray,
    labels: np.ndarray,
    configs: Sequence[FaultInjectionConfig],
) -> List[FaultInjectionResult]:
    """G simulators x T trials in one batched pass (the search engine's path).

    ``configs[g]`` carries genome ``g``'s campaign seed (its derived
    evaluation seed), so entry ``g`` of the returned list is exactly
    ``monte_carlo_fault_injection(simulators[g], features, labels,
    configs[g])`` — batching across the population is numerically
    invisible, which keeps serial, parallel and stacked evaluation
    byte-identical. All simulators must share input bit-width, layer shapes
    and ReLU flags (guaranteed for the same-topology populations the
    stacked evaluator builds); trial counts must match across configs.
    """
    validate_population(simulators)
    if len(configs) != len(simulators):
        raise ValueError(
            f"Got {len(configs)} fault configs for {len(simulators)} simulators"
        )
    n_trials = {config.n_trials for config in configs}
    if len(n_trials) != 1:
        raise ValueError(f"Population configs disagree on n_trials: {sorted(n_trials)}")
    first = simulators[0]

    labels = np.asarray(labels).reshape(-1).astype(int)
    activations = first.quantize_inputs(features)
    relu_flags = [layer.relu for layer in first.layers]
    dtype = _forward_dtype(simulators)

    # Fault-free accuracies of the unperturbed population, batched the same way.
    base_weights = [
        np.stack([simulator.layers[i].weights for simulator in simulators]).astype(dtype)
        for i in range(len(first.layers))
    ]
    base_bias = [
        np.stack([simulator.layers[i].bias for simulator in simulators]).astype(dtype)
        for i in range(len(first.layers))
    ]
    fault_free = _stacked_accuracies(
        base_weights, base_bias, relu_flags, activations, labels
    )

    # One (G * T)-deep stack; genome g owns slices [g * T, (g + 1) * T).
    all_weights: List[List[np.ndarray]] = []
    all_bias: List[List[np.ndarray]] = []
    all_fault_counts: List[List[int]] = []
    for simulator, config in zip(simulators, configs):
        sites = _fault_sites(simulator, config)
        flats = _layer_flats(simulator, config)
        weight_stacks, bias_stacks, fault_counts = _perturbed_stacks(
            simulator, config, sites, flats, dtype
        )
        all_weights.append(weight_stacks)
        all_bias.append(bias_stacks)
        all_fault_counts.append(fault_counts)
    merged_weights = [
        np.concatenate([stacks[i] for stacks in all_weights])
        for i in range(len(first.layers))
    ]
    merged_bias = [
        np.concatenate([stacks[i] for stacks in all_bias])
        for i in range(len(first.layers))
    ]
    accuracies = _stacked_accuracies(
        merged_weights, merged_bias, relu_flags, activations, labels
    )

    results: List[FaultInjectionResult] = []
    trials = configs[0].n_trials
    for index, config in enumerate(configs):
        per_trial = accuracies[index * trials : (index + 1) * trials]
        results.append(
            _result(config, float(fault_free[index]), per_trial, all_fault_counts[index])
        )
    return results
