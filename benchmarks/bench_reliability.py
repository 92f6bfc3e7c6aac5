"""Fault-tolerance benchmarks (extension study beyond the paper).

Two studies:

* ``test_fault_tolerance_baseline_vs_minimized`` — the original float-model
  comparison: open-connection defects at a 5 % rate into the Seeds baseline
  vs its 4-bit quantized + 40 % pruned counterpart.
* ``test_monte_carlo_vectorized_speedup`` — the PR-5 robustness-objective
  hot path: the batched Monte-Carlo kernel vs the retained per-trial
  reference loop on the figure2 (WhiteWine) workload, asserting exact
  equality and recording the speedup to ``BENCH_evaluation.json`` /
  ``BENCH_history.json``. This is the kernel every robustness-aware search
  evaluation runs, so its throughput bounds the cost of the third
  objective.
"""

import pytest

from benchlib import SMOKE, bench_config, record_bench, timed
from repro.bespoke import BespokeConfig, FixedPointSimulator
from repro.core import MinimizationPipeline, PipelineConfig
from repro.pruning import prune_by_magnitude
from repro.quantization import QATConfig, quantize_aware_train
from repro.reliability import (
    FaultInjectionConfig,
    compare_fault_tolerance,
    monte_carlo_fault_injection,
    monte_carlo_fault_injection_reference,
    monte_carlo_population,
)


def _run_reliability_study():
    pipeline = MinimizationPipeline(bench_config("seeds"))
    prepared = pipeline.prepare()
    data = prepared.data

    minimized = prepared.baseline_model.clone()
    prune_by_magnitude(minimized, 0.4)
    quantize_aware_train(minimized, data, QATConfig(weight_bits=4, epochs=8), seed=0)

    campaign = FaultInjectionConfig(
        fault_rate=0.05, fault_model="open", weight_bits=8, n_trials=15, seed=0
    )
    comparison = compare_fault_tolerance(
        {"baseline": prepared.baseline_model, "minimized": minimized},
        data.test.features,
        data.test.labels,
        campaign,
    )
    return {name: result.as_dict() for name, result in comparison.items()}


@pytest.mark.benchmark(group="reliability", min_rounds=1, max_time=1.0, warmup=False)
def test_fault_tolerance_baseline_vs_minimized(benchmark, print_rows):
    study = benchmark.pedantic(_run_reliability_study, rounds=1, iterations=1)
    benchmark.extra_info.update(study)
    print_rows(
        [
            f"{name:<10} fault-free={entry['fault_free_accuracy']:.3f} "
            f"mean={entry['mean_accuracy']:.3f} worst={entry['worst_accuracy']:.3f} "
            f"drop={entry['mean_accuracy_drop']:.3f}"
            for name, entry in study.items()
        ]
    )

    # Both designs must stay functional under a 5 % defect rate, and the
    # minimized design's extra degradation must stay moderate (it has fewer
    # redundant connections, so some extra sensitivity is expected).
    assert study["baseline"]["mean_accuracy"] > 0.6
    assert study["minimized"]["mean_accuracy"] > 0.6
    extra_drop = (
        study["minimized"]["mean_accuracy_drop"] - study["baseline"]["mean_accuracy_drop"]
    )
    assert extra_drop < 0.25


# -- Monte-Carlo kernel throughput (the robustness-objective hot path) ------------

_MC_TRIALS = 24 if SMOKE else 96
_MC_REPEATS = 2 if SMOKE else 3
_MC_POPULATION_BITS = (2, 3, 4, 5, 6, 7, 8) if not SMOKE else (3, 4, 6)


def _best_of(fn, repeats):
    """``(result, best wall-clock)`` of ``fn`` — benchlib.timed plus the value.

    The equality assertions below need the computed results, which
    :func:`benchlib.timed` discards; the warm-up already happened (both
    kernels run once before any timing), so ``warmup=0`` here.
    """
    result = fn()
    stats = timed(fn, repeats, warmup=0)
    return result, stats["best_s"]


def test_monte_carlo_vectorized_speedup(print_rows):
    """Vectorized Monte-Carlo fault injection vs the per-trial reference loop."""
    if SMOKE:
        pipeline = MinimizationPipeline(bench_config("whitewine"))
    else:
        # The full figure2 workload the acceptance numbers are quoted on.
        pipeline = MinimizationPipeline(PipelineConfig(dataset="whitewine"))
    prepared = pipeline.prepare()
    data = prepared.data
    config = FaultInjectionConfig(
        fault_rate=0.05, fault_model="short", n_trials=_MC_TRIALS, seed=0
    )
    simulator = FixedPointSimulator(
        prepared.baseline_model,
        BespokeConfig(input_bits=prepared.config.input_bits, weight_bits=4),
    )

    # Warm numpy/BLAS so neither path pays cold-start dispatch.
    warm = FaultInjectionConfig(fault_rate=0.05, fault_model="short", n_trials=2, seed=0)
    monte_carlo_fault_injection(simulator, data.test.features, data.test.labels, warm)
    monte_carlo_fault_injection_reference(
        simulator, data.test.features, data.test.labels, warm
    )

    vectorized, vectorized_s = _best_of(
        lambda: monte_carlo_fault_injection(
            simulator, data.test.features, data.test.labels, config
        ),
        _MC_REPEATS,
    )
    reference, reference_s = _best_of(
        lambda: monte_carlo_fault_injection_reference(
            simulator, data.test.features, data.test.labels, config
        ),
        _MC_REPEATS,
    )
    # The speedup claim only counts because the results are *identical*.
    assert vectorized.accuracy_per_trial == reference.accuracy_per_trial
    assert vectorized.faults_per_trial == reference.faults_per_trial
    single_speedup = reference_s / vectorized_s

    # Population form: G same-topology circuits x T trials in one pass —
    # the shape the stacked search engine evaluates every generation.
    simulators = [
        FixedPointSimulator(
            prepared.baseline_model,
            BespokeConfig(input_bits=prepared.config.input_bits, weight_bits=bits),
        )
        for bits in _MC_POPULATION_BITS
    ]
    configs = [
        FaultInjectionConfig(
            fault_rate=0.05, fault_model="short", n_trials=_MC_TRIALS, seed=seed
        )
        for seed in range(len(simulators))
    ]
    population, population_s = _best_of(
        lambda: monte_carlo_population(
            simulators, data.test.features, data.test.labels, configs
        ),
        _MC_REPEATS,
    )
    loop, loop_s = _best_of(
        lambda: [
            monte_carlo_fault_injection_reference(
                simulator, data.test.features, data.test.labels, config
            )
            for simulator, config in zip(simulators, configs)
        ],
        _MC_REPEATS,
    )
    for fast, slow in zip(population, loop):
        assert fast.accuracy_per_trial == slow.accuracy_per_trial
    population_speedup = loop_s / population_s

    trials_per_s = _MC_TRIALS / vectorized_s
    payload = {
        "n_trials": _MC_TRIALS,
        "n_samples": int(data.test.n_samples),
        "single": {
            "reference_s": reference_s,
            "vectorized_s": vectorized_s,
            "speedup": single_speedup,
            "trials_per_s": trials_per_s,
        },
        "population": {
            "n_simulators": len(simulators),
            "reference_s": loop_s,
            "vectorized_s": population_s,
            "speedup": population_speedup,
        },
        "speedup": max(single_speedup, population_speedup),
    }
    record_bench("reliability", payload)
    print_rows(
        [
            f"single     : ref {reference_s * 1e3:7.1f} ms  vec {vectorized_s * 1e3:7.1f} ms "
            f"({single_speedup:.2f}x, {trials_per_s:.0f} trials/s)",
            f"population : ref {loop_s * 1e3:7.1f} ms  vec {population_s * 1e3:7.1f} ms "
            f"({population_speedup:.2f}x over {len(simulators)} circuits)",
        ]
    )
    # Generous CI margins (the absolute acceptance number lives in
    # BENCH_history.json); smoke hardware only needs to show the win exists.
    floor = 1.5 if SMOKE else 2.5
    assert max(single_speedup, population_speedup) > floor, (
        f"Monte-Carlo vectorization too slow: best "
        f"{max(single_speedup, population_speedup):.2f}x (floor {floor}x)"
    )
