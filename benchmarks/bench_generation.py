"""Generation-throughput benchmark: stacked population evaluation vs the loop.

The PR-3 tentpole batches a whole NSGA-II generation through shared
``(G, ...)`` tensor ops (stacked QAT, batched accuracy, vectorized NSGA-II)
instead of looping genome by genome. This benchmark runs the same figure2
search per population size — per-genome loop, then stacked — on the
whitewine pipeline, asserts the Pareto fronts are byte-identical, and
records the evaluations/s of both paths (plus the speedup) to
``BENCH_evaluation.json`` and the ``BENCH_history.json`` trajectory.

Default mode measures the full figure2 workload at populations 16 and 24
(the speedup grows with the population as per-batch numpy dispatch is
amortized over more genomes); the acceptance headline is the best speedup
at population >= 16. Run with ``REPRO_BENCH_SMOKE=1`` on CI for the reduced
population-16 configuration.
"""

from __future__ import annotations

import time

import pytest

from benchlib import SMOKE, bench_config, record_bench
from repro.core import MinimizationPipeline, PipelineConfig
from repro.search import EvaluationSettings, GAConfig, HardwareAwareGA

_GENERATIONS = 2
_POPULATIONS = (16,) if SMOKE else (16, 24)
_REPEATS = 1 if SMOKE else 2
_FINETUNE_EPOCHS = 3 if SMOKE else 6


@pytest.fixture(scope="module")
def prepared():
    if SMOKE:
        return MinimizationPipeline(bench_config("whitewine")).prepare()
    # The full figure2 workload the acceptance numbers are quoted on.
    return MinimizationPipeline(
        PipelineConfig(dataset="whitewine", finetune_epochs=8)
    ).prepare()


def _run_search(prepared, stacked: bool, population: int):
    settings = EvaluationSettings(finetune_epochs=_FINETUNE_EPOCHS)
    config = GAConfig(
        population_size=population,
        n_generations=_GENERATIONS,
        seed=0,
        n_workers=1,
        stacked=stacked,
    )
    start = time.perf_counter()
    result = HardwareAwareGA(prepared, config=config, settings=settings).run()
    return result, time.perf_counter() - start


def _front_signature(result):
    return [
        (point.accuracy, point.area, point.power, point.delay)
        for point in result.front
    ]


def test_generation_throughput_stacked_vs_loop(prepared):
    # Warm the hardware-cost memos and numpy so neither path pays cold-start.
    _run_search(prepared, stacked=True, population=min(_POPULATIONS))

    payload = {"generations": _GENERATIONS, "by_population": {}}
    speedups = []
    for population in _POPULATIONS:
        loop_s = stacked_s = float("inf")
        loop_result = stacked_result = None
        for _ in range(_REPEATS):
            loop_result, seconds = _run_search(prepared, stacked=False, population=population)
            loop_s = min(loop_s, seconds)
            stacked_result, seconds = _run_search(prepared, stacked=True, population=population)
            stacked_s = min(stacked_s, seconds)

        # The stacked path must be numerically invisible: same fronts, same
        # evaluation counts, same all-points trajectory.
        assert stacked_result.n_evaluations == loop_result.n_evaluations
        assert _front_signature(stacked_result) == _front_signature(loop_result)
        assert [(p.accuracy, p.area) for p in stacked_result.all_points] == [
            (p.accuracy, p.area) for p in loop_result.all_points
        ]

        evaluations = loop_result.n_evaluations
        speedup = (evaluations / stacked_s) / (evaluations / loop_s)
        speedups.append(speedup)
        payload["by_population"][str(population)] = {
            "evaluations": evaluations,
            "loop_s": loop_s,
            "stacked_s": stacked_s,
            "loop_evaluations_per_s": evaluations / loop_s,
            "stacked_evaluations_per_s": evaluations / stacked_s,
            "speedup": speedup,
        }
        print(
            f"\npopulation {population}: loop {evaluations / loop_s:.1f}/s, "
            f"stacked {evaluations / stacked_s:.1f}/s ({speedup:.2f}x)"
        )

    payload["speedup"] = max(speedups)
    record_bench("generation", payload)
    # Identical results faster: the stacked path must never lose to the loop
    # (generous CI margin; the absolute floor lives in the CI workflow).
    assert max(speedups) > (1.05 if SMOKE else 2.0), (
        f"stacked path too slow: best {max(speedups):.2f}x over the per-genome loop"
    )
