"""Tests for the cached, optionally parallel evaluation engine (evaluator.py)."""

import os
from concurrent.futures import BrokenExecutor

import numpy as np
import pytest

from repro.search import (
    EvaluationCache,
    EvaluationEngine,
    EvaluationSettings,
    GAConfig,
    Genome,
    HardwareAwareGA,
    genome_seed,
    grid_search,
    random_search,
    resolve_workers,
)
from repro.search import evaluator as evaluator_module


@pytest.fixture(scope="module")
def prepared(prepared_pipeline):
    return prepared_pipeline.prepare()


def genome(bits=4, sparsity=0.0, clusters=0, n_layers=2):
    return Genome(
        weight_bits=(bits,) * n_layers,
        sparsity=(sparsity,) * n_layers,
        clusters=(clusters,) * n_layers,
    )


FAST = EvaluationSettings(finetune_epochs=1)


class TestGenomeSeed:
    def test_deterministic(self):
        g = genome(bits=4)
        assert genome_seed(0, g) == genome_seed(0, g)

    def test_depends_on_genome_and_base_seed(self):
        a, b = genome(bits=4), genome(bits=5)
        assert genome_seed(0, a) != genome_seed(0, b)
        assert genome_seed(0, a) != genome_seed(1, a)

    def test_none_base_seed_passes_through(self):
        assert genome_seed(None, genome()) is None

    def test_fits_numpy_seed_space(self):
        seed = genome_seed(12345, genome(bits=7, sparsity=0.3))
        assert 0 <= seed < 2**32
        np.random.default_rng(seed)  # must be a valid seed


class TestResolveWorkers:
    def test_serial_defaults(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1

    def test_zero_means_all_cores(self):
        assert resolve_workers(0) >= 1

    def test_zero_counts_only_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_workers(0) == 1

    def test_zero_without_an_affinity_mask_counts_every_core(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert resolve_workers(0) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_workers(0) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)


class TestEvaluationCache:
    def test_lookup_and_points(self, prepared):
        cache = EvaluationCache()
        g = genome()
        assert cache.get(g) is None
        assert g not in cache
        cache.put(g, prepared.baseline_point)
        assert cache.get(g) is prepared.baseline_point
        assert g in cache
        assert len(cache) == 1
        assert cache.points() == [prepared.baseline_point]


class TestSerialEvaluator:
    def test_population_dedupes_and_caches(self, prepared):
        evaluator = EvaluationEngine(prepared, FAST, seed=0)
        batch = [genome(bits=4), genome(bits=2), genome(bits=4)]
        points = evaluator.evaluate_population(batch)
        assert len(points) == 3
        assert points[0] is points[2]
        assert evaluator.n_evaluations == 2
        # 3 requests, 2 fresh evaluations: the intra-batch duplicate is a hit.
        assert evaluator.cache_hits == 1
        assert evaluator.cache.misses == 2

    def test_cache_shared_across_generations(self, prepared):
        evaluator = EvaluationEngine(prepared, FAST, seed=0)
        first = evaluator.evaluate_population([genome(bits=4), genome(bits=2)])
        hits_before = evaluator.cache_hits
        second = evaluator.evaluate_population([genome(bits=2), genome(bits=4)])
        assert evaluator.n_evaluations == 2  # nothing re-evaluated
        assert evaluator.cache_hits > hits_before
        assert first[0] is second[1] and first[1] is second[0]

    def test_all_points_in_first_seen_order(self, prepared):
        evaluator = EvaluationEngine(prepared, FAST, seed=0)
        a = evaluator(genome(bits=8))
        b = evaluator(genome(bits=3))
        assert evaluator.all_points() == [a, b]

    def test_context_manager(self, prepared):
        with EvaluationEngine(prepared, FAST, seed=0) as evaluator:
            evaluator(genome())
        assert evaluator.cache_size == 1


class TestParallelEvaluator:
    def test_bit_identical_to_serial(self, prepared):
        batch = [genome(bits=b, sparsity=s) for b in (2, 4) for s in (0.0, 0.3)]
        with EvaluationEngine(prepared, FAST, seed=0, n_workers=2) as parallel:
            parallel_points = parallel.evaluate_population(batch)
        serial_points = EvaluationEngine(prepared, FAST, seed=0).evaluate_population(batch)
        for p, s in zip(parallel_points, serial_points):
            assert p.accuracy == s.accuracy
            assert p.area == s.area
            assert p.power == s.power

    def test_single_worker_never_builds_pool(self, prepared):
        evaluator = EvaluationEngine(prepared, FAST, seed=0, n_workers=1)
        evaluator.evaluate_population([genome(bits=4), genome(bits=2)])
        assert evaluator._executor is None

    def test_close_is_idempotent(self, prepared):
        evaluator = EvaluationEngine(prepared, FAST, seed=0, n_workers=2)
        evaluator.evaluate_population([genome(bits=4), genome(bits=2)])
        evaluator.close()
        evaluator.close()
        # Serial path still works after the pool is gone.
        evaluator.n_workers = 1
        evaluator(genome(bits=3))
        assert evaluator.n_evaluations == 3

    def test_broken_pool_falls_back_to_serial(self, prepared, monkeypatch):
        pools = []

        class BrokenPool:
            def __init__(self, **kwargs):
                self.open = True
                pools.append(self)

            def submit(self, *args):
                raise BrokenExecutor("worker died")

            def shutdown(self, wait=True, cancel_futures=False):
                self.open = False

        monkeypatch.setattr(evaluator_module, "ProcessPoolExecutor", BrokenPool)
        batch = [genome(bits=b, sparsity=s) for b in (2, 4) for s in (0.0, 0.3)]
        engine = EvaluationEngine(prepared, FAST, seed=0, n_workers=2)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            points = engine.evaluate_population(batch)
        expected = EvaluationEngine(prepared, FAST, seed=0, n_workers=1).evaluate_population(batch)

        def signature(p):
            return (p.technique, p.accuracy, p.area, p.power, p.delay, p.parameters,
                    p.robust_accuracy, p.accuracy_std)

        assert [signature(p) for p in points] == [signature(p) for p in expected]
        assert engine.n_workers == 1
        assert engine._executor is None
        assert len(pools) == 1 and not pools[0].open


class TestParallelSearchEquivalence:
    GA_KWARGS = dict(
        population_size=6, n_generations=2, finetune_epochs=1, seed=0,
        bit_choices=(2, 4, 8), sparsity_choices=(0.0, 0.3), cluster_choices=(0, 2),
    )

    def test_ga_front_bit_identical(self, prepared):
        serial = HardwareAwareGA(prepared, GAConfig(**self.GA_KWARGS, n_workers=1)).run()
        parallel = HardwareAwareGA(prepared, GAConfig(**self.GA_KWARGS, n_workers=2)).run()
        assert [(p.accuracy, p.area) for p in serial.front] == [
            (p.accuracy, p.area) for p in parallel.front
        ]
        assert [(p.accuracy, p.area) for p in serial.all_points] == [
            (p.accuracy, p.area) for p in parallel.all_points
        ]
        assert serial.n_evaluations == parallel.n_evaluations

    def test_ga_reports_cache_hits(self, prepared):
        result = HardwareAwareGA(prepared, GAConfig(**self.GA_KWARGS)).run()
        assert all("cache_hits" in entry for entry in result.generations)

    def test_random_search_worker_invariant(self, prepared):
        serial = random_search(prepared, n_evaluations=4, settings=FAST, seed=0)
        parallel = random_search(
            prepared, n_evaluations=4, settings=FAST, seed=0, n_workers=2
        )
        assert [(p.accuracy, p.area) for p in serial] == [
            (p.accuracy, p.area) for p in parallel
        ]

    def test_grid_search_worker_invariant(self, prepared):
        kwargs = dict(
            bit_choices=(4, 8), sparsity_choices=(0.0, 0.4), cluster_choices=(0,),
            settings=FAST, seed=0,
        )
        serial = grid_search(prepared, **kwargs)
        parallel = grid_search(prepared, **kwargs, n_workers=2)
        assert [(p.accuracy, p.area) for p in serial] == [
            (p.accuracy, p.area) for p in parallel
        ]
