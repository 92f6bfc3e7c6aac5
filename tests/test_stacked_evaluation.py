"""Golden tests of the stacked population evaluation path and its plumbing.

``evaluate_genomes_stacked`` must produce byte-identical design points to
the per-genome ``evaluate_genome`` loop; the engine (LRU cache bound,
parallel chunking) must preserve that identity end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bespoke import (
    BespokeConfig,
    FixedPointSimulator,
    population_accuracy,
    simulate_population,
)
from repro.core.results import DesignPoint
from repro.pruning.magnitude import prune_by_magnitude
from repro.quantization.qat import attach_quantizers
from repro.search import (
    EvaluationCache,
    EvaluationEngine,
    EvaluationSettings,
    GAConfig,
    Genome,
    GenomeSpace,
    HardwareAwareGA,
    evaluate_genome,
    evaluate_genomes_stacked,
    genome_seed,
)
from repro.search import evaluator as evaluator_module
from repro.search.evaluator import _chunk_bounds


def _population_genomes(n=6, seed=0):
    space = GenomeSpace(n_layers=2)
    rng = np.random.default_rng(seed)
    genomes = space.seed_genomes()
    while len(genomes) < n:
        genomes.append(space.random_genome(rng))
    return genomes[:n]


def _loop_points(genomes, prepared, settings):
    """The per-genome oracle: ``evaluate_genome`` with each genome's derived seed."""
    return [
        evaluate_genome(genome, prepared, settings, seed=genome_seed(0, genome))
        for genome in genomes
    ]


def _point_signature(point: DesignPoint):
    return (
        point.accuracy,
        point.area,
        point.power,
        point.delay,
        point.technique,
        point.parameters,
    )


class TestStackedEvaluationGolden:
    @pytest.mark.parametrize("simulate_accuracy", [False, True])
    def test_stacked_equals_serial_loop(self, prepared_pipeline, simulate_accuracy):
        prepared = prepared_pipeline.prepare()
        settings = EvaluationSettings(
            finetune_epochs=2, simulate_accuracy=simulate_accuracy
        )
        genomes = _population_genomes()
        seeds = [genome_seed(0, genome) for genome in genomes]
        serial = [
            evaluate_genome(genome, prepared, settings, seed=seed)
            for genome, seed in zip(genomes, seeds)
        ]
        stacked = evaluate_genomes_stacked(genomes, prepared, settings, seeds)
        assert [_point_signature(p) for p in serial] == [
            _point_signature(p) for p in stacked
        ]

    def test_zero_epoch_settings_fall_back(self, prepared_pipeline):
        prepared = prepared_pipeline.prepare()
        settings = EvaluationSettings(finetune_epochs=0)
        genomes = _population_genomes(n=3)
        seeds = [genome_seed(0, genome) for genome in genomes]
        stacked = evaluate_genomes_stacked(genomes, prepared, settings, seeds)
        serial = [
            evaluate_genome(genome, prepared, settings, seed=seed)
            for genome, seed in zip(genomes, seeds)
        ]
        assert [_point_signature(p) for p in serial] == [
            _point_signature(p) for p in stacked
        ]

    def test_unstackable_population_finishes_on_built_models(
        self, prepared_pipeline, monkeypatch
    ):
        """When stacking is rejected after the preamble, the fallback reuses
        the already-built models and still matches the serial loop."""
        import repro.search.objectives as objectives_module

        prepared = prepared_pipeline.prepare()
        settings = EvaluationSettings(finetune_epochs=2)
        genomes = _population_genomes(n=3)
        seeds = [genome_seed(0, genome) for genome in genomes]
        serial = [
            evaluate_genome(genome, prepared, settings, seed=seed)
            for genome, seed in zip(genomes, seeds)
        ]
        monkeypatch.setattr(objectives_module, "supports_stacking", lambda models: False)
        fallback = evaluate_genomes_stacked(genomes, prepared, settings, seeds)
        assert [_point_signature(p) for p in serial] == [
            _point_signature(p) for p in fallback
        ]

    def test_seed_count_mismatch_rejected(self, prepared_pipeline):
        prepared = prepared_pipeline.prepare()
        with pytest.raises(ValueError):
            evaluate_genomes_stacked(
                _population_genomes(n=3), prepared, EvaluationSettings(), seeds=[1]
            )


class TestEngineRouting:
    def test_stacked_engine_matches_plain(self, prepared_pipeline):
        prepared = prepared_pipeline.prepare()
        settings = EvaluationSettings(finetune_epochs=2)
        genomes = _population_genomes()
        stacked = EvaluationEngine(prepared, settings, seed=0)
        stacked_points = stacked.evaluate_population(genomes)
        assert [_point_signature(p) for p in _loop_points(genomes, prepared, settings)] == [
            _point_signature(p) for p in stacked_points
        ]
        assert stacked.n_evaluations == len(genomes)
        # Second submission: everything cached, no new evaluations.
        stacked.evaluate_population(genomes)
        assert stacked.n_evaluations == len(genomes)

    def test_pipeline_combined_search(self, prepared_pipeline):
        """MinimizationPipeline.combined_search == running the GA directly."""
        config = GAConfig(
            population_size=4, n_generations=1, finetune_epochs=1, seed=0
        )
        via_pipeline = prepared_pipeline.combined_search(ga_config=config)
        direct = HardwareAwareGA(
            prepared_pipeline.prepare(), config=config
        ).run()
        assert [_point_signature(p) for p in via_pipeline.front] == [
            _point_signature(p) for p in direct.front
        ]
        assert via_pipeline.n_evaluations == direct.n_evaluations

    def test_bounded_cache_preserves_search_results(self, prepared_pipeline):
        """A tiny LRU cache may re-evaluate genomes but must not change the
        front or the all-points history (the GA keeps its own archive)."""
        prepared = prepared_pipeline.prepare()
        settings = EvaluationSettings(finetune_epochs=1)

        def run(cache_size):
            config = GAConfig(
                population_size=4, n_generations=2, seed=0, cache_size=cache_size
            )
            return HardwareAwareGA(prepared, config=config, settings=settings).run()

        unbounded = run(None)
        bounded = run(2)
        # The Pareto archive makes the front exact regardless of evictions.
        assert [_point_signature(p) for p in bounded.front] == [
            _point_signature(p) for p in unbounded.front
        ]
        # all_points reflects the surviving cache entries: a subset (by
        # signature) of the complete unbounded history, bounded in size.
        unbounded_signatures = {repr(_point_signature(p)) for p in unbounded.all_points}
        assert all(
            repr(_point_signature(p)) in unbounded_signatures
            for p in bounded.all_points
        )
        assert len(bounded.all_points) <= 2
        # The bound was actually exercised: evictions forced re-evaluations.
        assert bounded.n_evaluations >= unbounded.n_evaluations

    def test_ga_stacked_and_loop_fronts_identical(self, prepared_pipeline, monkeypatch):
        prepared = prepared_pipeline.prepare()
        settings = EvaluationSettings(finetune_epochs=2)

        def run():
            config = GAConfig(population_size=4, n_generations=2, seed=0)
            return HardwareAwareGA(prepared, config=config, settings=settings).run()

        stacked_result = run()
        # The same GA with the engine's stacked path swapped for the
        # per-genome loop it must match.
        monkeypatch.setattr(
            evaluator_module,
            "evaluate_genomes_stacked",
            lambda genomes, prepared, settings, seeds: [
                evaluate_genome(genome, prepared, settings, seed=seed)
                for genome, seed in zip(genomes, seeds)
            ],
        )
        loop_result = run()
        assert [_point_signature(p) for p in loop_result.front] == [
            _point_signature(p) for p in stacked_result.front
        ]
        assert loop_result.n_evaluations == stacked_result.n_evaluations
        assert [p.accuracy for p in loop_result.all_points] == [
            p.accuracy for p in stacked_result.all_points
        ]


class TestParallelStackedAgreement:
    def test_chunked_pool_matches_serial_stacked(self, prepared_pipeline):
        """The per-genome loop and the parallel-stacked engine agree byte for byte."""
        prepared = prepared_pipeline.prepare()
        settings = EvaluationSettings(finetune_epochs=2)
        genomes = _population_genomes(n=5)
        expected = _loop_points(genomes, prepared, settings)
        with EvaluationEngine(prepared, settings, seed=0, n_workers=2) as parallel:
            points = parallel.evaluate_population(genomes)
        assert [_point_signature(p) for p in points] == [
            _point_signature(p) for p in expected
        ]


class TestChunkBounds:
    def test_partition_properties(self):
        for n_items in range(1, 40):
            for n_chunks in range(1, 10):
                bounds = _chunk_bounds(n_items, n_chunks)
                assert bounds[0][0] == 0
                assert bounds[-1][1] == n_items
                for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                    assert stop == start
                assert all(stop > start for start, stop in bounds)
                sizes = [stop - start for start, stop in bounds]
                assert max(sizes) - min(sizes) <= 1


class TestEvaluationCacheLRU:
    @staticmethod
    def _genome(bits: int) -> Genome:
        return Genome(weight_bits=(bits, bits), sparsity=(0.0, 0.0), clusters=(0, 0))

    @staticmethod
    def _point(bits: int) -> DesignPoint:
        return DesignPoint(
            technique="combined", accuracy=0.9, area=float(bits), power=1.0, delay=1.0
        )

    def test_unbounded_preserves_insertion_order(self):
        cache = EvaluationCache()
        for bits in (2, 3, 4):
            cache.put(self._genome(bits), self._point(bits))
        cache.get(self._genome(2))  # a hit must not reorder an unbounded cache
        assert [p.area for p in cache.points()] == [2.0, 3.0, 4.0]
        assert cache.evictions == 0

    def test_bounded_evicts_least_recently_used(self):
        cache = EvaluationCache(max_entries=2)
        cache.put(self._genome(2), self._point(2))
        cache.put(self._genome(3), self._point(3))
        cache.get(self._genome(2))  # refresh 2 -> 3 is now the LRU entry
        cache.put(self._genome(4), self._point(4))
        assert self._genome(3) not in cache
        assert self._genome(2) in cache
        assert self._genome(4) in cache
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            EvaluationCache(max_entries=0)

    def test_bounded_engine_still_correct(self, prepared_pipeline):
        """A cache smaller than the population re-evaluates deterministically:
        same points, more evaluations."""
        prepared = prepared_pipeline.prepare()
        settings = EvaluationSettings(finetune_epochs=2)
        genomes = _population_genomes(n=5)
        unbounded = EvaluationEngine(prepared, settings, seed=0)
        bounded = EvaluationEngine(prepared, settings, seed=0, cache_size=2)
        expected = unbounded.evaluate_population(genomes)
        first = bounded.evaluate_population(genomes)
        assert [_point_signature(p) for p in first] == [
            _point_signature(p) for p in expected
        ]
        assert bounded.cache_size == 2
        # Resubmission re-evaluates evicted genomes but returns identical points.
        again = bounded.evaluate_population(genomes)
        assert [_point_signature(p) for p in again] == [
            _point_signature(p) for p in expected
        ]
        assert bounded.n_evaluations > unbounded.n_evaluations
        assert bounded.cache.evictions > 0


class TestSimulatorPopulation:
    def _simulators(self, seeds_model):
        simulators = []
        models = []
        for bits in (3, 5, 8):
            model = seeds_model.clone()
            if bits == 5:
                prune_by_magnitude(model, [0.4, 0.2], global_ranking=False)
            attach_quantizers(model, bits)
            config = BespokeConfig(input_bits=4, weight_bits=bits)
            simulators.append(FixedPointSimulator(model, config))
            models.append(model)
        return simulators, models

    def test_population_scores_match_serial(self, seeds_model, seeds_data):
        simulators, _ = self._simulators(seeds_model)
        features = seeds_data.test.features
        scores = simulate_population(simulators, features)
        for index, simulator in enumerate(simulators):
            assert (scores[index] == simulator.simulate_batch(features)).all()

    def test_population_accuracy_matches_serial(self, seeds_model, seeds_data):
        simulators, _ = self._simulators(seeds_model)
        features = seeds_data.test.features
        labels = seeds_data.test.labels
        accuracies = population_accuracy(simulators, features, labels)
        for index, simulator in enumerate(simulators):
            assert float(accuracies[index]) == simulator.evaluate_accuracy(
                features, labels
            )

    def test_empty_population_rejected(self, seeds_data):
        with pytest.raises(ValueError):
            simulate_population([], seeds_data.test.features)

    def test_mismatched_population_rejected(self, seeds_model, seeds_data):
        simulators, _ = self._simulators(seeds_model)
        other = FixedPointSimulator(
            seeds_model.clone(), BespokeConfig(input_bits=6, weight_bits=4)
        )
        with pytest.raises(ValueError):
            simulate_population([simulators[0], other], seeds_data.test.features)
