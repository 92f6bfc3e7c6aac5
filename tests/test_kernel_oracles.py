"""The population kernels against their serial and reference oracles.

Stacked fine-tuning and prediction, the population simulator, the NSGA-II
primitives and the Monte-Carlo kernels each have a serial or ``*_reference``
counterpart, and every result here must equal it byte for byte. The private
helpers those kernels are built from — the fake-quantization pass, the fused
Adam step, the domination matrix, the fault-site sampler and the draw
matrix — are checked against the expression or definition they implement.
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
from repro.nn.network import build_mlp
from repro.nn.optimizers import Adam, StackedAdam, _adam_step
from repro.nn.stacked import (
    StackedTrainer,
    _quantize,
    finetune_stacked,
    predict_stacked,
    supports_stacking,
)
from repro.nn.trainer import TrainerConfig, finetune
from repro.pruning.magnitude import prune_by_magnitude
from repro.quantization.qat import attach_quantizers
from repro.reliability import (
    FaultInjectionConfig,
    fault_trial_seed,
    monte_carlo_fault_injection,
    monte_carlo_fault_injection_reference,
    monte_carlo_population,
)
from repro.reliability.monte_carlo import (
    _draw_matrix,
    _FaultSite,
    _sample_patterns,
    _trial_draws,
)
from repro.search.nsga2 import (
    _domination_matrix,
    crowding_distance,
    crowding_distance_reference,
    dominates,
    fast_non_dominated_sort,
    fast_non_dominated_sort_reference,
    nsga2_rank,
    select_survivors,
)


def _quantized_population(n_features=7, n_classes=3):
    models = []
    for bits, do_prune, seed in [(3, True, 0), (4, False, 1), (6, True, 2)]:
        model = build_mlp(n_features, [4], n_classes, seed=seed)
        if do_prune:
            prune_by_magnitude(model, [0.4, 0.2], global_ranking=False)
        attach_quantizers(model, bits)
        models.append(model)
    return models


# -- stacked trainer and its helpers ---------------------------------------------------


class TestStackedKernels:
    def test_finetune_matches_serial(self):
        generator = np.random.default_rng(5)
        x = generator.normal(size=(120, 7))
        y = generator.integers(0, 3, size=120)
        seeds = [21, 22, 23]
        serial = _quantized_population()
        for model, seed in zip(serial, seeds):
            finetune(model, x, y, epochs=4, learning_rate=0.003, seed=seed)
        stacked = _quantized_population()
        assert supports_stacking(stacked)
        finetune_stacked(stacked, x, y, epochs=4, learning_rate=0.003, seeds=seeds)
        for a, b in zip(serial, stacked):
            for la, lb in zip(a.dense_layers, b.dense_layers):
                assert la.weights.tobytes() == lb.weights.tobytes()
                assert la.bias.tobytes() == lb.bias.tobytes()

    def test_predict_stacked_matches_serial_predict(self):
        features = np.random.default_rng(8).normal(size=(50, 7))
        models = _quantized_population()
        expected = np.stack([model.predict(features) for model in models])
        assert np.array_equal(predict_stacked(models, features), expected)

    def test_predict_stacked_ties_pick_the_first_class(self):
        # Zeroed weights tie every logit: numpy's first-occurrence argmax
        # predicts class 0, exactly as the serial model does.
        models = _quantized_population()
        for model in models:
            for layer in model.dense_layers:
                layer.weights[...] = 0.0
                layer.bias[...] = 0.0
        features = np.random.default_rng(9).normal(size=(20, 7))
        predictions = predict_stacked(models, features)
        assert not predictions.any()
        assert np.array_equal(predictions, np.stack([m.predict(features) for m in models]))

    def test_quantize_matches_literal_sequence(self, rng):
        values = rng.standard_normal((2, 10))
        values[:, :2] = -0.1  # rounds to -0.0 before the normalization
        scale = np.full((2, 10), 0.25)
        neg_level, pos_level = np.full_like(scale, -3.0), np.full_like(scale, 3.0)
        expected = np.empty_like(values)
        np.divide(values, scale, out=expected)
        np.rint(expected, out=expected)
        np.maximum(expected, neg_level, out=expected)
        np.minimum(expected, pos_level, out=expected)
        expected += 0.0
        expected *= scale
        out = np.empty_like(values)
        assert _quantize(values, scale, neg_level, pos_level, out=out) is out
        # byte equality, so a surviving -0.0 would fail
        assert out.tobytes() == expected.tobytes()
        assert not np.signbit(out[:, :2]).any()

    def test_adam_step_matches_legacy_expression(self):
        generator = np.random.default_rng(7)
        shape = (3, 20)
        params, grads = generator.standard_normal(shape), generator.standard_normal(shape)
        m, v = generator.standard_normal(shape), np.abs(generator.standard_normal(shape))
        rates = np.array([[0.003], [0.01], [0.5]])
        beta1, beta2, epsilon, t = 0.9, 0.999, 1e-8, 3
        # Adam._update_legacy, written out per row with a scalar rate.
        expected_m = beta1 * m + (1.0 - beta1) * grads
        expected_v = beta2 * v + (1.0 - beta2) * (grads * grads)
        m_hat = expected_m / (1.0 - beta1**t)
        v_hat = expected_v / (1.0 - beta2**t)
        expected = params.copy()
        for row in range(shape[0]):
            lr = float(rates[row, 0])
            expected[row] -= lr * m_hat[row] / (np.sqrt(v_hat[row]) + epsilon)
        buffers = [np.empty(shape) for _ in range(3)]
        params -= _adam_step(grads, m, v, *buffers, rates, beta1, beta2, epsilon, t)
        assert m.tobytes() == expected_m.tobytes()
        assert v.tobytes() == expected_v.tobytes()
        assert params.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "hidden,n_classes,bits,prune,epochs,batch_size,with_validation",
        [
            ((5, 3), 3, (3, 4, 6), True, 3, 32, False),
            ((4,), 3, None, False, 3, 32, False),
            ((4,), 3, None, True, 3, 32, False),
            ((4,), 3, (3, 4, 6), True, 6, 32, True),
            ((6,), 2, (2, 3, 5), False, 2, 17, False),
        ],
        ids=["two-hidden", "float", "pruned-float", "early-stopping", "ragged-batch"],
    )
    def test_finetune_matches_serial_across_configs(
        self, hidden, n_classes, bits, prune, epochs, batch_size, with_validation
    ):
        generator = np.random.default_rng(11)
        x = generator.normal(size=(120, 7))
        y = generator.integers(0, n_classes, size=120)
        x_val = generator.normal(size=(30, 7)) if with_validation else None
        y_val = generator.integers(0, n_classes, size=30) if with_validation else None

        def population():
            models = []
            for index in range(3):
                model = build_mlp(7, hidden, n_classes, seed=40 + index)
                if prune:
                    prune_by_magnitude(
                        model, [0.2 * (index + 1)] * (len(hidden) + 1), global_ranking=False
                    )
                if bits is not None:
                    attach_quantizers(model, bits[index])
                models.append(model)
            return models

        seeds = [51, 52, 53]
        serial = population()
        serial_histories = [
            finetune(
                model, x, y, x_val, y_val,
                epochs=epochs, batch_size=batch_size, learning_rate=0.01, seed=seed,
            )
            for model, seed in zip(serial, seeds)
        ]
        stacked = population()
        assert supports_stacking(stacked)
        stacked_histories = finetune_stacked(
            stacked, x, y, x_val, y_val,
            epochs=epochs, batch_size=batch_size, learning_rate=0.01, seeds=seeds,
        )
        for a, b in zip(serial, stacked):
            for la, lb in zip(a.dense_layers, b.dense_layers):
                assert la.weights.tobytes() == lb.weights.tobytes()
                assert la.bias.tobytes() == lb.bias.tobytes()
        for a, b in zip(serial_histories, stacked_histories):
            assert len(a.train_loss) == len(b.train_loss)
        if with_validation:  # a genome stops early and is evicted from the stack
            assert min(len(h.train_loss) for h in stacked_histories) < epochs

    @pytest.mark.parametrize(
        "hidden,n_classes", [((), 3), ((4, 4), 3), ((5,), 2)], ids=["no-hidden", "deep", "binary"]
    )
    def test_predict_stacked_matches_serial_across_architectures(self, hidden, n_classes):
        features = np.random.default_rng(12).normal(size=(40, 7))
        models = []
        for index, bits in enumerate((3, 4, 8)):
            model = build_mlp(7, hidden, n_classes, seed=60 + index)
            prune_by_magnitude(model, [0.3] * (len(hidden) + 1), global_ranking=False)
            attach_quantizers(model, bits)
            models.append(model)
        expected = np.stack([model.predict(features) for model in models])
        assert np.array_equal(predict_stacked(models, features), expected)

    @pytest.mark.parametrize("max_level", [1.0, 3.0, 7.0, 127.0])
    def test_quantize_lands_on_the_clipped_grid(self, rng, max_level):
        values = rng.standard_normal((3, 16)) * 4.0
        scale = np.full((3, 16), 0.25)  # a power of two keeps out / scale exact
        neg_level, pos_level = np.full_like(scale, -max_level), np.full_like(scale, max_level)
        out = _quantize(values, scale, neg_level, pos_level, out=np.empty_like(values))
        levels = out / scale
        assert np.array_equal(levels, np.rint(levels))
        assert levels.min() >= -max_level and levels.max() <= max_level
        # Inside the range the grid point is the nearest one.
        inside = np.abs(values / scale) < max_level
        assert np.all(np.abs(out - values)[inside] <= scale[inside] / 2)

    @pytest.mark.parametrize("quantized", [True, False], ids=["quantized", "float"])
    def test_stacked_fake_quantization_matches_effective_parameters(self, quantized):
        # Exercises the per-segment max (reduceat), the scale broadcast (take)
        # and the quantize pass against each layer's serial effective_*().
        models = _quantized_population() if quantized else [
            build_mlp(7, [4], 3, seed=seed) for seed in range(3)
        ]
        trainer = StackedTrainer(models, 0.003, config=TrainerConfig(epochs=1), seeds=[0, 1, 2])
        effective = trainer._apply_pack(trainer._build_pack(), trainer._gather_stack())
        for row, model in enumerate(models):
            for segment in trainer._segments:
                layer = model.dense_layers[segment["dense_index"]]
                expected = (
                    layer.effective_weights()
                    if segment["attribute"] == "weights"
                    else layer.effective_bias()
                )
                actual = effective[row, segment["slice"]].reshape(segment["shape"])
                assert actual.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_adam_step_scalar_rate_matches_column_rate(self):
        generator = np.random.default_rng(13)
        shape = (4, 9)
        grads = generator.standard_normal(shape)
        m, v = generator.standard_normal(shape), np.abs(generator.standard_normal(shape))
        column = (m.copy(), v.copy(), [np.empty(shape) for _ in range(3)])
        scalar = (m.copy(), v.copy(), [np.empty(shape) for _ in range(3)])
        by_column = _adam_step(
            grads, column[0], column[1], *column[2], np.full((4, 1), 0.02), 0.9, 0.999, 1e-8, 2
        )
        by_scalar = _adam_step(grads, scalar[0], scalar[1], *scalar[2], 0.02, 0.9, 0.999, 1e-8, 2)
        assert by_column.tobytes() == by_scalar.tobytes()
        assert column[0].tobytes() == scalar[0].tobytes()
        assert column[1].tobytes() == scalar[1].tobytes()

    def test_stacked_adam_rows_match_serial_adam(self):
        generator = np.random.default_rng(14)
        rates = [0.001, 0.01, 0.1]
        start = generator.standard_normal((3, 12))
        grads = [generator.standard_normal((3, 12)) for _ in range(5)]
        stacked_params = start.copy()
        stacked = StackedAdam(rates)
        for grad in grads:
            stacked.update(stacked_params, grad)
        for row, rate in enumerate(rates):
            param = start[row].copy()
            serial = Adam(learning_rate=rate)
            for grad in grads:
                serial.update([param], [grad[row].copy()])
            assert param.tobytes() == stacked_params[row].tobytes()

    def test_stacked_adam_compact_keeps_surviving_rows(self):
        generator = np.random.default_rng(15)
        rates = [0.003, 0.03, 0.3]
        start = generator.standard_normal((3, 6))
        grads = [generator.standard_normal((3, 6)) for _ in range(4)]
        params = start.copy()
        stacked = StackedAdam(rates)
        for grad in grads[:2]:
            stacked.update(params, grad)
        keep = np.array([0, 2])
        stacked.compact(keep)
        params = params[keep]
        for grad in grads[2:]:
            stacked.update(params, grad[keep])
        for position, row in enumerate(keep):
            param = start[row].copy()
            serial = Adam(learning_rate=rates[row])
            for grad in grads:
                serial.update([param], [grad[row].copy()])
            assert param.tobytes() == params[position].tobytes()

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_fused_adam_matches_per_parameter_loop(self, weight_decay):
        generator = np.random.default_rng(16)
        start = [generator.standard_normal((5, 3)), generator.standard_normal(3)]
        grads = [
            [generator.standard_normal((5, 3)), generator.standard_normal(3)] for _ in range(4)
        ]
        fused_params = [p.copy() for p in start]
        loop_params = [p.copy() for p in start]
        fused = Adam(learning_rate=0.05, weight_decay=weight_decay)
        loop = Adam(learning_rate=0.05, weight_decay=weight_decay, fused=False)
        for step in grads:
            fused.update(fused_params, step)
            loop.update(loop_params, step)
        for a, b in zip(fused_params, loop_params):
            assert a.tobytes() == b.tobytes()


# -- population simulator -------------------------------------------------------------


class TestPopulationSimulator:
    def test_population_accuracy_matches_serial(self, seeds_model, seeds_data):
        simulators = [
            FixedPointSimulator(seeds_model, BespokeConfig(input_bits=4, weight_bits=w))
            for w in (3, 4, 6)
        ]
        features, labels = seeds_data.test.features, seeds_data.test.labels
        batched = population_accuracy(simulators, features, labels)
        serial = np.array([sim.evaluate_accuracy(features, labels) for sim in simulators])
        assert np.array_equal(batched, serial)

    def test_tied_scores_pick_the_first_class(self, seeds_model, seeds_data):
        model = seeds_model.clone()
        for layer in model.dense_layers:
            layer.weights[...] = 0.0
            layer.bias[...] = 0.0
        simulator = FixedPointSimulator(model, BespokeConfig(input_bits=4, weight_bits=4))
        features, labels = seeds_data.test.features, seeds_data.test.labels
        accuracy = population_accuracy([simulator, simulator], features, labels)
        expected = np.mean(np.asarray(labels) == 0)
        assert accuracy.tolist() == [expected, expected]
        assert simulator.evaluate_accuracy(features, labels) == expected

    @pytest.mark.parametrize("input_bits", [2, 4, 8])
    def test_scores_match_simulate_batch(self, seeds_model, seeds_data, input_bits):
        simulators = [
            FixedPointSimulator(seeds_model, BespokeConfig(input_bits=input_bits, weight_bits=w))
            for w in (2, 5, 8)
        ]
        features = seeds_data.test.features
        scores = simulate_population(simulators, features)
        assert scores.shape[0] == len(simulators)
        for row, simulator in enumerate(simulators):
            expected = simulator.simulate_batch(features)
            assert scores[row].dtype == expected.dtype
            assert scores[row].tobytes() == expected.tobytes()


# -- NSGA-II --------------------------------------------------------------------------


class TestNsga2:
    def test_sort_and_crowding_match_reference(self, rng):
        objectives = rng.standard_normal((24, 2))
        objectives[5] = objectives[11]  # duplicated point exercises co-ranking
        assert fast_non_dominated_sort(objectives) == fast_non_dominated_sort_reference(
            objectives
        )
        assert (
            crowding_distance(objectives).tobytes()
            == crowding_distance_reference(objectives).tobytes()
        )

    def test_domination_matrix_matches_pairwise_definition(self, rng):
        objectives = rng.integers(0, 3, size=(9, 3)).astype(np.float64)  # many ties
        matrix = _domination_matrix(objectives)
        for i in range(len(objectives)):
            for j in range(len(objectives)):
                assert matrix[i, j] == dominates(objectives[i], objectives[j])

    @pytest.mark.parametrize("n_objectives", [2, 3, 4])
    def test_sort_and_crowding_match_reference_on_tied_grids(self, n_objectives):
        # Small integer grids: many duplicated points and tied coordinates.
        generator = np.random.default_rng(20 + n_objectives)
        objectives = generator.integers(0, 4, size=(30, n_objectives)).astype(np.float64)
        fronts = fast_non_dominated_sort(objectives)
        assert fronts == fast_non_dominated_sort_reference(objectives)
        for front in fronts:
            members = objectives[front]
            assert (
                crowding_distance(members).tobytes()
                == crowding_distance_reference(members).tobytes()
            )

    @pytest.mark.parametrize("n_points", [0, 1, 2])
    def test_tiny_fronts_match_reference(self, n_points):
        objectives = np.arange(2 * n_points, dtype=np.float64).reshape(n_points, 2)
        objectives[:, 1] = -objectives[:, 1]  # mutually non-dominated
        assert fast_non_dominated_sort(objectives) == fast_non_dominated_sort_reference(
            objectives
        )
        assert (
            crowding_distance(objectives).tobytes()
            == crowding_distance_reference(objectives).tobytes()
        )

    @pytest.mark.parametrize("n_objectives", [2, 3])
    def test_rank_matches_reference_composition(self, n_objectives):
        objectives = np.random.default_rng(30 + n_objectives).standard_normal(
            (30, n_objectives)
        )
        expected = [None] * len(objectives)
        for front_index, front in enumerate(fast_non_dominated_sort_reference(objectives)):
            distances = crowding_distance_reference(objectives[front])
            for position, index in enumerate(front):
                expected[index] = (front_index, -float(distances[position]))
        assert nsga2_rank(objectives) == expected

    def test_survivors_are_the_best_ranked(self, rng):
        objectives = rng.standard_normal((30, 3))
        keys = nsga2_rank(objectives)
        survivors = select_survivors(objectives, 12)
        assert len(set(survivors)) == 12
        worst_kept = max(keys[i] for i in survivors)
        assert all(keys[i] >= worst_kept for i in set(range(30)) - set(survivors))
        assert survivors == sorted(range(30), key=lambda i: keys[i])[:12]

    def test_domination_matrix_is_a_strict_partial_order(self, rng):
        objectives = rng.integers(0, 3, size=(12, 2)).astype(np.float64)
        matrix = _domination_matrix(objectives)
        assert not matrix.diagonal().any()  # irreflexive, duplicates included
        assert not (matrix & matrix.T).any()  # antisymmetric
        # transitive: i > j and j > k imply i > k
        through = (matrix.astype(int) @ matrix.astype(int)) > 0
        assert not (through & ~matrix).any()


# -- Monte-Carlo fault injection ------------------------------------------------------


class TestMonteCarlo:
    @pytest.fixture(scope="class")
    def simulator(self, seeds_model):
        return FixedPointSimulator(seeds_model, BespokeConfig(input_bits=4, weight_bits=4))

    @pytest.mark.parametrize("fault_model", ["open", "short", "level_shift"])
    def test_single_simulator_matches_reference(self, simulator, seeds_data, fault_model):
        config = FaultInjectionConfig(
            fault_rate=0.08, fault_model=fault_model, n_trials=5, seed=3
        )
        features, labels = seeds_data.test.features, seeds_data.test.labels
        vectorized = monte_carlo_fault_injection(simulator, features, labels, config)
        reference = monte_carlo_fault_injection_reference(simulator, features, labels, config)
        assert vectorized.accuracy_per_trial == reference.accuracy_per_trial
        assert vectorized.faults_per_trial == reference.faults_per_trial
        assert vectorized.fault_free_accuracy == reference.fault_free_accuracy

    def test_draws_are_big_endian_uint64(self):
        config = FaultInjectionConfig(seed=11)
        draws = _draw_matrix(config, [0, 4], 3)
        assert draws.dtype == np.uint64 and draws.shape == (2, 3)
        for row, trial in enumerate([0, 4]):
            raw = _trial_draws(fault_trial_seed(config.seed, trial), 3)
            expected = [int.from_bytes(raw[8 * k : 8 * k + 8], "big") for k in range(3)]
            assert draws[row].tolist() == expected

    def test_sites_hit_are_the_smallest_keys(self, rng):
        eligible = np.array([2, 3, 5, 7, 11, 13, 17, 19])
        site = _FaultSite(eligible=eligible, n_hit=3, extreme=7, is_bias=False)
        draws = rng.integers(0, 2**63, size=(6, eligible.size + site.n_hit), dtype=np.uint64)
        config = FaultInjectionConfig(fault_model="open")
        [(indices, values)] = _sample_patterns(draws, [site], [np.ones(20)], config)
        for row in range(draws.shape[0]):
            smallest = np.argsort(draws[row, : eligible.size])[: site.n_hit]
            assert indices[row].tolist() == sorted(eligible[smallest].tolist())
        assert not values.any()

    @pytest.mark.parametrize("fault_rate", [0.0, 0.3])
    @pytest.mark.parametrize("fault_model", ["open", "short", "level_shift"])
    def test_matches_reference_at_edge_rates(
        self, simulator, seeds_data, fault_model, fault_rate
    ):
        config = FaultInjectionConfig(
            fault_rate=fault_rate, fault_model=fault_model, n_trials=4, seed=5
        )
        features, labels = seeds_data.test.features, seeds_data.test.labels
        vectorized = monte_carlo_fault_injection(simulator, features, labels, config)
        reference = monte_carlo_fault_injection_reference(simulator, features, labels, config)
        assert vectorized.accuracy_per_trial == reference.accuracy_per_trial
        assert vectorized.faults_per_trial == reference.faults_per_trial
        if fault_rate == 0.0:
            assert set(vectorized.accuracy_per_trial) == {vectorized.fault_free_accuracy}

    @pytest.mark.parametrize("fault_model", ["open", "short", "level_shift"])
    def test_bias_faults_match_reference(self, simulator, seeds_data, fault_model):
        config = FaultInjectionConfig(
            fault_rate=0.2, fault_model=fault_model, n_trials=5, seed=8, include_bias=True
        )
        features, labels = seeds_data.test.features, seeds_data.test.labels
        vectorized = monte_carlo_fault_injection(simulator, features, labels, config)
        reference = monte_carlo_fault_injection_reference(simulator, features, labels, config)
        assert vectorized.accuracy_per_trial == reference.accuracy_per_trial
        assert vectorized.faults_per_trial == reference.faults_per_trial

    @pytest.mark.parametrize("fault_model", ["open", "short", "level_shift"])
    def test_population_matches_single_simulator_kernel(
        self, seeds_model, seeds_data, fault_model
    ):
        simulators = [
            FixedPointSimulator(seeds_model, BespokeConfig(input_bits=4, weight_bits=w))
            for w in (3, 6)
        ]
        configs = [
            FaultInjectionConfig(fault_rate=0.1, fault_model=fault_model, n_trials=4, seed=s)
            for s in (1, 2)
        ]
        features, labels = seeds_data.test.features, seeds_data.test.labels
        batched = monte_carlo_population(simulators, features, labels, configs)
        for result, simulator, config in zip(batched, simulators, configs):
            single = monte_carlo_fault_injection(simulator, features, labels, config)
            assert result.accuracy_per_trial == single.accuracy_per_trial
            assert result.faults_per_trial == single.faults_per_trial
            assert result.fault_free_accuracy == single.fault_free_accuracy

    def test_draw_rows_do_not_depend_on_batching(self):
        config = FaultInjectionConfig(seed=17)
        batched = _draw_matrix(config, [0, 1, 2, 7], 5)
        for row, trial in enumerate([0, 1, 2, 7]):
            assert np.array_equal(batched[row], _draw_matrix(config, [trial], 5)[0])

    def test_short_faults_force_the_signed_extreme(self, rng):
        eligible = np.arange(10)
        site = _FaultSite(eligible=eligible, n_hit=4, extreme=7, is_bias=False)
        draws = rng.integers(0, 2**63, size=(8, eligible.size + site.n_hit), dtype=np.uint64)
        draws[:, eligible.size :: 2] |= np.uint64(1 << 63)  # some signs in each half
        config = FaultInjectionConfig(fault_model="short")
        [(_, values)] = _sample_patterns(draws, [site], [np.ones(10, dtype=np.int64)], config)
        signs = draws[:, eligible.size :]
        assert np.array_equal(values, np.where(signs < np.uint64(1 << 63), 7, -7))

    def test_level_shift_moves_one_level_and_clips(self, rng):
        eligible = np.arange(6)
        flat = np.array([3, -3, 0, 2, -1, 1], dtype=np.int64)
        site = _FaultSite(eligible=eligible, n_hit=6, extreme=3, is_bias=False)
        draws = rng.integers(0, 2**64, size=(5, eligible.size + site.n_hit), dtype=np.uint64)
        config = FaultInjectionConfig(fault_model="level_shift", level_shift_levels=1)
        [(indices, values)] = _sample_patterns(draws, [site], [flat], config)
        signs = draws[:, eligible.size :]
        directions = np.where(signs < np.uint64(1 << 63), 1, -1)
        assert np.array_equal(indices, np.broadcast_to(eligible, (5, 6)))
        assert np.array_equal(values, np.clip(flat[indices] + directions, -3, 3))
