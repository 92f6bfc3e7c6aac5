"""Unit tests for repro.nn.optimizers: convergence and state handling."""

import numpy as np
import pytest

from repro.nn.optimizers import Adam


def quadratic_gradient(params):
    """Gradient of f(p) = 0.5 * ||p - target||^2 with target = 3."""
    return [p - 3.0 for p in params]


def run_optimizer(optimizer, steps=300, start=10.0):
    params = [np.array([start, -start])]
    for _ in range(steps):
        grads = quadratic_gradient(params)
        optimizer.update(params, grads)
    return params[0]


class TestConvergence:
    def test_adam_converges(self):
        final = run_optimizer(Adam(learning_rate=0.1), steps=600)
        np.testing.assert_allclose(final, [3.0, 3.0], atol=1e-2)


class TestWeightDecay:
    def test_adam_weight_decay_shrinks_weights(self):
        params = [np.array([1.0])]
        optimizer = Adam(learning_rate=0.1, weight_decay=0.5)
        optimizer.update(params, [np.array([0.0])])
        assert params[0][0] < 1.0


class TestStateHandling:
    def test_updates_are_in_place(self):
        params = [np.zeros(3)]
        reference = params[0]
        Adam(learning_rate=0.1).update(params, [np.ones(3)])
        assert params[0] is reference
        assert np.all(reference != 0.0)

    def test_adam_bias_correction_first_step(self):
        params = [np.array([0.0])]
        optimizer = Adam(learning_rate=0.1)
        optimizer.update(params, [np.array([1.0])])
        # With bias correction the first step magnitude equals the lr.
        assert params[0][0] == pytest.approx(-0.1, rel=1e-6)

    def test_reset_state_clears_momentum(self):
        optimizer = Adam(learning_rate=0.1)
        params = [np.array([1.0])]
        optimizer.update(params, [np.array([1.0])])
        optimizer.reset_state()
        assert optimizer._flat is None
        assert optimizer._state == {}

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Adam().update([np.zeros(2)], [])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            Adam().update([np.zeros(2)], [np.zeros(3)])


class TestValidation:
    @pytest.mark.parametrize("bad_lr", [0.0, -1.0])
    def test_invalid_learning_rate(self, bad_lr):
        with pytest.raises(ValueError):
            Adam(learning_rate=bad_lr)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam(beta1=1.0)
        with pytest.raises(ValueError):
            Adam(beta2=-0.1)

    @pytest.mark.parametrize("bad_epsilon", [0.0, -1e-8])
    def test_invalid_epsilon(self, bad_epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            Adam(epsilon=bad_epsilon)

    def test_invalid_weight_decay(self):
        with pytest.raises(ValueError, match="weight_decay"):
            Adam(weight_decay=-0.1)


def textbook_adam(param, gradients, lr, beta1, beta2, epsilon):
    """Kingma & Ba's Algorithm 1, one parameter, no weight decay."""
    m = np.zeros_like(param)
    v = np.zeros_like(param)
    for t, grad in enumerate(gradients, start=1):
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad**2
        param = param - lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + epsilon)
    return param


def random_steps(seed, shapes, n_steps):
    generator = np.random.default_rng(seed)
    params = [generator.normal(size=shape) for shape in shapes]
    steps = [[generator.normal(size=shape) for shape in shapes] for _ in range(n_steps)]
    return params, steps


class TestTrajectories:
    def test_matches_textbook_algorithm(self):
        params, steps = random_steps(0, [(3, 2)], 6)
        expected = textbook_adam(
            params[0].copy(), [grads[0] for grads in steps], 0.05, 0.9, 0.999, 1e-8
        )
        optimizer = Adam(learning_rate=0.05)
        for grads in steps:
            optimizer.update(params, grads)
        np.testing.assert_allclose(params[0], expected, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_fused_and_per_parameter_paths_bit_identical(self, weight_decay):
        shapes = [(4, 3), (3,), (3, 2), (2,)]
        fused_params, steps = random_steps(1, shapes, 8)
        loop_params = [p.copy() for p in fused_params]
        fused = Adam(learning_rate=0.02, weight_decay=weight_decay)
        loop = Adam(learning_rate=0.02, weight_decay=weight_decay, fused=False)
        for grads in steps:
            fused.update(fused_params, grads)
            loop.update(loop_params, grads)
        for a, b in zip(fused_params, loop_params):
            assert a.tobytes() == b.tobytes()

    def test_changed_parameter_list_keeps_moments(self):
        shapes = [(3, 3), (3,)]
        fused_params, steps = random_steps(2, shapes, 6)
        loop_params = [p.copy() for p in fused_params]
        fused = Adam(learning_rate=0.02)
        loop = Adam(learning_rate=0.02, fused=False)
        for index, grads in enumerate(steps):
            # From step 3 on only the first array is updated: the fused
            # optimizer falls back to the per-parameter path mid-stream.
            count = 2 if index < 3 else 1
            fused.update(fused_params[:count], grads[:count])
            loop.update(loop_params[:count], grads[:count])
        for a, b in zip(fused_params, loop_params):
            assert a.tobytes() == b.tobytes()

