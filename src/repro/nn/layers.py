"""Layers for the NumPy MLP framework.

The only layer that matters for bespoke printed MLPs is :class:`Dense`;
:class:`ActivationLayer` and :class:`Dropout` exist so training pipelines can
be expressed as a flat list of layers, Keras-style.

:class:`Dense` carries two optional hooks that the minimization packages use:

* ``mask`` — a binary array the same shape as the weights; pruned connections
  are zeros in the mask. It is applied both in the forward pass and to the
  weight gradient, so fine-tuning never resurrects a pruned connection.
* ``weight_quantizer`` — a callable mapping the float weights to their
  fake-quantized values. During QAT the forward pass uses the quantized
  weights while gradients flow to the full-precision shadow weights
  (straight-through estimator).
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from .activations import Activation, get_activation
from .initializers import get_initializer


class Layer:
    """Base layer interface (forward / backward / parameter access)."""

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def parameters(self) -> List[np.ndarray]:
        """Trainable parameter arrays (may be empty)."""
        return []

    @property
    def gradients(self) -> List[np.ndarray]:
        """Gradient arrays aligned with :attr:`parameters`."""
        return []

    def __call__(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(inputs, training=training)


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``.

    Weights are stored as ``(n_inputs, n_outputs)`` so that row ``i`` holds
    every weight multiplied by input ``i`` — the "same position" grouping the
    paper's weight-clustering technique operates on.

    Args:
        n_inputs: number of input features.
        n_outputs: number of neurons.
        use_bias: whether to add a bias term. Bespoke implementations keep
            the bias (it is a hard-wired constant adder input).
        weight_initializer: registered initializer name for the weights.
        bias_initializer: registered initializer name for the bias.
        rng: generator used for initialization (a fresh default generator is
            created when omitted, which makes the layer non-reproducible).
    """

    def __init__(
        self,
        n_inputs: int,
        n_outputs: int,
        use_bias: bool = True,
        weight_initializer: str = "glorot_uniform",
        bias_initializer: str = "zeros",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if n_inputs <= 0 or n_outputs <= 0:
            raise ValueError(
                f"Dense layer dimensions must be positive, got ({n_inputs}, {n_outputs})"
            )
        rng = rng if rng is not None else np.random.default_rng()
        self.n_inputs = int(n_inputs)
        self.n_outputs = int(n_outputs)
        self.use_bias = bool(use_bias)

        self.weights = get_initializer(weight_initializer)((n_inputs, n_outputs), rng)
        self.bias = get_initializer(bias_initializer)((n_outputs,), rng)

        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)

        #: Binary pruning mask (1 = kept, 0 = pruned); ``None`` means no mask.
        self.mask: Optional[np.ndarray] = None
        #: Fake-quantization hook applied to the weights in the forward pass.
        self.weight_quantizer: Optional[Callable[[np.ndarray], np.ndarray]] = None
        #: Fake-quantization hook applied to the bias in the forward pass.
        self.bias_quantizer: Optional[Callable[[np.ndarray], np.ndarray]] = None

        self._last_input: Optional[np.ndarray] = None
        # Opt-in cache of the effective (masked + fake-quantized) parameters.
        # ``effective_weights()`` is a pure function of the weights/mask/
        # quantizer, but the training loop calls it several times per
        # optimizer step (forward, backward, per-epoch evaluation) while the
        # weights only change at ``optimizer.update()``. The trainer enables
        # the cache for the duration of ``fit()`` and invalidates it after
        # every update, so cached and uncached runs are bit-identical.
        self._effective_cache_enabled = False
        self._cached_effective_weights: Optional[np.ndarray] = None
        self._cached_effective_bias: Optional[np.ndarray] = None

    # -- effective parameters -------------------------------------------------

    def set_effective_cache(self, enabled: bool) -> None:
        """Enable/disable caching of the effective parameters (cleared either way).

        Whoever enables the cache owns invalidation: call
        :meth:`invalidate_effective_cache` after every in-place weight
        update. Outside a training loop the cache must stay disabled —
        pruning, clustering and direct weight edits do not invalidate it.
        """
        self._effective_cache_enabled = bool(enabled)
        self._cached_effective_weights = None
        self._cached_effective_bias = None

    def invalidate_effective_cache(self) -> None:
        """Drop cached effective parameters (after an optimizer step)."""
        self._cached_effective_weights = None
        self._cached_effective_bias = None

    def effective_weights(self) -> np.ndarray:
        """Weights as seen by the forward pass (mask and quantizer applied).

        This is also what the bespoke circuit generator hard-wires, so the
        area model and the accuracy evaluation always agree on the
        coefficients.
        """
        if self._effective_cache_enabled and self._cached_effective_weights is not None:
            return self._cached_effective_weights
        w = self.weights
        if self.mask is not None:
            w = w * self.mask
        if self.weight_quantizer is not None:
            w = self.weight_quantizer(w)
        if self._effective_cache_enabled:
            self._cached_effective_weights = w
        return w

    def effective_bias(self) -> np.ndarray:
        """Bias as seen by the forward pass (quantizer applied)."""
        if self._effective_cache_enabled and self._cached_effective_bias is not None:
            return self._cached_effective_bias
        b = self.bias
        if self.bias_quantizer is not None:
            b = self.bias_quantizer(b)
        if self._effective_cache_enabled:
            self._cached_effective_bias = b
        return b

    def quantizable_tensors(self):
        """The layer's parameter tensors with their fake-quantization hooks.

        Returns ``(attribute, array, quantizer, mask)`` tuples in the packing
        order shared by the trainer's per-step quant pack and the stacked
        population trainer — weights (with the pruning mask) first, then the
        bias. Both consumers derive their flat-buffer layout from this, so
        the packed pipelines can never disagree about segment order.
        """
        return (
            ("weights", self.weights, self.weight_quantizer, self.mask),
            ("bias", self.bias, self.bias_quantizer, None),
        )

    # -- forward / backward ---------------------------------------------------

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim == 1:
            inputs = inputs.reshape(1, -1)
        if inputs.shape[-1] != self.n_inputs:
            raise ValueError(
                f"Expected {self.n_inputs} input features, got {inputs.shape[-1]}"
            )
        if training:
            self._last_input = inputs
        out = inputs @ self.effective_weights()
        if self.use_bias:
            out = out + self.effective_bias()
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._last_input is None:
            raise RuntimeError(
                "backward() called before forward(training=True) on Dense layer"
            )
        grad_output = np.asarray(grad_output, dtype=np.float64)
        # Straight-through estimator: gradients are computed w.r.t. the
        # effective (quantized/masked) weights but applied to the shadow
        # weights, so the quantizer is treated as identity for the gradient.
        self.grad_weights = self._last_input.T @ grad_output
        if self.mask is not None:
            self.grad_weights = self.grad_weights * self.mask
        if self.use_bias:
            self.grad_bias = np.sum(grad_output, axis=0)
        return grad_output @ self.effective_weights().T

    # -- parameter access ------------------------------------------------------

    @property
    def parameters(self) -> List[np.ndarray]:
        if self.use_bias:
            return [self.weights, self.bias]
        return [self.weights]

    @property
    def gradients(self) -> List[np.ndarray]:
        if self.use_bias:
            return [self.grad_weights, self.grad_bias]
        return [self.grad_weights]

    def set_weights(self, weights: np.ndarray, bias: Optional[np.ndarray] = None) -> None:
        """Overwrite the layer parameters (shapes are validated)."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != self.weights.shape:
            raise ValueError(
                f"Weight shape mismatch: expected {self.weights.shape}, got {weights.shape}"
            )
        self.weights = weights.copy()
        if bias is not None:
            bias = np.asarray(bias, dtype=np.float64)
            if bias.shape != self.bias.shape:
                raise ValueError(
                    f"Bias shape mismatch: expected {self.bias.shape}, got {bias.shape}"
                )
            self.bias = bias.copy()

    def sparsity(self) -> float:
        """Fraction of *effective* weights that are exactly zero."""
        w = self.effective_weights()
        if w.size == 0:
            return 0.0
        return float(np.mean(w == 0.0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dense({self.n_inputs} -> {self.n_outputs}, bias={self.use_bias})"


class ActivationLayer(Layer):
    """Wraps an :class:`~repro.nn.activations.Activation` as a layer."""

    def __init__(self, activation: "Activation | str") -> None:
        if isinstance(activation, str):
            activation = get_activation(activation)
        self.activation = activation
        self._last_input: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if training:
            self._last_input = inputs
        return self.activation.forward(inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._last_input is None:
            raise RuntimeError(
                "backward() called before forward(training=True) on ActivationLayer"
            )
        return self.activation.backward(self._last_input, grad_output)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ActivationLayer({self.activation.name})"


class Dropout(Layer):
    """Inverted dropout; active only when ``training=True``."""

    def __init__(self, rate: float, rng: Optional[np.random.Generator] = None) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"Dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self._rng = rng if rng is not None else np.random.default_rng()
        self._last_mask: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if not training or self.rate == 0.0:
            self._last_mask = None
            return inputs
        keep = 1.0 - self.rate
        mask = (self._rng.random(inputs.shape) < keep) / keep
        self._last_mask = mask
        return inputs * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._last_mask is None:
            return grad_output
        return grad_output * self._last_mask

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dropout({self.rate})"
