"""Gradient-descent optimizers.

The optimizers operate on lists of parameter/gradient array pairs, which is
how :class:`repro.nn.network.MLP` exposes its layers. Updates are in-place so
that layer hooks (masks, quantizers) keep pointing at the same arrays.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np


class Optimizer:
    """Base optimizer: subclasses implement :meth:`update`."""

    def __init__(self, learning_rate: float = 0.01) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = float(learning_rate)

    def update(
        self, parameters: Sequence[np.ndarray], gradients: Sequence[np.ndarray]
    ) -> None:
        """Apply one update step in place."""
        raise NotImplementedError

    def reset_state(self) -> None:
        """Clear any accumulated state (momentum buffers etc.)."""


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015) with bias correction.

    When the same parameter list is passed on every call (the trainer's
    usage), the update is fused across one flattened buffer: moments live in
    two flat arrays and the whole step is a handful of in-place vector ops
    instead of per-parameter numpy round-trips. Adam is element-wise, so the
    fused step applies the exact float operation sequence of the per-array
    loop and the trajectories are bit-identical (see
    ``tests/test_perf_fastpaths.py``). Pass ``fused=False`` to force the
    historical per-parameter loop.
    """

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        weight_decay: float = 0.0,
        fused: bool = True,
    ) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0:
            raise ValueError(f"beta1 must be in [0, 1), got {beta1}")
        if not 0.0 <= beta2 < 1.0:
            raise ValueError(f"beta2 must be in [0, 1), got {beta2}")
        if epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if weight_decay < 0.0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.weight_decay = float(weight_decay)
        self.fused = bool(fused)
        self._state: Dict[int, Tuple[np.ndarray, np.ndarray, int]] = {}
        self._flat: "dict | None" = None

    def update(
        self, parameters: Sequence[np.ndarray], gradients: Sequence[np.ndarray]
    ) -> None:
        _check_aligned(parameters, gradients)
        if self.fused:
            flat = self._flat
            if (
                flat is not None
                and len(parameters) == len(flat["params"])
                # Identity against the arrays the flat state was built for
                # (held strongly in the state, so a freed array's id can
                # never be recycled into a false match).
                and all(p is q for p, q in zip(parameters, flat["params"]))
            ):
                self._update_fused(flat, parameters, gradients)
                return
            if flat is None and not any(id(p) in self._state for p in parameters):
                self._flat = self._init_flat(parameters)
                self._update_fused(self._flat, parameters, gradients)
                return
            # The parameter list changed mid-stream: fold the fused moments
            # back into the per-parameter store and continue on the legacy
            # path, which handles arbitrary call patterns.
            if flat is not None:
                self._defuse(flat)
        self._update_legacy(parameters, gradients)

    def _update_legacy(
        self, parameters: Sequence[np.ndarray], gradients: Sequence[np.ndarray]
    ) -> None:
        for param, grad in zip(parameters, gradients):
            grad = grad + self.weight_decay * param if self.weight_decay else grad
            key = id(param)
            m, v, t = self._state.get(
                key, (np.zeros_like(param), np.zeros_like(param), 0)
            )
            if m.shape != param.shape:
                m, v, t = np.zeros_like(param), np.zeros_like(param), 0
            t += 1
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * (grad * grad)
            self._state[key] = (m, v, t)
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

    @staticmethod
    def _init_flat(parameters: Sequence[np.ndarray]) -> dict:
        sizes = [p.size for p in parameters]
        total = int(sum(sizes))
        offsets = []
        offset = 0
        for size in sizes:
            offsets.append(offset)
            offset += size
        return {
            "params": list(parameters),
            "shapes": [p.shape for p in parameters],
            "slices": [
                slice(o, o + s) for o, s in zip(offsets, sizes)
            ],
            "m": np.zeros(total),
            "v": np.zeros(total),
            "t": 0,
            "grad": np.empty(total),
            "sq": np.empty(total),
            "step": np.empty(total),
            "denom": np.empty(total),
        }

    def _update_fused(
        self,
        flat: dict,
        parameters: Sequence[np.ndarray],
        gradients: Sequence[np.ndarray],
    ) -> None:
        g = flat["grad"]
        for sl, grad in zip(flat["slices"], gradients):
            g[sl] = grad.reshape(-1)
        if self.weight_decay:
            for sl, param in zip(flat["slices"], parameters):
                g[sl] += self.weight_decay * param.reshape(-1)
        flat["t"] = t = flat["t"] + 1
        step = _adam_step(
            g, flat["m"], flat["v"], flat["step"], flat["sq"], flat["denom"],
            self.learning_rate, self.beta1, self.beta2, self.epsilon, t,
        )
        for sl, param, shape in zip(flat["slices"], parameters, flat["shapes"]):
            param -= step[sl].reshape(shape)

    def _defuse(self, flat: dict) -> None:
        """Move fused moments into the per-parameter store, preserving steps."""
        for param, sl, shape in zip(flat["params"], flat["slices"], flat["shapes"]):
            self._state[id(param)] = (
                flat["m"][sl].reshape(shape).copy(),
                flat["v"][sl].reshape(shape).copy(),
                flat["t"],
            )
        self._flat = None

    def reset_state(self) -> None:
        self._state.clear()
        self._flat = None


class StackedAdam:
    """Adam over a population axis: one ``(G, P)`` buffer updates G models at once.

    The stacked population trainer (:mod:`repro.nn.stacked`) keeps every
    genome's parameters flattened into one row of a ``(G, P)`` matrix. This
    optimizer applies :class:`Adam`'s fused update to the whole matrix with
    the exact per-element float sequence of the single-model fused path, so
    row ``g`` evolves bit-identically to a fresh ``Adam`` updating genome
    ``g`` alone — provided all rows step in lockstep (which the stacked
    trainer guarantees by evicting early-stopped genomes from the stack).

    Per-genome learning rates are supported (the trainer's per-genome LR
    decay) as a ``(G, 1)`` column broadcast: multiplying a row by its scalar
    learning rate is the same IEEE operation the scalar path performs.

    Args:
        learning_rates: per-genome learning rates, shape ``(G,)``.
        beta1 / beta2 / epsilon: Adam hyper-parameters (shared by all rows).
    """

    def __init__(
        self,
        learning_rates: Sequence[float],
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        rates = np.asarray(learning_rates, dtype=np.float64).reshape(-1, 1)
        if rates.size == 0 or np.any(rates <= 0):
            raise ValueError("learning_rates must be a non-empty positive vector")
        if not 0.0 <= beta1 < 1.0:
            raise ValueError(f"beta1 must be in [0, 1), got {beta1}")
        if not 0.0 <= beta2 < 1.0:
            raise ValueError(f"beta2 must be in [0, 1), got {beta2}")
        if epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.learning_rates = rates
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.t = 0
        self._m: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None
        self._step: Optional[np.ndarray] = None
        self._sq: Optional[np.ndarray] = None
        self._denom: Optional[np.ndarray] = None

    def update(self, parameters: np.ndarray, gradients: np.ndarray) -> None:
        """One in-place Adam step on the stacked ``(G, P)`` parameter matrix."""
        if parameters.shape != gradients.shape or parameters.ndim != 2:
            raise ValueError(
                f"parameters/gradients must be matching 2-D stacks, got "
                f"{parameters.shape} vs {gradients.shape}"
            )
        if parameters.shape[0] != self.learning_rates.shape[0]:
            raise ValueError(
                f"Stack has {parameters.shape[0]} rows but "
                f"{self.learning_rates.shape[0]} learning rates"
            )
        if self._m is None or self._m.shape != parameters.shape:
            self._m = np.zeros_like(parameters)
            self._v = np.zeros_like(parameters)
            self._step = np.empty_like(parameters)
            self._sq = np.empty_like(parameters)
            self._denom = np.empty_like(parameters)
        self.t += 1
        parameters -= _adam_step(
            gradients, self._m, self._v, self._step, self._sq, self._denom,
            self.learning_rates, self.beta1, self.beta2, self.epsilon, self.t,
        )

    def compact(self, keep: np.ndarray) -> None:
        """Drop state rows of evicted genomes (``keep`` indexes surviving rows)."""
        self.learning_rates = self.learning_rates[keep]
        if self._m is not None:
            self._m = self._m[keep]
            self._v = self._v[keep]
            self._step = np.empty_like(self._m)
            self._sq = np.empty_like(self._m)
            self._denom = np.empty_like(self._m)


def _adam_step(
    grads: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    step: np.ndarray,
    sq: np.ndarray,
    denom: np.ndarray,
    learning_rate,
    beta1: float,
    beta2: float,
    epsilon: float,
    t: int,
) -> np.ndarray:
    """The fused Adam sequence, in place: update ``m``/``v``, return ``step``.

    The caller subtracts the returned ``step`` buffer from its parameters.
    ``learning_rate`` is a scalar (:class:`Adam`) or a ``(G, 1)`` column
    (:class:`StackedAdam`); multiplying a row by its rate is the same IEEE
    operation either way. The per-element float sequence is the legacy
    loop's, staged through preallocated buffers:
    ``m = beta1*m + (1-beta1)*g``, ``v = beta2*v + (1-beta2)*g*g`` and
    ``(lr * (m / c1)) / (sqrt(v / c2) + eps)`` in the legacy expression's
    order.
    """
    np.multiply(grads, 1.0 - beta1, out=step)
    m *= beta1
    m += step
    np.multiply(grads, grads, out=sq)
    sq *= 1.0 - beta2
    v *= beta2
    v += sq
    np.divide(m, 1.0 - beta1**t, out=step)
    step *= learning_rate
    np.divide(v, 1.0 - beta2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += epsilon
    step /= denom
    return step


def _check_aligned(
    parameters: Sequence[np.ndarray], gradients: Sequence[np.ndarray]
) -> None:
    if len(parameters) != len(gradients):
        raise ValueError(
            f"Got {len(parameters)} parameters but {len(gradients)} gradients"
        )
    for param, grad in zip(parameters, gradients):
        if param.shape != grad.shape:
            raise ValueError(
                f"Parameter/gradient shape mismatch: {param.shape} vs {grad.shape}"
            )
