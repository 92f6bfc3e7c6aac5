"""The MLP container: a sequential stack of layers with a Keras-like API.

An :class:`MLP` is the single object every other package operates on:

* the trainer fits it,
* the quantization / pruning / clustering packages mutate its Dense layers'
  hooks (quantizers, masks) or weights,
* the bespoke package reads :meth:`MLP.dense_layers` and their
  ``effective_weights()`` to build the hard-wired circuit.

The convenience constructor :func:`build_mlp` creates the single-hidden-layer
ReLU topologies used by the printed-classifier literature.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .layers import ActivationLayer, Dense, Dropout, Layer
from .metrics import accuracy


class MLP:
    """A sequential multilayer perceptron.

    Args:
        layers: ordered layers. The final Dense layer is interpreted as the
            classifier head whose argmax gives the predicted class.
    """

    def __init__(self, layers: Optional[Iterable[Layer]] = None) -> None:
        self.layers: List[Layer] = list(layers) if layers is not None else []

    # -- construction ----------------------------------------------------------

    def add(self, layer: Layer) -> "MLP":
        """Append a layer and return ``self`` for chaining."""
        self.layers.append(layer)
        return self

    # -- inference -------------------------------------------------------------

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the full stack; returns raw output scores (logits)."""
        out = np.asarray(inputs, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate through the stack (requires a prior training forward)."""
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Return predicted class indices (argmax of the output scores)."""
        scores = self.forward(inputs, training=False)
        return np.argmax(scores, axis=-1)

    def predict_scores(self, inputs: np.ndarray) -> np.ndarray:
        """Return the raw per-class scores (no softmax)."""
        return self.forward(inputs, training=False)

    def evaluate_accuracy(self, inputs: np.ndarray, labels: np.ndarray) -> float:
        """Top-1 accuracy on ``(inputs, labels)``; labels may be one-hot."""
        return accuracy(labels, self.predict(inputs))

    def __call__(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(inputs, training=training)

    # -- parameters ------------------------------------------------------------

    @property
    def parameters(self) -> List[np.ndarray]:
        """All trainable parameter arrays, in layer order."""
        params: List[np.ndarray] = []
        for layer in self.layers:
            params.extend(layer.parameters)
        return params

    @property
    def gradients(self) -> List[np.ndarray]:
        """All gradient arrays, aligned with :attr:`parameters`."""
        grads: List[np.ndarray] = []
        for layer in self.layers:
            grads.extend(layer.gradients)
        return grads

    @property
    def dense_layers(self) -> List[Dense]:
        """The Dense layers only, in order (what minimization acts upon)."""
        return [layer for layer in self.layers if isinstance(layer, Dense)]

    def n_parameters(self) -> int:
        """Total number of trainable scalars."""
        return int(sum(p.size for p in self.parameters))

    def n_connections(self) -> int:
        """Number of weight connections (excluding biases)."""
        return int(sum(layer.weights.size for layer in self.dense_layers))

    def n_active_connections(self) -> int:
        """Number of connections whose effective weight is non-zero."""
        return int(
            sum(np.count_nonzero(layer.effective_weights()) for layer in self.dense_layers)
        )

    def sparsity(self) -> float:
        """Overall fraction of zero effective weights."""
        total = self.n_connections()
        if total == 0:
            return 0.0
        return 1.0 - self.n_active_connections() / total

    def topology(self) -> List[int]:
        """Layer widths ``[n_inputs, hidden..., n_outputs]`` of the Dense stack."""
        dense = self.dense_layers
        if not dense:
            return []
        sizes = [dense[0].n_inputs]
        sizes.extend(layer.n_outputs for layer in dense)
        return sizes

    # -- utilities ---------------------------------------------------------------

    def clone(self) -> "MLP":
        """Deep copy of the network (weights, masks and quantizer hooks included)."""
        return copy.deepcopy(self)

    def get_weights(self) -> List[Dict[str, np.ndarray]]:
        """Return ``[{'weights': W, 'bias': b}, ...]`` copies for the Dense layers."""
        return [
            {"weights": layer.weights.copy(), "bias": layer.bias.copy()}
            for layer in self.dense_layers
        ]

    def set_weights(self, weight_dicts: Sequence[Dict[str, np.ndarray]]) -> None:
        """Load weights produced by :meth:`get_weights` (order must match)."""
        dense = self.dense_layers
        if len(weight_dicts) != len(dense):
            raise ValueError(
                f"Expected weights for {len(dense)} Dense layers, got {len(weight_dicts)}"
            )
        for layer, entry in zip(dense, weight_dicts):
            layer.set_weights(entry["weights"], entry.get("bias"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        topo = "-".join(str(n) for n in self.topology())
        return f"MLP(topology={topo}, params={self.n_parameters()})"


def build_mlp(
    n_inputs: int,
    hidden_layers: Sequence[int],
    n_outputs: int,
    hidden_activation: str = "relu",
    dropout: float = 0.0,
    use_bias: bool = True,
    weight_initializer: str = "glorot_uniform",
    seed: Optional[int] = None,
) -> MLP:
    """Build a standard printed-classifier MLP.

    The resulting stack is ``[Dense, Activation]`` per hidden layer followed
    by a linear Dense output layer (argmax is applied at prediction time, and
    in hardware by a comparator tree).

    Args:
        n_inputs: number of input features.
        hidden_layers: widths of the hidden layers (may be empty for a
            single-layer perceptron).
        n_outputs: number of classes.
        hidden_activation: registered activation name for hidden layers.
        dropout: dropout rate applied after every hidden activation.
        use_bias: whether Dense layers carry biases.
        weight_initializer: initializer name for all Dense layers.
        seed: seed for reproducible initialization.
    """
    if n_inputs <= 0 or n_outputs <= 0:
        raise ValueError("n_inputs and n_outputs must be positive")
    rng = np.random.default_rng(seed)
    mlp = MLP()
    previous = n_inputs
    for width in hidden_layers:
        if width <= 0:
            raise ValueError(f"Hidden layer width must be positive, got {width}")
        mlp.add(
            Dense(
                previous,
                width,
                use_bias=use_bias,
                weight_initializer=weight_initializer,
                rng=rng,
            )
        )
        mlp.add(ActivationLayer(hidden_activation))
        if dropout > 0.0:
            mlp.add(Dropout(dropout, rng=rng))
        previous = width
    mlp.add(
        Dense(
            previous,
            n_outputs,
            use_bias=use_bias,
            weight_initializer=weight_initializer,
            rng=rng,
        )
    )
    return mlp
