"""Surrogate regressors: cheap genome-cost predictors with uncertainty.

Two :class:`SurrogateModel` implementations, both numpy-only and fully
seeded:

* :class:`RidgeSurrogate` — ridge regression on degree-2 polynomial
  features, solved in closed form. The fast default: fitting is a few
  normal-equation solves, prediction a matrix product.
* :class:`MLPSurrogate` — a tiny one-hidden-layer MLP ensemble trained as
  one stacked ``(E, ...)`` tensor program through
  :class:`~repro.nn.optimizers.StackedAdam`, mirroring how the evaluation
  engine batches real QAT fine-tuning.

Both are bagged ensembles: every member fits a bootstrap resample, and the
spread of member predictions is the per-objective uncertainty the
search layer's optimistic prefilter consumes. Model fitting is a pure
function of ``(features, targets, seed)``.
"""

from __future__ import annotations

from typing import Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from ..nn.optimizers import StackedAdam


@runtime_checkable
class SurrogateModel(Protocol):
    """What the trainer and the search layer require of a surrogate.

    ``fit`` consumes ``(N, F)`` features against ``(N, K)`` targets and
    must be deterministic given its ``seed``; ``predict`` returns ``(N, K)``
    means and ``predict_with_uncertainty`` adds the ensemble's per-target
    standard deviation.
    """

    def fit(self, features: np.ndarray, targets: np.ndarray, seed: int = 0) -> "SurrogateModel":
        ...

    def predict(self, features: np.ndarray) -> np.ndarray:
        ...

    def predict_with_uncertainty(
        self, features: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        ...


def _as_training_matrices(features: np.ndarray, targets: np.ndarray):
    """Validate and coerce one ``fit`` call's inputs."""
    X = np.asarray(features, dtype=np.float64)
    Y = np.asarray(targets, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError(
            f"features/targets must be aligned 2-D matrices, got {X.shape} vs {Y.shape}"
        )
    if X.shape[0] == 0:
        raise ValueError("cannot fit a surrogate on zero samples")
    return X, Y


def _standardizer(X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Column means and (zero-safe) standard deviations of a matrix."""
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return mean, std


def _bootstrap_indices(
    rng: np.random.Generator, n_samples: int, member: int
) -> np.ndarray:
    """Member 0 trains on the full data; the rest on bootstrap resamples.

    Keeping one member on the exact training set anchors the ensemble mean
    near the full-data fit while the resampled members supply the spread.
    """
    if member == 0:
        return np.arange(n_samples)
    return rng.integers(0, n_samples, size=n_samples)


class RidgeSurrogate:
    """Bagged ridge regression on degree-2 polynomial features.

    Args:
        alpha: L2 penalty on every coefficient except the intercept.
        degree: 1 for plain linear features, 2 adds all pairwise products
            (including squares) — enough to capture bits x sparsity style
            interactions the cost models exhibit.
        n_members: bagged ensemble size (>= 2 so uncertainty is defined).
    """

    def __init__(self, alpha: float = 1e-3, degree: int = 2, n_members: int = 8) -> None:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if degree not in (1, 2):
            raise ValueError(f"degree must be 1 or 2, got {degree}")
        if n_members < 2:
            raise ValueError(f"n_members must be >= 2, got {n_members}")
        self.alpha = float(alpha)
        self.degree = int(degree)
        self.n_members = int(n_members)
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None
        self._weights: Optional[np.ndarray] = None  # (E, D, K)

    def _expand(self, X: np.ndarray) -> np.ndarray:
        """Standardize and polynomially expand ``(N, F)`` → ``(N, D)``."""
        Z = (X - self._mean) / self._std
        columns = [np.ones((Z.shape[0], 1)), Z]
        if self.degree == 2:
            n_features = Z.shape[1]
            pairs = [
                Z[:, i : i + 1] * Z[:, j : j + 1]
                for i in range(n_features)
                for j in range(i, n_features)
            ]
            if pairs:
                columns.append(np.concatenate(pairs, axis=1))
        return np.concatenate(columns, axis=1)

    def fit(self, features: np.ndarray, targets: np.ndarray, seed: int = 0) -> "RidgeSurrogate":
        """Closed-form fit of every ensemble member; returns ``self``."""
        X, Y = _as_training_matrices(features, targets)
        self._mean, self._std = _standardizer(X)
        design = self._expand(X)
        n_samples, n_basis = design.shape
        penalty = self.alpha * np.eye(n_basis)
        penalty[0, 0] = 0.0  # the intercept is never shrunk
        rng = np.random.default_rng(seed)
        weights = np.empty((self.n_members, n_basis, Y.shape[1]))
        for member in range(self.n_members):
            rows = _bootstrap_indices(rng, n_samples, member)
            A = design[rows]
            weights[member] = np.linalg.solve(A.T @ A + penalty, A.T @ Y[rows])
        self._weights = weights
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Ensemble-mean prediction, shape ``(N, K)``."""
        return self.predict_with_uncertainty(features)[0]

    def predict_with_uncertainty(
        self, features: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(mean, std)`` over ensemble members, each ``(N, K)``."""
        if self._weights is None:
            raise RuntimeError("surrogate is not fitted; call fit() first")
        design = self._expand(np.asarray(features, dtype=np.float64))
        stacked = np.einsum("nd,edk->enk", design, self._weights)
        return stacked.mean(axis=0), stacked.std(axis=0)


class MLPSurrogate:
    """Tiny stacked-MLP ensemble trained with :class:`StackedAdam`.

    Every ensemble member is a one-hidden-layer tanh MLP; all members train
    simultaneously as one ``(E, ...)`` batched tensor program whose flat
    ``(E, P)`` parameter matrix steps through the same fused
    :class:`~repro.nn.optimizers.StackedAdam` kernel the stacked QAT
    trainer uses.

    Args:
        hidden_units: hidden-layer width.
        n_members: ensemble size (>= 2 so uncertainty is defined).
        epochs: full-batch training epochs.
        learning_rate: Adam step size (shared by all members).
    """

    def __init__(
        self,
        hidden_units: int = 24,
        n_members: int = 4,
        epochs: int = 300,
        learning_rate: float = 0.02,
    ) -> None:
        if hidden_units < 1:
            raise ValueError(f"hidden_units must be >= 1, got {hidden_units}")
        if n_members < 2:
            raise ValueError(f"n_members must be >= 2, got {n_members}")
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.hidden_units = int(hidden_units)
        self.n_members = int(n_members)
        self.epochs = int(epochs)
        self.learning_rate = float(learning_rate)
        self._x_mean: Optional[np.ndarray] = None
        self._x_std: Optional[np.ndarray] = None
        self._y_mean: Optional[np.ndarray] = None
        self._y_std: Optional[np.ndarray] = None
        self._params: Optional[Tuple[np.ndarray, ...]] = None

    def _shapes(self, n_features: int, n_targets: int):
        E, H = self.n_members, self.hidden_units
        return ((E, n_features, H), (E, 1, H), (E, H, n_targets), (E, 1, n_targets))

    def _flatten(self, arrays) -> np.ndarray:
        return np.concatenate([a.reshape(self.n_members, -1) for a in arrays], axis=1)

    def _unflatten(self, flat: np.ndarray, shapes) -> Tuple[np.ndarray, ...]:
        arrays = []
        offset = 0
        for shape in shapes:
            size = int(np.prod(shape[1:]))
            arrays.append(flat[:, offset : offset + size].reshape(shape))
            offset += size
        return tuple(arrays)

    def _forward(self, params, X_stack: np.ndarray):
        """Batched forward pass: ``(E, N, F)`` inputs → ``(E, N, K)``."""
        W1, b1, W2, b2 = params
        hidden = np.tanh(np.matmul(X_stack, W1) + b1)
        return np.matmul(hidden, W2) + b2, hidden

    def fit(self, features: np.ndarray, targets: np.ndarray, seed: int = 0) -> "MLPSurrogate":
        """Full-batch stacked training of the whole ensemble; returns ``self``."""
        X, Y = _as_training_matrices(features, targets)
        self._x_mean, self._x_std = _standardizer(X)
        self._y_mean, self._y_std = _standardizer(Y)
        Z = (X - self._x_mean) / self._x_std
        T = (Y - self._y_mean) / self._y_std
        n_samples, n_features = Z.shape
        shapes = self._shapes(n_features, T.shape[1])
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(n_features)
        params = (
            rng.normal(0.0, scale, size=shapes[0]),
            np.zeros(shapes[1]),
            rng.normal(0.0, 1.0 / np.sqrt(self.hidden_units), size=shapes[2]),
            np.zeros(shapes[3]),
        )
        # Each member trains on its own bootstrap view, stacked on axis 0.
        rows = np.stack(
            [_bootstrap_indices(rng, n_samples, member) for member in range(self.n_members)]
        )
        X_stack = Z[rows]  # (E, N, F)
        T_stack = T[rows]  # (E, N, K)
        flat = self._flatten(params)
        optimizer = StackedAdam(learning_rates=[self.learning_rate] * self.n_members)
        for _ in range(self.epochs):
            params = self._unflatten(flat, shapes)
            W1, b1, W2, b2 = params
            out, hidden = self._forward(params, X_stack)
            d_out = 2.0 * (out - T_stack) / n_samples  # (E, N, K)
            g_W2 = np.matmul(hidden.transpose(0, 2, 1), d_out)
            g_b2 = d_out.sum(axis=1, keepdims=True)
            d_hidden = np.matmul(d_out, W2.transpose(0, 2, 1)) * (1.0 - hidden**2)
            g_W1 = np.matmul(X_stack.transpose(0, 2, 1), d_hidden)
            g_b1 = d_hidden.sum(axis=1, keepdims=True)
            optimizer.update(flat, self._flatten((g_W1, g_b1, g_W2, g_b2)))
        self._params = self._unflatten(flat, shapes)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Ensemble-mean prediction, shape ``(N, K)``."""
        return self.predict_with_uncertainty(features)[0]

    def predict_with_uncertainty(
        self, features: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(mean, std)`` over ensemble members, each ``(N, K)``."""
        if self._params is None:
            raise RuntimeError("surrogate is not fitted; call fit() first")
        X = np.asarray(features, dtype=np.float64)
        Z = (X - self._x_mean) / self._x_std
        Z_stack = np.broadcast_to(Z, (self.n_members,) + Z.shape)
        out, _ = self._forward(self._params, np.ascontiguousarray(Z_stack))
        denormalized = out * self._y_std + self._y_mean
        return denormalized.mean(axis=0), denormalized.std(axis=0)


#: Registry of surrogate model names accepted by configs and the CLI.
SURROGATE_MODELS: Tuple[str, ...] = ("ridge", "mlp")


def create_surrogate(name: str, **kwargs) -> SurrogateModel:
    """Instantiate a registered surrogate model by name.

    Keyword arguments go to the model constructor.
    """
    if name == "ridge":
        return RidgeSurrogate(**kwargs)
    if name == "mlp":
        return MLPSurrogate(**kwargs)
    raise ValueError(f"unknown surrogate model '{name}'; choose from {SURROGATE_MODELS}")
