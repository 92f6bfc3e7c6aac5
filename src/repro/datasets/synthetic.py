"""Synthetic classification-data generators.

The reproduction has no network access, so the UCI datasets the paper uses
are replaced by deterministic synthetic generators (see ``DESIGN.md``
section 2). Each generator draws class-conditional Gaussian clusters whose
separation, covariance structure, and class imbalance are tuned so a small
MLP reaches approximately the accuracy reported for the real dataset in the
printed-classifier literature. The minimization results only depend on those
aggregate properties, not on the identity of individual samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .base import Dataset


@dataclass
class GaussianClassSpec:
    """Specification of one class in a Gaussian-mixture dataset.

    Attributes:
        weight: relative class frequency (normalized across classes).
        n_clusters: number of Gaussian clusters composing the class.
        spread: per-feature standard deviation of each cluster.
    """

    weight: float = 1.0
    n_clusters: int = 1
    spread: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"class weight must be positive, got {self.weight}")
        if self.n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {self.n_clusters}")
        if self.spread <= 0:
            raise ValueError(f"spread must be positive, got {self.spread}")


@dataclass
class SyntheticSpec:
    """Full specification of a synthetic Gaussian-mixture dataset.

    Attributes:
        n_samples: total sample count.
        n_features: feature dimensionality.
        class_specs: one :class:`GaussianClassSpec` per class.
        class_separation: distance scale between class centroids; larger
            values give an easier (more accurate) problem.
        label_noise: fraction of samples whose label is replaced by a random
            other class, used to cap the achievable accuracy (the wine
            datasets are intrinsically noisy in exactly this way).
        feature_correlation: amount of shared latent structure between
            features (0 = independent features, 1 = strongly correlated).
        ordinal_classes: when True, centroids are laid out along a dominant
            direction so adjacent classes overlap most — mimicking ordinal
            targets such as wine-quality scores.
        seed: generator seed.
        name: dataset name recorded in the produced :class:`Dataset`.
    """

    n_samples: int
    n_features: int
    class_specs: Sequence[GaussianClassSpec]
    class_separation: float = 3.0
    label_noise: float = 0.0
    feature_correlation: float = 0.3
    ordinal_classes: bool = False
    seed: Optional[int] = None
    name: str = "synthetic"
    feature_names: Tuple[str, ...] = field(default_factory=tuple)
    class_names: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.n_samples < len(self.class_specs):
            raise ValueError("n_samples must be at least the number of classes")
        if self.n_features < 1:
            raise ValueError("n_features must be >= 1")
        if len(self.class_specs) < 2:
            raise ValueError("at least two classes are required")
        if not 0.0 <= self.label_noise < 1.0:
            raise ValueError("label_noise must be in [0, 1)")
        if not 0.0 <= self.feature_correlation <= 1.0:
            raise ValueError("feature_correlation must be in [0, 1]")

    @property
    def n_classes(self) -> int:
        return len(self.class_specs)


def _class_centroids(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw one centroid per class, separated by ``class_separation``."""
    n_classes, n_features = spec.n_classes, spec.n_features
    if spec.ordinal_classes:
        # Centroids advance along a shared random direction, plus a small
        # per-class offset: class k overlaps mostly with classes k-1 / k+1.
        direction = rng.normal(size=n_features)
        direction /= np.linalg.norm(direction)
        offsets = rng.normal(scale=0.35 * spec.class_separation, size=(n_classes, n_features))
        steps = np.arange(n_classes, dtype=np.float64).reshape(-1, 1)
        return steps * spec.class_separation * direction + offsets
    centroids = rng.normal(size=(n_classes, n_features))
    norms = np.linalg.norm(centroids, axis=1, keepdims=True)
    norms = np.where(norms == 0.0, 1.0, norms)
    return spec.class_separation * centroids / norms * np.sqrt(n_features) / 2.0


def _correlation_mixing(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Mixing matrix introducing correlation between features."""
    identity = np.eye(spec.n_features)
    if spec.feature_correlation == 0.0:
        return identity
    random_basis = rng.normal(size=(spec.n_features, spec.n_features))
    random_basis /= np.linalg.norm(random_basis, axis=0, keepdims=True)
    return (1.0 - spec.feature_correlation) * identity + spec.feature_correlation * random_basis


def generate_gaussian_mixture(spec: SyntheticSpec) -> Dataset:
    """Generate a dataset from a :class:`SyntheticSpec`.

    The same spec (including seed) always produces the identical dataset,
    which is what makes the experiment pipeline reproducible end-to-end.
    """
    rng = np.random.default_rng(spec.seed)
    centroids = _class_centroids(spec, rng)
    mixing = _correlation_mixing(spec, rng)

    weights = np.array([cs.weight for cs in spec.class_specs], dtype=np.float64)
    weights /= weights.sum()
    counts = np.floor(weights * spec.n_samples).astype(int)
    counts = np.maximum(counts, 1)
    # distribute the rounding remainder to the largest classes
    while counts.sum() < spec.n_samples:
        counts[int(np.argmax(weights))] += 1
    while counts.sum() > spec.n_samples:
        counts[int(np.argmax(counts))] -= 1

    feature_blocks = []
    label_blocks = []
    for cls, (class_spec, count) in enumerate(zip(spec.class_specs, counts)):
        cluster_offsets = rng.normal(
            scale=0.6 * spec.class_separation,
            size=(class_spec.n_clusters, spec.n_features),
        )
        assignments = rng.integers(0, class_spec.n_clusters, size=count)
        noise = rng.normal(scale=class_spec.spread, size=(count, spec.n_features))
        samples = centroids[cls] + cluster_offsets[assignments] + noise
        feature_blocks.append(samples)
        label_blocks.append(np.full(count, cls, dtype=int))

    features = np.vstack(feature_blocks) @ mixing.T
    labels = np.concatenate(label_blocks)

    if spec.label_noise > 0.0:
        n_noisy = int(round(spec.label_noise * labels.size))
        noisy_idx = rng.choice(labels.size, size=n_noisy, replace=False)
        shifts = rng.integers(1, spec.n_classes, size=n_noisy)
        labels[noisy_idx] = (labels[noisy_idx] + shifts) % spec.n_classes

    order = rng.permutation(labels.size)
    metadata = {
        "generator": "gaussian_mixture",
        "class_separation": spec.class_separation,
        "label_noise": spec.label_noise,
        "ordinal_classes": spec.ordinal_classes,
        "seed": spec.seed,
    }
    return Dataset(
        features=features[order],
        labels=labels[order],
        name=spec.name,
        feature_names=spec.feature_names
        or tuple(f"f{i}" for i in range(spec.n_features)),
        class_names=spec.class_names
        or tuple(f"class_{i}" for i in range(spec.n_classes)),
        metadata=metadata,
    )
