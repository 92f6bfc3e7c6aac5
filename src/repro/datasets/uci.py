"""Synthetic stand-ins for the four UCI datasets used in the paper.

The paper evaluates on WhiteWine, RedWine, Pendigits and Seeds from the UCI
ML repository. Those files cannot be downloaded in this environment, so each
loader below generates a synthetic dataset matching the real dataset's

* dimensionality and number of classes,
* approximate sample count and class balance (the wine-quality datasets are
  heavily imbalanced and ordinal; Pendigits and Seeds are balanced),
* approximate difficulty: the generator parameters are calibrated so a small
  MLP reaches roughly the accuracy reported for the real data by the printed
  classifier literature (wine ≈ 0.55–0.62, Pendigits ≈ 0.93–0.96,
  Seeds ≈ 0.88–0.93).

Every loader is deterministic given its seed; the experiment pipeline passes
fixed seeds so that Figure/Table reproductions are repeatable.
"""

from __future__ import annotations

from typing import Optional

from .base import Dataset
from .synthetic import GaussianClassSpec, SyntheticSpec, generate_gaussian_mixture

#: Physico-chemical feature names shared by both wine datasets.
_WINE_FEATURES = (
    "fixed_acidity",
    "volatile_acidity",
    "citric_acid",
    "residual_sugar",
    "chlorides",
    "free_sulfur_dioxide",
    "total_sulfur_dioxide",
    "density",
    "pH",
    "sulphates",
    "alcohol",
)


def load_whitewine(n_samples: int = 2400, seed: Optional[int] = 11) -> Dataset:
    """WhiteWine quality stand-in: 11 features, 7 ordinal quality classes.

    The real dataset has 4898 samples with qualities 3–9 and a strong
    concentration on the middle grades; the default ``n_samples`` is reduced
    to keep NumPy training times short while preserving the class balance.
    """
    # Class weights follow the real quality histogram (3..9):
    # 20, 163, 1457, 2198, 880, 175, 5  ->  normalized below.
    weights = [0.004, 0.033, 0.298, 0.449, 0.180, 0.035, 0.001]
    spec = SyntheticSpec(
        n_samples=n_samples,
        n_features=11,
        class_specs=[
            GaussianClassSpec(weight=w, n_clusters=2, spread=1.35) for w in weights
        ],
        class_separation=1.5,
        label_noise=0.30,
        feature_correlation=0.45,
        ordinal_classes=True,
        seed=seed,
        name="whitewine",
        feature_names=_WINE_FEATURES,
        class_names=tuple(f"quality_{q}" for q in range(3, 10)),
    )
    return generate_gaussian_mixture(spec)


def load_redwine(n_samples: int = 1599, seed: Optional[int] = 17) -> Dataset:
    """RedWine quality stand-in: 11 features, 6 ordinal quality classes."""
    # Real histogram (qualities 3..8): 10, 53, 681, 638, 199, 18.
    weights = [0.006, 0.033, 0.426, 0.399, 0.124, 0.011]
    spec = SyntheticSpec(
        n_samples=n_samples,
        n_features=11,
        class_specs=[
            GaussianClassSpec(weight=w, n_clusters=2, spread=1.3) for w in weights
        ],
        class_separation=1.6,
        label_noise=0.28,
        feature_correlation=0.45,
        ordinal_classes=True,
        seed=seed,
        name="redwine",
        feature_names=_WINE_FEATURES,
        class_names=tuple(f"quality_{q}" for q in range(3, 9)),
    )
    return generate_gaussian_mixture(spec)


def load_pendigits(n_samples: int = 3000, seed: Optional[int] = 23) -> Dataset:
    """Pendigits stand-in: 16 resampled pen-trajectory coordinates, 10 digits.

    The real dataset (10992 samples) is nearly balanced and well separable;
    the generator uses distinct, weakly overlapping clusters per digit so a
    16-8-10 MLP reaches the mid-90 % accuracy regime.
    """
    spec = SyntheticSpec(
        n_samples=n_samples,
        n_features=16,
        class_specs=[
            GaussianClassSpec(weight=1.0, n_clusters=2, spread=0.9) for _ in range(10)
        ],
        class_separation=3.3,
        label_noise=0.02,
        feature_correlation=0.25,
        ordinal_classes=False,
        seed=seed,
        name="pendigits",
        feature_names=tuple(
            f"{axis}{i}" for i in range(1, 9) for axis in ("x", "y")
        ),
        class_names=tuple(f"digit_{d}" for d in range(10)),
    )
    return generate_gaussian_mixture(spec)


def load_seeds(n_samples: int = 210, seed: Optional[int] = 31) -> Dataset:
    """Seeds stand-in: 7 geometric kernel measurements, 3 balanced wheat varieties."""
    spec = SyntheticSpec(
        n_samples=n_samples,
        n_features=7,
        class_specs=[
            GaussianClassSpec(weight=1.0, n_clusters=1, spread=1.0) for _ in range(3)
        ],
        class_separation=3.6,
        label_noise=0.04,
        feature_correlation=0.5,
        ordinal_classes=False,
        seed=seed,
        name="seeds",
        feature_names=(
            "area",
            "perimeter",
            "compactness",
            "kernel_length",
            "kernel_width",
            "asymmetry",
            "groove_length",
        ),
        class_names=("kama", "rosa", "canadian"),
    )
    return generate_gaussian_mixture(spec)
