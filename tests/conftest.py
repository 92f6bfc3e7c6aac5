"""Shared fixtures for the test suite.

Expensive artefacts (trained baselines, prepared pipelines) are session-scoped
so the whole suite stays fast: the tiny Seeds classifier trains in well under
a second and is reused by every integration test that needs a realistic
trained model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MinimizationPipeline, PipelineConfig
from repro.datasets import load_dataset, prepare_split, train_val_test_split
from repro.hardware import egt_library
from repro.nn import build_mlp, train_classifier


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """A deterministic generator for tests that need random data."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def egt():
    """The EGT printed technology library."""
    return egt_library()


@pytest.fixture(scope="session")
def seeds_data():
    """Prepared (scaled, input-quantized) split of the Seeds stand-in dataset."""
    dataset = load_dataset("seeds")
    split = train_val_test_split(dataset, seed=0)
    return prepare_split(split, input_bits=4)


@pytest.fixture(scope="session")
def seeds_model(seeds_data):
    """A trained Seeds classifier (7-4-3 MLP) shared across tests.

    Tests must NOT mutate this model directly — clone it first.
    """
    model = build_mlp(7, (4,), 3, seed=0)
    train_classifier(
        model,
        seeds_data.train.features,
        seeds_data.train.labels,
        seeds_data.validation.features,
        seeds_data.validation.labels,
        epochs=60,
        batch_size=16,
        seed=0,
    )
    return model


@pytest.fixture(scope="session")
def fast_pipeline_config() -> PipelineConfig:
    """A reduced-cost pipeline configuration for integration tests."""
    return PipelineConfig(
        dataset="seeds",
        seed=0,
        train_epochs=40,
        finetune_epochs=5,
        bit_range=(2, 4, 6),
        sparsity_range=(0.2, 0.5),
        cluster_range=(2, 4),
    )


@pytest.fixture(scope="session")
def prepared_pipeline(fast_pipeline_config):
    """A prepared (trained + baseline-synthesized) pipeline on Seeds."""
    pipeline = MinimizationPipeline(fast_pipeline_config)
    pipeline.prepare()
    return pipeline


@pytest.fixture
def tiny_problem():
    """Fixture view of :func:`tiny_classification_problem` with the default seed.

    Tests use this fixture rather than ``from conftest import ...``:
    ``conftest.py`` is a pytest plugin, not a helper module.
    """
    return tiny_classification_problem(seed=0)


def tiny_classification_problem(seed: int = 0, n_samples: int = 120):
    """A small, well-separated 2-class problem usable for quick training tests."""
    generator = np.random.default_rng(seed)
    class0 = generator.normal(loc=-1.5, scale=0.6, size=(n_samples // 2, 4))
    class1 = generator.normal(loc=1.5, scale=0.6, size=(n_samples - n_samples // 2, 4))
    features = np.vstack([class0, class1])
    labels = np.array([0] * (n_samples // 2) + [1] * (n_samples - n_samples // 2))
    order = generator.permutation(n_samples)
    return features[order], labels[order]
