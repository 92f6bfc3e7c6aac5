"""Tests for the synthetic generators and the UCI stand-in loaders/registry."""

import numpy as np
import pytest

from repro.datasets.registry import (
    PAPER_DATASETS,
    ClassifierSpec,
    available_datasets,
    get_classifier_spec,
    load_dataset,
    normalize_name,
    register_dataset,
)
from repro.datasets.synthetic import (
    GaussianClassSpec,
    SyntheticSpec,
    generate_gaussian_mixture,
)
from repro.datasets.uci import (
    load_pendigits,
    load_redwine,
    load_seeds,
    load_whitewine,
)


def make_blobs(n_samples, n_features, n_classes, class_separation=3.0, seed=None, name="blobs"):
    """Balanced, equal-spread Gaussian classes."""
    return generate_gaussian_mixture(
        SyntheticSpec(
            n_samples=n_samples,
            n_features=n_features,
            class_specs=[GaussianClassSpec() for _ in range(n_classes)],
            class_separation=class_separation,
            seed=seed,
            name=name,
        )
    )


class TestSyntheticGenerator:
    def test_sample_count_exact(self):
        data = make_blobs(n_samples=137, n_features=3, n_classes=4, seed=0)
        assert data.n_samples == 137

    def test_determinism(self):
        a = make_blobs(100, 5, 3, seed=9)
        b = make_blobs(100, 5, 3, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seed_different_data(self):
        a = make_blobs(100, 5, 3, seed=1)
        b = make_blobs(100, 5, 3, seed=2)
        assert not np.array_equal(a.features, b.features)

    def test_all_classes_present(self):
        data = make_blobs(60, 4, 6, seed=0)
        assert set(np.unique(data.labels)) == set(range(6))

    def test_class_weights_respected(self):
        spec = SyntheticSpec(
            n_samples=1000,
            n_features=2,
            class_specs=[GaussianClassSpec(weight=0.8), GaussianClassSpec(weight=0.2)],
            seed=0,
        )
        data = generate_gaussian_mixture(spec)
        balance = data.class_balance()
        assert abs(balance[0] - 0.8) < 0.05

    def test_label_noise_caps_separability(self):
        clean = generate_gaussian_mixture(
            SyntheticSpec(
                n_samples=400,
                n_features=4,
                class_specs=[GaussianClassSpec(), GaussianClassSpec()],
                class_separation=6.0,
                label_noise=0.0,
                seed=0,
            )
        )
        noisy = generate_gaussian_mixture(
            SyntheticSpec(
                n_samples=400,
                n_features=4,
                class_specs=[GaussianClassSpec(), GaussianClassSpec()],
                class_separation=6.0,
                label_noise=0.4,
                seed=0,
            )
        )
        # Nearest-centroid classification degrades with label noise.
        def centroid_accuracy(data):
            centroids = np.array(
                [data.features[data.labels == c].mean(axis=0) for c in range(2)]
            )
            distances = np.linalg.norm(
                data.features[:, None, :] - centroids[None, :, :], axis=2
            )
            return float(np.mean(np.argmin(distances, axis=1) == data.labels))

        assert centroid_accuracy(noisy) < centroid_accuracy(clean) - 0.1

    def test_separation_increases_separability(self):
        def spread(sep):
            data = make_blobs(300, 4, 3, class_separation=sep, seed=3)
            centroids = np.array(
                [data.features[data.labels == c].mean(axis=0) for c in range(3)]
            )
            return np.linalg.norm(centroids[0] - centroids[1])

        assert spread(6.0) > spread(1.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_samples=1, n_features=2, class_specs=[GaussianClassSpec()] * 2)
        with pytest.raises(ValueError):
            SyntheticSpec(n_samples=10, n_features=2, class_specs=[GaussianClassSpec()])
        with pytest.raises(ValueError):
            GaussianClassSpec(weight=0.0)
        with pytest.raises(ValueError):
            GaussianClassSpec(spread=-1.0)


class TestUCIStandIns:
    @pytest.mark.parametrize(
        "loader, n_features, n_classes",
        [
            (load_whitewine, 11, 7),
            (load_redwine, 11, 6),
            (load_pendigits, 16, 10),
            (load_seeds, 7, 3),
        ],
    )
    def test_dimensions_match_real_datasets(self, loader, n_features, n_classes):
        data = loader()
        assert data.n_features == n_features
        assert data.n_classes == n_classes
        assert len(data.feature_names) == n_features
        assert len(data.class_names) == n_classes

    def test_wine_datasets_are_imbalanced(self):
        # Label noise flattens the raw histogram a little, but the middle
        # quality grades must still dominate the extreme ones.
        balance = load_whitewine().class_balance()
        assert balance.max() / balance.min() > 4.0
        assert balance.max() > 0.3

    def test_pendigits_and_seeds_are_balanced(self):
        for loader in (load_pendigits, load_seeds):
            balance = loader().class_balance()
            assert balance.max() / balance.min() < 1.5

    def test_loaders_deterministic_by_default(self):
        a, b = load_seeds(), load_seeds()
        np.testing.assert_array_equal(a.features, b.features)


class TestRegistry:
    def test_paper_datasets_all_loadable(self):
        for name in PAPER_DATASETS:
            data = load_dataset(name)
            assert data.n_samples > 0

    def test_available_datasets_sorted(self):
        names = available_datasets()
        assert list(names) == sorted(names)
        assert set(PAPER_DATASETS).issubset(names)

    @pytest.mark.parametrize(
        "alias, expected",
        [
            ("WhiteWine", "whitewine"),
            ("white wine", "whitewine"),
            ("wine-quality-red", "redwine"),
            ("PenDigits", "pendigits"),
            ("Seed", "seeds"),
        ],
    )
    def test_normalize_name_aliases(self, alias, expected):
        assert normalize_name(alias) == expected

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            load_dataset("mnist")

    def test_loader_overrides(self):
        data = load_dataset("seeds", seed=123, n_samples=90)
        assert data.n_samples == 90

    def test_classifier_specs_have_expected_fields(self):
        for name in PAPER_DATASETS:
            spec = get_classifier_spec(name)
            assert spec.input_bits == 4
            assert spec.baseline_weight_bits == 8
            assert len(spec.hidden_layers) == 1

    def test_register_custom_dataset(self):
        def loader(seed=None, n_samples=30):
            return make_blobs(n_samples, 3, 2, seed=seed, name="custom_toy")

        spec = ClassifierSpec("custom_toy", hidden_layers=(3,))
        try:
            register_dataset("custom_toy", loader, spec)
            assert load_dataset("custom_toy").n_features == 3
            assert get_classifier_spec("custom_toy").hidden_layers == (3,)
            with pytest.raises(ValueError):
                register_dataset("custom_toy", loader, spec)
        finally:
            # keep the global registry clean for other tests
            from repro.datasets import registry

            registry._LOADERS.pop("customtoy", None)
            registry._CLASSIFIER_SPECS.pop("customtoy", None)
