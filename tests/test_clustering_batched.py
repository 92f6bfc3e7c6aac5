"""The population-wide k-means kernel against its per-problem oracle.

``kmeans_1d_batch`` must reproduce ``kmeans_1d`` byte for byte on every
problem; ``cluster_population_weights`` must leave every model exactly as
``cluster_model_weights`` leaves it alone; ``reproject_population_clusters``
must project exactly as ``reproject_clusters`` does. The stacked GA's
fronts depend on all three. The strategies aim at the places where a batched
re-implementation could drift: duplicate values, values at the midpoint of
two centroids, budgets at or above the distinct-value count and budget 1,
fully pruned rows, and clusters of 8 or more members (where numpy switches
from a sequential to a pairwise sum).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering import (
    cluster_model_weights,
    cluster_population_weights,
    kmeans_1d,
    kmeans_1d_batch,
    reproject_clusters,
    reproject_population_clusters,
)
from repro.clustering.batched import _seed_plus_plus
from repro.clustering.kmeans import _kmeans_plus_plus_init
from repro.nn import build_mlp

#: Quarter steps: plenty of duplicates, and of values exactly halfway
#: between two others (argmin ties).
GRID = [step / 4 for step in range(-8, 9)]

values_1d = st.lists(
    st.one_of(
        st.sampled_from(GRID),
        st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False).map(lambda v: v + 0.0),
    ),
    min_size=1,
    max_size=20,
)
budgets = st.sampled_from([1, 2, 3, 4, 6, 8, 10**6])
seeds = st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1))


def _pad(problems):
    width = max(len(values) for values in problems)
    padded = np.zeros((len(problems), width))
    for index, values in enumerate(problems):
        padded[index, : len(values)] = values
    return padded, [len(values) for values in problems]


def assert_matches_oracle(problems, n_clusters, problem_seeds):
    padded, sizes = _pad(problems)
    result = kmeans_1d_batch(padded, sizes, n_clusters, problem_seeds)
    for index, values in enumerate(problems):
        oracle = kmeans_1d(np.array(values), n_clusters[index], seed=problem_seeds[index])
        centroids = result.problem_centroids(index)
        assignments = result.assignments[index, : sizes[index]]
        assert centroids.tobytes() == oracle.centroids.tobytes()
        assert assignments.tobytes() == oracle.assignments.tobytes()
        assert result.n_iterations[index] == oracle.n_iterations
        clustered = centroids[assignments]
        assert clustered.tobytes() == oracle.centroids[oracle.assignments].tobytes()
        assert np.all(result.assignments[index, sizes[index] :] == -1)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(values_1d, budgets, seeds), min_size=1, max_size=12))
def test_batch_matches_kmeans_1d_per_problem(cases):
    problems, n_clusters, problem_seeds = map(list, zip(*cases))
    assert_matches_oracle(problems, n_clusters, problem_seeds)


@pytest.mark.parametrize(
    "values, n_clusters",
    [
        ([1.0, 1.0, 2.0, 2.0, 2.0], 10),  # k >= distinct: exact codebook
        ([0.1] * 7 + [0.7], 2),  # repeated sums that round
        ([0.0, 0.5, 1.0], 2),  # 0.5 sits halfway between two centroids
        ([3.0, -1.0, 0.25, 0.25, 7.5], 1),  # k = 1: the mean
        ([0.1 * i for i in range(12)], 1),  # one 12-member cluster: pairwise sum
        ([0.3, -0.2] * 9 + [0.1], 1),  # 19 members: 16 in lanes, 3 in the tail
        ([0.01 * i * i for i in range(16)], 2),
        ([0.1 * (i % 5) for i in range(140)], 1),  # above numpy's pairwise block
        ([5.0], 3),
    ],
)
def test_batch_matches_kmeans_1d_on_edge_cases(values, n_clusters):
    assert_matches_oracle([values, [1.0, 2.0, 3.0]], [n_clusters, 2], [7, 7])


def test_batch_rejects_empty_problems_and_zero_budgets():
    with pytest.raises(ValueError):
        kmeans_1d_batch(np.zeros((1, 3)), [0], [2], [0])
    with pytest.raises(ValueError):
        kmeans_1d_batch(np.zeros((1, 3)), [2], [0], [0])


def _assert_same_clustering(reference, batched, ref_model, batch_model):
    assert batched.n_clusters == reference.n_clusters
    assert batched.total_distinct_products == reference.total_distinct_products
    assert batched.total_connections == reference.total_connections
    for ref_layer, batch_layer in zip(ref_model.dense_layers, batch_model.dense_layers):
        assert batch_layer.weights.tobytes() == ref_layer.weights.tobytes()
    for ref_layer, batch_layer in zip(reference.per_layer, batched.per_layer):
        assert batch_layer.n_clusters == ref_layer.n_clusters
        assert len(batch_layer.centroids) == len(ref_layer.centroids)
        assert len(batch_layer.assignments) == len(ref_layer.assignments)
        for ours, theirs in zip(
            batch_layer.centroids + batch_layer.assignments,
            ref_layer.centroids + ref_layer.assignments,
        ):
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    model_seed=st.integers(0, 2**16),
    population=st.lists(
        st.tuples(
            st.lists(budgets, min_size=2, max_size=2),
            seeds,
            st.lists(st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.0]), min_size=2, max_size=2),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_population_clustering_matches_per_model(model_seed, population):
    # A 12-neuron hidden layer: its input rows carry up to 12 survivors.
    baseline = build_mlp(5, (12,), 3, seed=model_seed)
    rng = np.random.default_rng(model_seed)
    models = []
    for _, _, row_keep in population:
        model = baseline.clone()
        for layer, keep in zip(model.dense_layers, row_keep):
            # Per-entry pruning, with whole rows pruned away at random.
            mask = (rng.random(layer.weights.shape) < 0.8).astype(float)
            mask[rng.random(layer.weights.shape[0]) >= keep] = 0.0
            layer.mask = mask
        models.append(model)
    references = [model.clone() for model in models]
    layer_budgets = [budget for budget, _, _ in population]
    model_seeds = [seed for _, seed, _ in population]

    expected = [
        cluster_model_weights(model, budget, seed=seed)
        for model, budget, seed in zip(references, layer_budgets, model_seeds)
    ]
    results = cluster_population_weights(models, layer_budgets, model_seeds)
    for reference, batched, ref_model, batch_model in zip(
        expected, results, references, models
    ):
        _assert_same_clustering(reference, batched, ref_model, batch_model)

    # Fine-tuning moves tied weights apart; the projection re-ties them.
    for ref_model, batch_model in zip(references, models):
        for ref_layer, batch_layer in zip(ref_model.dense_layers, batch_model.dense_layers):
            drift = rng.normal(scale=0.05, size=ref_layer.weights.shape)
            ref_layer.weights = ref_layer.weights + drift
            batch_layer.weights = batch_layer.weights + drift
    for ref_model, reference in zip(references, expected):
        reproject_clusters(ref_model, reference)
    reproject_population_clusters(models, results)
    for ref_model, batch_model in zip(references, models):
        for ref_layer, batch_layer in zip(ref_model.dense_layers, batch_model.dense_layers):
            assert batch_layer.weights.tobytes() == ref_layer.weights.tobytes()


def test_population_clustering_of_fully_pruned_layers():
    model = build_mlp(4, (9,), 2, seed=3)
    model.dense_layers[0].mask = np.zeros_like(model.dense_layers[0].weights)
    reference = model.clone()
    expected = cluster_model_weights(reference, [2, 3], seed=1)
    (result,) = cluster_population_weights([model], [[2, 3]], [1])
    _assert_same_clustering(expected, result, reference, model)
    assert all(c.size == 0 for c in result.per_layer[0].centroids)


def test_population_clustering_of_nothing():
    assert cluster_population_weights([], [], []) == []
    reproject_population_clusters([], [])


def test_population_reprojection_of_whole_layer_clusterings():
    models = [build_mlp(4, (9,), 2, seed=seed) for seed in (0, 1)]
    references = [model.clone() for model in models]
    results = [cluster_model_weights(m, 2, seed=0, per_position=False) for m in models]
    expected = [cluster_model_weights(m, 2, seed=0, per_position=False) for m in references]
    for model, reference in zip(models + references, results + expected):
        for layer in model.dense_layers:
            layer.weights = layer.weights * 1.01
    reproject_population_clusters(models, results)
    for model, reference in zip(references, expected):
        reproject_clusters(model, reference)
    for model, reference in zip(models, references):
        assert weight_list(model) == weight_list(reference)


def weight_list(model):
    return [layer.weights.tobytes() for layer in model.dense_layers]


#: Values spaced 1e-200 apart: every squared distance underflows to 0.0, so
#: k-means++ hits its ``total == 0.0`` early fill.
TINY = [0.0, 1e-200, 2e-200, 3e-200]
seeding_values = st.one_of(
    st.lists(st.sampled_from(GRID), min_size=1, max_size=8),
    st.lists(st.sampled_from(GRID), min_size=9, max_size=40),  # numpy's pairwise sum
    st.lists(st.floats(-4.0, 4.0, allow_nan=False).map(lambda v: v + 0.0), min_size=2, max_size=24),
    st.lists(st.sampled_from(TINY), min_size=2, max_size=10),
)


@settings(max_examples=150, deadline=None)
@given(
    cases=st.lists(
        st.tuples(seeding_values, st.sampled_from([1, 2, 3, 5, 7])), min_size=1, max_size=10
    ),
    seed_pool=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
    picks=st.lists(st.integers(0, 2), min_size=10, max_size=10),
)
def test_plus_plus_seeding_replays_the_oracle(cases, seed_pool, picks):
    """Seeding alone, problem by problem, against ``_kmeans_plus_plus_init``.

    Seeds come from a pool of at most three, so problems of one seed and
    one size repeat and share their replayed draws.
    """
    problems, n_clusters = map(list, zip(*cases))
    problem_seeds = [seed_pool[pick % len(seed_pool)] for pick in picks[: len(problems)]]
    padded, sizes = _pad(problems)
    centroids = np.zeros((len(problems), max(n_clusters)))
    _seed_plus_plus(
        centroids,
        padded,
        np.array(sizes),
        np.array(n_clusters),
        problem_seeds,
        np.arange(len(problems)),
    )
    for index, values in enumerate(problems):
        oracle = _kmeans_plus_plus_init(
            np.array(values), n_clusters[index], np.random.default_rng(problem_seeds[index])
        )
        assert centroids[index, : n_clusters[index]].tobytes() == oracle.tobytes()
        assert not centroids[index, n_clusters[index] :].any()


@pytest.mark.parametrize(
    "values, n_clusters",
    [
        (TINY, 3),  # every squared distance is 0.0: early fill
        ([0.0, 0.0, 1e-200, 1.0], 3),  # early fill after one D² sample
        ([0.25 * (i % 7) for i in range(9)], 3),  # 9 values: pairwise total
        ([0.1 * (i % 11) for i in range(140)], 4),  # above numpy's pairwise block
        ([1.0, 1.0, 1.0, 2.0], 1),  # budget 1: the first draw only
    ],
)
def test_batch_seeding_edge_cases(values, n_clusters):
    # The same seed and size twice (replayed draws), another size, another seed.
    problems = [values, list(values), values[:2] + [9.0], values]
    assert_matches_oracle(problems, [n_clusters] * 4, [11, 11, 11, 12])


def test_unseeded_problems_next_to_seeded_ones():
    problems = [[0.0, 1.0, 2.0, 3.0, 4.0]] * 4
    padded, sizes = _pad(problems)
    result = kmeans_1d_batch(padded, sizes, [2] * 4, [5, None, 5, None])
    oracle = kmeans_1d(np.array(problems[0]), 2, seed=5)
    for index in (0, 2):
        assert result.problem_centroids(index).tobytes() == oracle.centroids.tobytes()
    for index in (1, 3):
        centroids = result.problem_centroids(index)
        assert centroids.size == 2 and centroids[0] < centroids[1]
