"""Stacked standalone sweeps against their per-point loops.

The quantization, pruning and clustering sweeps build every candidate first
and fine-tune them as one stack (``finetune_population``). Each candidate
must end with the weights its own serial fine-tuning gives it, so every
sweep point is the one the per-point loop reports. Models the stacked
trainer cannot take (``Dropout``) fall back to that loop.
"""

from __future__ import annotations

import pytest

from repro.bespoke.circuit import BespokeConfig
from repro.bespoke.synthesis import synthesize, synthesize_cost_only
from repro.clustering import sweep as clustering_sweep_module
from repro.clustering import (
    cluster_and_finetune_population,
    cluster_model_weights,
    clustering_sweep,
    reproject_clusters,
)
from repro.datasets import load_dataset, prepare_split, train_val_test_split
from repro.nn import (
    build_mlp,
    finetune,
    finetune_population,
    supports_stacking,
    train_classifier,
)
from repro.pruning import one_shot_pruning, prune_by_magnitude, pruning_sweep
from repro.pruning import sweep as pruning_sweep_module
from repro.quantization import sweep as quantization_sweep_module
from repro.quantization import (
    QATConfig,
    attach_quantizers,
    quantization_sweep,
    quantize_aware_train,
    quantize_aware_train_population,
)


@pytest.fixture(scope="module")
def data():
    return prepare_split(train_val_test_split(load_dataset("seeds"), seed=0), input_bits=4)


@pytest.fixture(scope="module")
def trained(data):
    model = build_mlp(7, (4,), 3, seed=0)
    train_classifier(
        model,
        data.train.features,
        data.train.labels,
        data.validation.features,
        data.validation.labels,
        epochs=30,
        seed=0,
    )
    return model


def weight_bytes(model):
    return [
        (layer.weights.tobytes(), layer.bias.tobytes()) for layer in model.dense_layers
    ]


def measured(model, data, weight_bits):
    """(accuracy, area) of one candidate, measured as the sweeps measure it."""
    report = synthesize(model, config=BespokeConfig(input_bits=4, weight_bits=weight_bits))
    return model.evaluate_accuracy(data.test.features, data.test.labels), report.area


def test_finetune_population_equals_serial_finetune(trained, data):
    candidates = [trained.clone() for _ in range(3)]
    serial = [trained.clone() for _ in range(3)]
    seeds = [0, 5, 1]
    arrays = (
        data.train.features,
        data.train.labels,
        data.validation.features,
        data.validation.labels,
    )
    finetune_population(candidates, *arrays, epochs=4, learning_rate=0.003, seeds=seeds)
    for model, seed in zip(serial, seeds):
        finetune(model, *arrays, epochs=4, learning_rate=0.003, seed=seed)
    for ours, theirs in zip(candidates, serial):
        assert weight_bytes(ours) == weight_bytes(theirs)


def serial_finetune(model, data, epochs, learning_rate, seed):
    """The serial trainer the stacked sweeps must reproduce, on one model."""
    finetune(
        model,
        data.train.features,
        data.train.labels,
        data.validation.features,
        data.validation.labels,
        epochs=epochs,
        learning_rate=learning_rate,
        seed=seed,
    )


def test_quantization_sweep_equals_per_point_qat(trained, data):
    bit_range = (2, 3, 5)
    points = quantization_sweep(trained, data, bit_range=bit_range, qat_epochs=4, seed=3)
    for bits, point in zip(bit_range, points):
        candidate = trained.clone()
        attach_quantizers(candidate, bits)
        serial_finetune(candidate, data, epochs=4, learning_rate=0.003, seed=3)
        assert (point.accuracy, point.area) == measured(candidate, data, bits)


def test_quantize_aware_train_equals_serial_qat(trained, data):
    model, reference = trained.clone(), trained.clone()
    quantize_aware_train(model, data, QATConfig(weight_bits=3, epochs=4), seed=2)
    attach_quantizers(reference, 3)
    serial_finetune(reference, data, epochs=4, learning_rate=0.003, seed=2)
    assert weight_bytes(model) == weight_bytes(reference)


def test_qat_population_rejects_mixed_training_settings(trained, data):
    configs = [QATConfig(weight_bits=3, epochs=4), QATConfig(weight_bits=4, epochs=5)]
    with pytest.raises(ValueError, match="share epochs"):
        quantize_aware_train_population([trained.clone(), trained.clone()], data, configs)


def test_pruning_sweep_equals_per_point_one_shot_pruning(trained, data):
    sparsities = (0.2, 0.5)
    points = pruning_sweep(trained, data, sparsity_range=sparsities, finetune_epochs=4, seed=1)
    for sparsity, point in zip(sparsities, points):
        candidate = trained.clone()
        result = prune_by_magnitude(candidate, sparsity)
        serial_finetune(candidate, data, epochs=4, learning_rate=0.003, seed=1)
        assert (point.accuracy, point.area) == measured(candidate, data, 8)
        assert point.parameters["achieved_sparsity"] == result.achieved_sparsity


def test_one_shot_pruning_equals_serial_flow(trained, data):
    model, reference = trained.clone(), trained.clone()
    one_shot_pruning(model, 0.4, data=data, finetune_epochs=4, seed=0)
    prune_by_magnitude(reference, 0.4)
    serial_finetune(reference, data, epochs=4, learning_rate=0.003, seed=0)
    assert weight_bytes(model) == weight_bytes(reference)


def test_cluster_and_finetune_population_equals_serial_flow(trained, data):
    budgets = [2, 3, [4, 2]]
    models = [trained.clone() for _ in budgets]
    cluster_and_finetune_population(models, data, budgets, epochs=3, seed=4)
    for budget, model in zip(budgets, models):
        # The per-model flow with serial fine-tuning, epoch by epoch.
        reference = trained.clone()
        result = cluster_model_weights(reference, budget, seed=4)
        for epoch in range(3):
            serial_finetune(
                reference, data, epochs=1, learning_rate=0.002 * (0.85**epoch), seed=4 + epoch
            )
            reproject_clusters(reference, result)
        assert weight_bytes(model) == weight_bytes(reference)


def test_sweeps_run_per_point_for_models_with_dropout(data):
    model = build_mlp(7, (4,), 3, dropout=0.2, seed=0)
    assert not supports_stacking([model, model.clone()])
    assert len(quantization_sweep(model, data, bit_range=(3, 4), qat_epochs=2, seed=0)) == 2
    assert len(pruning_sweep(model, data, sparsity_range=(0.3,), finetune_epochs=2, seed=0)) == 1
    points = clustering_sweep(model, data, cluster_range=(2, 3), finetune_epochs=2, seed=0)
    assert [p.parameters["n_clusters"] for p in points] == [2, 3]



@pytest.mark.parametrize(
    "technique, module",
    [
        ("quantization", quantization_sweep_module),
        ("pruning", pruning_sweep_module),
        ("clustering", clustering_sweep_module),
    ],
)
def test_sweep_reports_equal_full_netlist_reports(prepared_pipeline, monkeypatch, technique, module):
    """The sweeps' cost-only reports are the full netlist path's, field by field."""
    pairs = []

    def both_paths(model, config=None, tech=None, name="bespoke_mlp"):
        fast = synthesize_cost_only(model, config=config, tech=tech, name=name)
        pairs.append((fast, synthesize(model, config=config, tech=tech, name=name)))
        return fast

    monkeypatch.setattr(module, "synthesize_cost_only", both_paths)
    points = prepared_pipeline.run_technique(technique)
    assert len(pairs) == len(points) > 0
    for point, (fast, full) in zip(points, pairs):
        assert point.report is fast
        assert fast == full
        assert fast.as_dict() == full.as_dict()
        assert [fast.area.hex(), fast.power.hex(), fast.delay.hex()] == [
            full.area.hex(),
            full.power.hex(),
            full.delay.hex(),
        ]
