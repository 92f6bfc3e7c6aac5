"""Integration tests for the experiment drivers (Figure 1, Figure 2, headline values, ablations).

These use aggressively reduced configurations so the whole file runs in a few
seconds while still exercising the full reproduction path end to end.
"""

import pytest

from repro.core import PipelineConfig, average_area_gain
from repro.datasets import PAPER_DATASETS
from repro.experiments import (
    PAPER_HEADLINE_GAINS,
    baseline_for,
    baseline_table,
    csd_vs_binary,
    expected_topologies,
    figure1_summary_rows,
    input_bitwidth_sensitivity,
    qat_vs_ptq,
    run_all_ablations,
    run_figure1,
    run_figure1_panel,
    run_figure2,
)
from repro.search import GAConfig

TINY_SEEDS = PipelineConfig(
    dataset="seeds",
    seed=0,
    train_epochs=40,
    finetune_epochs=4,
    bit_range=(2, 4, 8),
    sparsity_range=(0.3, 0.6),
    cluster_range=(2,),
)


@pytest.fixture(scope="module")
def seeds_panel():
    return run_figure1_panel("seeds", config=TINY_SEEDS)


@pytest.fixture(scope="module")
def paper_panels():
    """Figure 1 on the paper's four datasets, at the reduced-cost settings."""
    return run_figure1(PAPER_DATASETS, fast=True)


@pytest.fixture(scope="module")
def whitewine_figure2():
    """The paper's Figure 2 dataset, at a small GA budget."""
    return run_figure2(
        "whitewine",
        fast=True,
        ga_config=GAConfig(population_size=12, n_generations=6, finetune_epochs=6, seed=0),
    )


class TestFigure1:
    def test_panel_contains_all_techniques(self, seeds_panel):
        assert set(seeds_panel.fronts) == {"quantization", "pruning", "clustering"}
        assert set(seeds_panel.area_gains) == {"quantization", "pruning", "clustering"}

    def test_fronts_are_normalized(self, seeds_panel):
        for points in seeds_panel.fronts.values():
            for point in points:
                assert point.normalized_area <= 1.05
                assert 0.0 < point.normalized_accuracy <= 1.2

    def test_quantization_best_gain(self, seeds_panel):
        gains = seeds_panel.area_gains
        assert gains["quantization"] is not None
        assert gains["quantization"] > 1.5

    def test_format_rows_readable(self, seeds_panel):
        rows = seeds_panel.format_rows()
        assert rows[0].startswith("# seeds")
        assert any("quantization" in row for row in rows)

    @pytest.mark.parametrize("dataset", PAPER_DATASETS)
    def test_quantization_meets_the_budget_on_every_dataset(self, paper_panels, dataset):
        assert paper_panels[dataset].area_gains["quantization"] is not None

    def test_summary_rows_helper(self, seeds_panel):
        rows = figure1_summary_rows({"seeds": seeds_panel})
        assert rows[0].startswith("dataset")
        assert any("seeds" in row for row in rows[1:])


class TestFigure2:
    @pytest.fixture(scope="class")
    def figure2(self):
        return run_figure2(
            "seeds",
            config=TINY_SEEDS,
            ga_config=GAConfig(
                population_size=6, n_generations=2, finetune_epochs=2, seed=0,
                bit_choices=(2, 4, 8), sparsity_choices=(0.0, 0.3, 0.6), cluster_choices=(0, 2),
            ),
        )

    def test_combined_front_present(self, figure2):
        assert "combined" in figure2.fronts
        assert len(figure2.fronts["combined"]) >= 1
        assert figure2.ga_result.n_evaluations >= 6

    def test_combined_not_worse_than_standalone(self, figure2):
        gains = figure2.area_gains
        combined = gains.get("combined")
        assert combined is not None
        standalone = [g for k, g in gains.items() if k != "combined" and g is not None]
        assert combined >= max(standalone) * 0.8

    def test_format_rows(self, figure2):
        rows = figure2.format_rows()
        assert any("gain@5%loss" in row for row in rows)

    def test_whitewine_combined_not_worse_than_standalone(self, whitewine_figure2):
        gains = whitewine_figure2.area_gains
        standalone = [g for k, g in gains.items() if k != "combined" and g is not None]
        assert gains["combined"] >= max(standalone) * 0.85


class TestSummary:
    def test_paper_headline_values_recorded(self):
        assert PAPER_HEADLINE_GAINS == {
            "quantization": 5.0,
            "pruning": 2.8,
            "clustering": 3.5,
            "combined": 8.0,
        }

    def test_quantization_is_the_strongest_standalone_technique(self, paper_panels):
        sweeps = [panel.sweep for panel in paper_panels.values()]
        assert average_area_gain(sweeps, "quantization") > average_area_gain(sweeps, "pruning")

    def test_combined_search_reaches_the_largest_gain(self, paper_panels, whitewine_figure2):
        sweeps = [panel.sweep for panel in paper_panels.values()]
        quantization = average_area_gain(sweeps, "quantization")
        assert whitewine_figure2.combined_gain >= quantization * 0.8


class TestBaselines:
    def test_baseline_row_fields(self):
        row = baseline_for("seeds", config=TINY_SEEDS)
        assert row.dataset == "seeds"
        assert row.topology == [7, 4, 3]
        assert row.area > 0
        assert row.n_multipliers > 0
        assert "acc=" in row.format()

    def test_baseline_table_fast(self):
        table = baseline_table(PAPER_DATASETS, fast=True)
        assert set(table) == set(PAPER_DATASETS)
        # Bigger classifiers occupy more area, and every baseline reaches a
        # sensible accuracy for its dataset.
        assert table["pendigits"].area > table["seeds"].area
        assert table["whitewine"].area > table["seeds"].area
        assert table["seeds"].accuracy > 0.8
        assert table["pendigits"].accuracy > 0.85
        assert table["whitewine"].accuracy > 0.45
        assert table["redwine"].accuracy > 0.45

    def test_expected_topologies_match_design_doc(self):
        topologies = expected_topologies()
        assert topologies["whitewine"] == [11, 8, 7]
        assert topologies["redwine"] == [11, 8, 6]
        assert topologies["pendigits"] == [16, 10, 10]
        assert topologies["seeds"] == [7, 4, 3]


class TestAblations:
    def test_csd_vs_binary_csd_never_larger(self):
        result = csd_vs_binary("seeds", config=TINY_SEEDS)
        assert result.values["csd"] <= result.values["binary"] + 1e-9
        assert result.values["binary_over_csd"] >= 1.0

    def test_input_bitwidth_monotone(self):
        result = input_bitwidth_sensitivity(
            "seeds", input_bit_range=(3, 5), config=TINY_SEEDS
        )
        assert result.values["input_bits_3"] < result.values["input_bits_5"]

    def test_qat_vs_ptq_qat_not_worse_at_2_bits(self):
        result = qat_vs_ptq("seeds", bit_range=(2,), config=TINY_SEEDS)
        assert result.values["qat_2b_accuracy"] >= result.values["ptq_2b_accuracy"] - 0.05

    @pytest.fixture(scope="class")
    def whitewine_ablations(self):
        """What ``repro ablations --fast`` runs: every study on WhiteWine."""
        return {result.name: result for result in run_all_ablations("whitewine", fast=True)}

    def test_clustering_granularity_per_position_not_larger(self, whitewine_ablations):
        values = whitewine_ablations["clustering_granularity"].values
        # Per-position clustering is what enables product sharing, so it must
        # not give a larger circuit than one codebook per layer.
        assert values["per_position_area"] <= values["whole_layer_area"] * 1.05

    def test_whitewine_ablations_keep_their_shape(self, whitewine_ablations):
        assert whitewine_ablations["csd_vs_binary"].values["binary_over_csd"] >= 1.0
        inputs = whitewine_ablations["input_bitwidth_sensitivity"].values
        areas = [inputs[f"input_bits_{bits}"] for bits in (3, 4, 5, 6)]
        assert areas == sorted(areas)
        qat = whitewine_ablations["qat_vs_ptq"].values
        assert qat["qat_2b_accuracy"] >= qat["ptq_2b_accuracy"] - 0.02

    def test_ablation_result_formatting(self):
        result = csd_vs_binary("seeds", config=TINY_SEEDS)
        rows = result.format_rows()
        assert rows[0].startswith("# ablation")
        assert len(rows) == 1 + len(result.values)
