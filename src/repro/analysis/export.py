"""Experiment-bundle export.

Writes everything one evaluation run produced — the sweep JSON, CSV tables,
the ASCII figure and a markdown summary — into a directory, so experiment
results can be archived or diffed between runs without re-running anything.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

from ..core.pareto import area_gain_table
from ..core.results import SweepResult
from .ascii_plots import sweep_plot
from .tables import gains_table, sweep_csv, sweep_table


def export_sweep(
    sweep: SweepResult,
    output_dir: Union[str, Path],
    max_accuracy_loss: float = 0.05,
) -> Dict[str, Path]:
    """Write one sweep's artefacts into ``output_dir``.

    Produces ``<dataset>_sweep.json``, ``<dataset>_points.csv``,
    ``<dataset>_pareto.md`` and ``<dataset>_figure.txt``; returns the path of
    every file written keyed by artefact name.
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    prefix = sweep.dataset

    paths: Dict[str, Path] = {}
    paths["json"] = sweep.save_json(output_dir / f"{prefix}_sweep.json")

    csv_path = output_dir / f"{prefix}_points.csv"
    csv_path.write_text(sweep_csv(sweep))
    paths["csv"] = csv_path

    markdown_path = output_dir / f"{prefix}_pareto.md"
    gains = area_gain_table(sweep, max_accuracy_loss=max_accuracy_loss)
    markdown = [
        f"# {prefix} minimization sweep",
        "",
        f"Baseline: accuracy {sweep.baseline.accuracy:.3f}, "
        f"area {sweep.baseline.area:.2f} mm^2.",
        "",
        "## Pareto points",
        "",
        sweep_table(sweep, pareto_only=True, markdown=True),
        "",
        f"## Area gain at <= {max_accuracy_loss * 100:.0f}% accuracy loss",
        "",
        gains_table({prefix: gains}, markdown=True),
        "",
    ]
    markdown_path.write_text("\n".join(markdown))
    paths["markdown"] = markdown_path

    figure_path = output_dir / f"{prefix}_figure.txt"
    figure_path.write_text(sweep_plot(sweep) + "\n")
    paths["figure"] = figure_path
    return paths
