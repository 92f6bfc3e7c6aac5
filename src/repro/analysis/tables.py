"""Text-table rendering of sweeps and design points.

The paper presents its results as figures; for a text-only library the same
data is most useful as aligned tables (for the console), markdown (for
reports such as ``EXPERIMENTS.md``) and CSV (for downstream plotting). These
renderers are intentionally dependency-free.
"""

from __future__ import annotations

import io
import math
from typing import Dict, List, Optional, Sequence

from ..core.pareto import pareto_front
from ..core.results import DesignPoint, SweepResult


def _format_cell(value: object, precision: int = 3) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    precision: int = 3,
) -> str:
    """Render an aligned plain-text table."""
    if not headers:
        raise ValueError("headers must not be empty")
    formatted_rows = [[_format_cell(cell, precision) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in formatted_rows:
        if len(row) != len(headers):
            raise ValueError("every row must have one cell per header")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in formatted_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_markdown_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    precision: int = 3,
) -> str:
    """Render a GitHub-flavoured markdown table."""
    if not headers:
        raise ValueError("headers must not be empty")
    lines = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("every row must have one cell per header")
        lines.append("| " + " | ".join(_format_cell(cell, precision) for cell in row) + " |")
    return "\n".join(lines)


def render_csv(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    precision: int = 6,
) -> str:
    """Render rows as CSV text (comma-separated, header line first)."""
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(headers)
    for row in rows:
        writer.writerow([_format_cell(cell, precision) for cell in row])
    return buffer.getvalue()


# -- sweep-specific views ----------------------------------------------------------


def sweep_rows(
    sweep: SweepResult,
    technique: Optional[str] = None,
    pareto_only: bool = False,
) -> List[List[object]]:
    """Tabular rows (one per design point) of a sweep, normalized to its baseline."""
    points: List[DesignPoint] = (
        sweep.points if technique is None else sweep.by_technique(technique)
    )
    if pareto_only:
        points = pareto_front(points)
    rows: List[List[object]] = []
    for point in points:
        normalized = point.normalized(sweep.baseline)
        rows.append(
            [
                sweep.dataset,
                point.technique,
                _describe_parameters(point),
                point.accuracy,
                normalized.normalized_accuracy,
                point.area,
                normalized.normalized_area,
                normalized.area_gain,
            ]
        )
    return rows


SWEEP_HEADERS = (
    "dataset",
    "technique",
    "configuration",
    "accuracy",
    "norm_accuracy",
    "area_mm2",
    "norm_area",
    "area_gain",
)


def sweep_table(sweep: SweepResult, pareto_only: bool = False, markdown: bool = False) -> str:
    """Full sweep as an aligned text (or markdown) table."""
    rows = sweep_rows(sweep, pareto_only=pareto_only)
    renderer = render_markdown_table if markdown else render_table
    return renderer(SWEEP_HEADERS, rows)


def sweep_csv(sweep: SweepResult, pareto_only: bool = False) -> str:
    """Full sweep as CSV text."""
    return render_csv(SWEEP_HEADERS, sweep_rows(sweep, pareto_only=pareto_only))


def gains_table(
    gains_by_dataset: Dict[str, Dict[str, Optional[float]]],
    paper_values: Optional[Dict[str, float]] = None,
    markdown: bool = False,
    average_values: Optional[Dict[str, float]] = None,
) -> str:
    """Area-gain-at-budget summary across datasets (the paper's headline table).

    ``average_values`` (each technique's mean gain over the datasets, NaN
    where it never meets the budget) adds an ``(average)`` row, and
    ``paper_values`` the paper's own averages as a ``(paper)`` row.
    """
    techniques = sorted({t for gains in gains_by_dataset.values() for t in gains})
    headers = ["dataset"] + techniques
    rows: List[List[object]] = []
    for dataset, gains in gains_by_dataset.items():
        row: List[object] = [dataset]
        for technique in techniques:
            gain = gains.get(technique)
            row.append("n/a" if gain is None else f"{gain:.2f}x")
        rows.append(row)
    if average_values:
        row = ["(average)"]
        for technique in techniques:
            value = average_values.get(technique)
            row.append("n/a" if value is None or math.isnan(value) else f"{value:.2f}x")
        rows.append(row)
    if paper_values:
        row = ["(paper)"]
        for technique in techniques:
            value = paper_values.get(technique)
            row.append("n/a" if value is None else f"{value:.1f}x")
        rows.append(row)
    renderer = render_markdown_table if markdown else render_table
    return renderer(headers, rows)


def _describe_parameters(point: DesignPoint) -> str:
    """Short human-readable description of a design point's configuration."""
    params = point.parameters
    if point.technique == "quantization":
        return f"{params.get('weight_bits', '?')}-bit weights"
    if point.technique == "pruning":
        sparsity = params.get("target_sparsity")
        return f"{float(sparsity) * 100:.0f}% sparsity" if sparsity is not None else "pruned"
    if point.technique == "clustering":
        return f"{params.get('n_clusters', '?')} clusters/input"
    if point.technique == "combined":
        return (
            f"bits={params.get('weight_bits')}, sparsity={params.get('sparsity')}, "
            f"clusters={params.get('clusters')}"
        )
    if point.technique == "baseline":
        return f"{params.get('weight_bits', 8)}-bit baseline"
    return ""
