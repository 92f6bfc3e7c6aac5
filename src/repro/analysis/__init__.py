"""Result analysis and presentation: text tables, ASCII plots, experiment export."""

from .ascii_plots import TECHNIQUE_MARKERS, front_plot, scatter_plot, sweep_plot
from .export import export_sweep
from .tables import (
    SWEEP_HEADERS,
    gains_table,
    render_csv,
    render_markdown_table,
    render_table,
    sweep_csv,
    sweep_rows,
    sweep_table,
)

__all__ = [
    "SWEEP_HEADERS",
    "TECHNIQUE_MARKERS",
    "export_sweep",
    "front_plot",
    "gains_table",
    "render_csv",
    "render_markdown_table",
    "render_table",
    "scatter_plot",
    "sweep_csv",
    "sweep_plot",
    "sweep_rows",
    "sweep_table",
]
