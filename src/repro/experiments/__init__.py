"""Experiment drivers: Figure 1, Figure 2, headline summary, baselines, ablations."""

from .ablation import (
    AblationResult,
    clustering_granularity,
    csd_vs_binary,
    input_bitwidth_sensitivity,
    qat_vs_ptq,
    run_all_ablations,
)
from .baselines import BaselineRow, baseline_for, baseline_table, expected_topologies
from .figure1 import Figure1Panel, figure1_summary_rows, run_figure1, run_figure1_panel
from .figure2 import Figure2Result, run_figure2
from .summary import PAPER_HEADLINE_GAINS, SummaryResult, summarize_sweeps

__all__ = [
    "AblationResult",
    "BaselineRow",
    "Figure1Panel",
    "Figure2Result",
    "PAPER_HEADLINE_GAINS",
    "SummaryResult",
    "baseline_for",
    "baseline_table",
    "clustering_granularity",
    "csd_vs_binary",
    "expected_topologies",
    "figure1_summary_rows",
    "input_bitwidth_sensitivity",
    "qat_vs_ptq",
    "run_all_ablations",
    "run_figure1",
    "run_figure1_panel",
    "run_figure2",
    "summarize_sweeps",
]
