"""Headline-number reproduction (Section III text of the paper).

The paper's evaluation text quotes four headline numbers at the 5 %
accuracy-loss budget:

* quantization: ≈5× area reduction on average across the four datasets,
* pruning: ≈2.8× on average,
* weight clustering: ≈3.5× on average (budget met only on the wine datasets),
* all three combined (GA): up to 8× (WhiteWine).

:func:`summarize_sweeps` recomputes those numbers from the Figure-1 sweeps
and the Figure-2 GA run and reports them next to the paper's values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.pareto import average_area_gain, best_area_gain_at_loss
from ..core.results import SweepResult
from .figure2 import Figure2Result

#: The paper's reported headline values (area-gain factors at <=5 % loss).
PAPER_HEADLINE_GAINS: Dict[str, float] = {
    "quantization": 5.0,
    "pruning": 2.8,
    "clustering": 3.5,
    "combined": 8.0,
}


@dataclass
class SummaryResult:
    """Measured vs paper headline numbers."""

    measured: Dict[str, float] = field(default_factory=dict)
    paper: Dict[str, float] = field(default_factory=dict)
    per_dataset: Dict[str, Dict[str, Optional[float]]] = field(default_factory=dict)

    def format_rows(self) -> List[str]:
        rows = ["technique       paper     measured"]
        for technique, paper_value in self.paper.items():
            measured = self.measured.get(technique, float("nan"))
            rows.append(f"{technique:<15} {paper_value:>5.1f}x    {measured:>5.2f}x")
        return rows


def summarize_sweeps(
    sweeps: Dict[str, SweepResult],
    combined: Optional[Figure2Result] = None,
    max_accuracy_loss: float = 0.05,
) -> SummaryResult:
    """Compute the headline gains from already-run sweeps.

    Args:
        sweeps: per-dataset sweep results (the Figure-1 data).
        combined: the Figure-2 result providing the combined-GA number.
        max_accuracy_loss: accuracy budget (the paper uses 5 %).
    """
    summary = SummaryResult(paper=dict(PAPER_HEADLINE_GAINS))
    per_dataset: Dict[str, Dict[str, Optional[float]]] = {}
    for dataset, sweep in sweeps.items():
        per_dataset[dataset] = {}
        for technique in ("quantization", "pruning", "clustering"):
            best = best_area_gain_at_loss(
                sweep.by_technique(technique), sweep.baseline, max_accuracy_loss
            )
            per_dataset[dataset][technique] = None if best is None else float(best.area_gain)
    summary.per_dataset = per_dataset

    for technique in ("quantization", "pruning", "clustering"):
        summary.measured[technique] = average_area_gain(
            sweeps.values(), technique, max_accuracy_loss
        )
    if combined is not None and combined.combined_gain is not None:
        summary.measured["combined"] = float(combined.combined_gain)
    return summary
