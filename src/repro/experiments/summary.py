"""Headline numbers of the paper (Section III text).

The paper's evaluation text quotes four headline numbers at the 5 %
accuracy-loss budget:

* quantization: ≈5× area reduction on average across the four datasets,
* pruning: ≈2.8× on average,
* weight clustering: ≈3.5× on average (budget met only on the wine datasets),
* all three combined (GA): up to 8× (WhiteWine).

``repro figure1`` prints them under the measured gains table.
"""

from __future__ import annotations

from typing import Dict

#: The paper's reported headline values (area-gain factors at <=5 % loss).
PAPER_HEADLINE_GAINS: Dict[str, float] = {
    "quantization": 5.0,
    "pruning": 2.8,
    "clustering": 3.5,
    "combined": 8.0,
}
