"""Capture the golden Figure-2 result pinned by tests/test_figure2_golden.py.

Run from the repo root (on a commit whose figure2 behavior is the reference)::

    PYTHONPATH=src python tests/data/capture_figure2_golden.py

Writes ``figure2_golden.json``: every standalone sweep point, the combined
GA front and the combined area gain of ``run_figure2("whitewine",
fast=True)``. The golden test re-runs the same call and byte-compares the
serialized document, so any change to the sweeps' fine-tuning, the GA's
clustering preamble or the stacked evaluation that moves a single bit of a
reported design point fails it.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.figure2 import run_figure2

GOLDEN_PATH = Path(__file__).resolve().parent / "figure2_golden.json"


def figure2_document() -> dict:
    """Run the fast WhiteWine Figure 2 and serialize what it reports."""
    result = run_figure2("whitewine", fast=True)
    return {
        "baseline": result.sweep.baseline.as_dict(),
        "sweep": [
            point.as_dict()
            for point in result.sweep.points
            if point.technique != "combined"
        ],
        "front": [point.as_dict() for point in result.ga_result.front],
        "n_evaluations": result.ga_result.n_evaluations,
        "combined_gain": result.combined_gain,
    }


def serialize(document: dict) -> str:
    """The byte form the golden file stores and the test compares."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def main() -> None:
    """Capture the golden Figure-2 document and write the pinned JSON."""
    GOLDEN_PATH.write_text(serialize(figure2_document()))
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
