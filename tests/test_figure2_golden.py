"""Golden pin of the fast WhiteWine Figure 2.

``tests/data/figure2_golden.json`` holds every standalone sweep point, the
combined GA front and the combined area gain of ``run_figure2("whitewine",
fast=True)``, captured by ``tests/data/capture_figure2_golden.py``. The
stacked standalone sweeps and the population-wide clustering of the GA
are meant to be numerically invisible; this test byte-compares the whole
result against that capture.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


def _capture_module():
    spec = importlib.util.spec_from_file_location(
        "capture_figure2_golden", DATA / "capture_figure2_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fast_whitewine_figure2_matches_golden():
    capture = _capture_module()
    expected = capture.GOLDEN_PATH.read_text()
    assert capture.serialize(capture.figure2_document()) == expected
