"""The redesigned public API surface.

Three guarantees:

* every entry point documented in ``docs/api.md`` is importable from the
  package the doc says it lives in (the doc's tables are parsed, so adding
  a row without exporting the name fails here);
* the curated top-level ``repro`` namespace exposes the primary workflow
  objects and nothing in ``__all__`` is dangling;
* the pre-redesign deep-import paths are gone.
"""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro

API_DOC = Path(__file__).resolve().parent.parent / "docs" / "api.md"


def _documented_entry_points():
    """``(module, name)`` for every entry point named in docs/api.md tables."""
    module = None
    entries = []
    for line in API_DOC.read_text().splitlines():
        heading = re.match(r"^## `([\w.]+)`", line)
        if heading:
            module = heading.group(1)
            continue
        if module is None or not line.startswith("| `"):
            continue
        first_cell = line.split("|")[1]
        for name in re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)", first_cell):
            entries.append((module, name))
    assert entries, f"no entry-point tables parsed from {API_DOC}"
    return sorted(set(entries))


class TestDocumentedApi:
    @pytest.mark.parametrize(
        "module,name",
        _documented_entry_points(),
        ids=[f"{m}.{n}" for m, n in _documented_entry_points()],
    )
    def test_every_documented_name_is_importable(self, module, name):
        imported = importlib.import_module(module)
        assert hasattr(imported, name), f"{module} does not export documented {name}"

    def test_documented_packages_export_all(self):
        for module in {m for m, _ in _documented_entry_points()}:
            imported = importlib.import_module(module)
            assert hasattr(imported, "__all__"), f"{module} lacks __all__"


class TestTopLevelNamespace:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists dangling {name}"

    def test_primary_workflow_objects_at_root(self):
        for name in [
            "PipelineConfig",
            "MinimizationPipeline",
            "GAConfig",
            "HardwareAwareGA",
            "EvaluationSettings",
            "resolve_evaluation_settings",
            "EvaluationEngine",
            "CampaignSpec",
            "CampaignRunner",
            "monte_carlo_fault_injection",
            "FixedPointSimulator",
        ]:
            assert name in repro.__all__ and hasattr(repro, name)

    def test_root_objects_are_the_canonical_ones(self):
        from repro.bespoke.simulator import FixedPointSimulator
        from repro.search.settings import EvaluationSettings

        assert repro.FixedPointSimulator is FixedPointSimulator
        assert repro.EvaluationSettings is EvaluationSettings


class TestLazyCampaignImport:
    """``import repro.cli`` leaves ``repro.campaign`` unloaded until it is used."""

    SCRIPT = """
import sys
import repro.cli
assert "repro.campaign" not in sys.modules, "import repro.cli loaded repro.campaign"
import repro
assert {"CampaignRunner", "CampaignSpec", "load_spec"} <= set(dir(repro))
from repro.campaign.runner import CampaignRunner
assert repro.CampaignRunner is CampaignRunner
namespace = {}
exec("from repro import *", namespace)
assert namespace["CampaignSpec"] is repro.CampaignSpec
assert namespace["load_spec"] is repro.load_spec
try:
    repro.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown top-level names must raise AttributeError")
"""

    def test_cli_import_defers_campaign(self):
        src = Path(repro.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr


class TestRemovedImportPaths:
    def test_deprecated_names_are_gone(self):
        import repro.search as search
        import repro.search.ga as ga
        import repro.search.objectives as objectives

        assert not hasattr(objectives, "EvaluationSettings")
        assert not hasattr(ga, "evaluation_settings_for")
        assert not hasattr(search, "evaluation_settings_for")

    def test_canonical_imports_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.search import EvaluationSettings  # noqa: F401
            from repro.search.settings import resolve_evaluation_settings  # noqa: F401
