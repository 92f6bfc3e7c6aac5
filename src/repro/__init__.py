"""repro — Hardware-Aware Automated Neural Minimization for Printed MLPs.

A from-scratch reproduction of Kokkinis et al., DATE 2023: quantization,
unstructured pruning and per-input-position weight clustering applied to
bespoke (hard-wired coefficient) printed MLP classifiers, with an analytical
EGT area/power model standing in for the commercial synthesis flow, and a
hardware-aware NSGA-II combining all three techniques.

Quickstart::

    from repro import MinimizationPipeline, PipelineConfig

    pipeline = MinimizationPipeline(PipelineConfig(dataset="whitewine"))
    sweep = pipeline.run()                 # Figure-1 style sweeps
    print(pipeline.area_gains(sweep))      # area gain at <=5 % accuracy loss

Sub-packages:

* :mod:`repro.nn` — NumPy MLP training framework.
* :mod:`repro.datasets` — synthetic UCI stand-ins and preprocessing.
* :mod:`repro.hardware` — EGT technology library and arithmetic cost models.
* :mod:`repro.bespoke` — bespoke circuit generation and synthesis reports.
* :mod:`repro.quantization` / :mod:`repro.pruning` / :mod:`repro.clustering`
  — the three minimization techniques.
* :mod:`repro.core` — design points, Pareto analysis and the evaluation
  pipeline.
* :mod:`repro.reliability` — Monte-Carlo fault injection for hard-wired
  classifiers.
* :mod:`repro.search` — the hardware-aware genetic algorithm.
* :mod:`repro.campaign` — resumable multi-dataset search campaigns
  (imported on first use of ``CampaignRunner``, ``CampaignSpec`` or
  ``load_spec``, so the CLI's search verbs do not pay for it).
* :mod:`repro.experiments` — Figure/Table reproduction drivers.
"""

import importlib

from .core import (
    DesignPoint,
    MinimizationPipeline,
    NormalizedPoint,
    PipelineConfig,
    SweepResult,
    area_gain_table,
    best_area_gain_at_loss,
    evaluate_dataset,
    fast_config,
    pareto_front,
)
from .bespoke import (
    BespokeConfig,
    FixedPointSimulator,
    SynthesisReport,
    synthesize,
    synthesize_baseline,
)
from .datasets import load_dataset, prepare_split, train_val_test_split
from .hardware import egt_library, get_technology
from .nn import MLP, build_mlp, train_classifier
from .reliability import monte_carlo_fault_injection
from .search import (
    EvaluationEngine,
    EvaluationSettings,
    GAConfig,
    HardwareAwareGA,
    resolve_evaluation_settings,
    run_combined_search,
)

__version__ = "1.0.0"

#: Top-level names resolved on first access (PEP 562), by their subpackage.
_LAZY_NAMES = {
    "CampaignRunner": "campaign",
    "CampaignSpec": "campaign",
    "load_spec": "campaign",
}


def __getattr__(name: str):
    subpackage = _LAZY_NAMES.get(name)
    if subpackage is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{subpackage}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_NAMES))

__all__ = [
    "BespokeConfig",
    "CampaignRunner",
    "CampaignSpec",
    "DesignPoint",
    "EvaluationEngine",
    "EvaluationSettings",
    "FixedPointSimulator",
    "GAConfig",
    "HardwareAwareGA",
    "MLP",
    "MinimizationPipeline",
    "NormalizedPoint",
    "PipelineConfig",
    "SweepResult",
    "SynthesisReport",
    "__version__",
    "area_gain_table",
    "best_area_gain_at_loss",
    "build_mlp",
    "egt_library",
    "evaluate_dataset",
    "fast_config",
    "get_technology",
    "load_dataset",
    "load_spec",
    "monte_carlo_fault_injection",
    "pareto_front",
    "prepare_split",
    "resolve_evaluation_settings",
    "run_combined_search",
    "synthesize",
    "synthesize_baseline",
    "train_classifier",
    "train_val_test_split",
]
