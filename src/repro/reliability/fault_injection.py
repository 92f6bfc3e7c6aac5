"""Fault injection for bespoke printed classifiers.

Printed fabrication is low-precision and defect-prone, so a realistic
evaluation of a hard-wired classifier asks not only "how small is it?" but
"how much accuracy does it lose when the foil is imperfect?". This module
injects the two dominant defect mechanisms of bespoke circuits into the
*effective* (hard-wired) weights and measures the accuracy impact:

* **connection faults** — an entire multiplier / routing segment is open or
  shorted, modelled as a weight forced to zero (open) or to its extreme
  representable value (short),
* **level faults** — a hard-wired coefficient is misprinted by one or more
  quantization levels (the printed analogue of a stuck-at on a low-order
  bit).

:func:`compare_fault_tolerance` uses this to compare the fault tolerance
of baseline vs minimized designs — an extension beyond the paper,
motivated by its printed-electronics setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..hardware.fixed_point import derive_format
from ..nn.network import MLP

#: Supported fault models.
FAULT_MODELS = ("open", "short", "level_shift")


@dataclass(frozen=True)
class FaultInjectionConfig:
    """Configuration of one fault-injection campaign.

    Attributes:
        fault_rate: fraction of (non-zero) connections hit by a fault.
        fault_model: ``"open"`` (weight -> 0), ``"short"`` (weight -> max
            representable magnitude, random sign) or ``"level_shift"``
            (weight moved by ±``level_shift_levels`` quantization steps).
        weight_bits: bit-width defining the level grid for ``short`` and
            ``level_shift`` faults.
        level_shift_levels: magnitude of a level-shift fault in LSBs.
        n_trials: number of independent fault realisations to average over.
        seed: RNG seed of the campaign.
        include_bias: also make the hard-wired bias (threshold) operands
            eligible fault sites. Honored by the integer-datapath Monte-Carlo
            kernels in :mod:`repro.reliability.monte_carlo`; the float-model
            :func:`inject_faults` path perturbs weights only.
    """

    fault_rate: float = 0.05
    fault_model: str = "open"
    weight_bits: int = 8
    level_shift_levels: int = 1
    n_trials: int = 10
    seed: int = 0
    include_bias: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError(f"fault_rate must be in [0, 1], got {self.fault_rate}")
        if self.fault_model not in FAULT_MODELS:
            raise ValueError(
                f"fault_model must be one of {FAULT_MODELS}, got '{self.fault_model}'"
            )
        if self.weight_bits < 2:
            raise ValueError(f"weight_bits must be >= 2, got {self.weight_bits}")
        if self.level_shift_levels < 1:
            raise ValueError("level_shift_levels must be >= 1")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")


@dataclass
class FaultInjectionResult:
    """Outcome of a fault-injection campaign."""

    config: FaultInjectionConfig
    fault_free_accuracy: float
    mean_accuracy: float
    worst_accuracy: float
    accuracy_per_trial: List[float] = field(default_factory=list)
    faults_per_trial: List[int] = field(default_factory=list)

    @property
    def mean_accuracy_drop(self) -> float:
        """Average absolute accuracy lost to the injected faults."""
        return self.fault_free_accuracy - self.mean_accuracy

    @property
    def accuracy_std(self) -> float:
        """Population standard deviation of the per-trial accuracies."""
        if not self.accuracy_per_trial:
            return 0.0
        return float(np.std(np.asarray(self.accuracy_per_trial, dtype=np.float64)))

    def as_dict(self) -> Dict[str, object]:
        return {
            "fault_model": self.config.fault_model,
            "fault_rate": self.config.fault_rate,
            "fault_free_accuracy": self.fault_free_accuracy,
            "mean_accuracy": self.mean_accuracy,
            "worst_accuracy": self.worst_accuracy,
            "mean_accuracy_drop": self.mean_accuracy_drop,
            "accuracy_std": self.accuracy_std,
            "n_trials": self.config.n_trials,
        }


def inject_faults(
    model: MLP, config: FaultInjectionConfig, rng: np.random.Generator
) -> int:
    """Inject one fault realisation into ``model`` (in place).

    Only connections that are non-zero in the effective weights are eligible
    (a pruned connection has no hardware to fail). Returns the number of
    faults injected.
    """
    n_faults = 0
    for layer in model.dense_layers:
        effective = layer.effective_weights()
        eligible = np.argwhere(effective != 0.0)
        if eligible.size == 0:
            continue
        n_hit = int(round(config.fault_rate * len(eligible)))
        if n_hit == 0:
            continue
        hit_rows = rng.choice(len(eligible), size=n_hit, replace=False)
        fmt = derive_format(effective, config.weight_bits)
        weights = layer.weights.copy()
        for row_index in hit_rows:
            i, j = eligible[row_index]
            if config.fault_model == "open":
                weights[i, j] = 0.0
            elif config.fault_model == "short":
                sign = 1.0 if rng.random() < 0.5 else -1.0
                weights[i, j] = sign * fmt.max_level * fmt.scale
            else:  # level_shift
                direction = 1.0 if rng.random() < 0.5 else -1.0
                weights[i, j] = weights[i, j] + direction * config.level_shift_levels * fmt.scale
            n_faults += 1
        layer.weights = weights
    return n_faults


def run_fault_injection(
    model: MLP,
    features: np.ndarray,
    labels: np.ndarray,
    config: Optional[FaultInjectionConfig] = None,
) -> FaultInjectionResult:
    """Run a full campaign: ``n_trials`` independent fault realisations.

    The input model is never modified; every trial works on a fresh clone.
    """
    config = config if config is not None else FaultInjectionConfig()
    rng = np.random.default_rng(config.seed)
    fault_free = float(model.evaluate_accuracy(features, labels))

    accuracies: List[float] = []
    fault_counts: List[int] = []
    for _ in range(config.n_trials):
        candidate = model.clone()
        fault_counts.append(inject_faults(candidate, config, rng))
        accuracies.append(float(candidate.evaluate_accuracy(features, labels)))

    return FaultInjectionResult(
        config=config,
        fault_free_accuracy=fault_free,
        mean_accuracy=float(np.mean(accuracies)),
        worst_accuracy=float(np.min(accuracies)),
        accuracy_per_trial=accuracies,
        faults_per_trial=fault_counts,
    )


def fault_rate_sweep(
    model: MLP,
    features: np.ndarray,
    labels: np.ndarray,
    fault_rates: Sequence[float] = (0.01, 0.02, 0.05, 0.1),
    fault_model: str = "open",
    n_trials: int = 10,
    weight_bits: int = 8,
    seed: int = 0,
) -> List[FaultInjectionResult]:
    """Accuracy degradation as a function of the defect rate."""
    results = []
    for rate in fault_rates:
        config = FaultInjectionConfig(
            fault_rate=float(rate),
            fault_model=fault_model,
            weight_bits=weight_bits,
            n_trials=n_trials,
            seed=seed,
        )
        results.append(run_fault_injection(model, features, labels, config))
    return results


def compare_fault_tolerance(
    designs: Dict[str, MLP],
    features: np.ndarray,
    labels: np.ndarray,
    config: Optional[FaultInjectionConfig] = None,
) -> Dict[str, FaultInjectionResult]:
    """Run the same campaign on several designs (e.g. baseline vs minimized)."""
    return {
        name: run_fault_injection(model, features, labels, config)
        for name, model in designs.items()
    }
