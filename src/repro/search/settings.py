"""Evaluation settings and the single resolver that produces them.

:func:`resolve_evaluation_settings` is the one place search knobs turn into
:class:`EvaluationSettings`. The GA driver, the campaign runner and the
CLI all go through it, so the knobs can never resolve differently between
subsystems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..reliability.fault_injection import FAULT_MODELS, FaultInjectionConfig


@dataclass(frozen=True)
class EvaluationSettings:
    """Knobs of the per-genome evaluation.

    Attributes:
        finetune_epochs: joint fine-tuning epochs (0 = no retraining, pure
            post-training evaluation — used by the GA ablation).
        finetune_learning_rate: learning rate of the joint fine-tuning pass.
        per_position_clustering: cluster per input position (paper scheme).
        simulate_accuracy: measure test accuracy on the bit-accurate
            fixed-point simulator (batched integer datapath) instead of the
            float software model, so the search optimizes the deployed
            circuit's accuracy rather than its floating-point proxy.
        fault_rate: fraction of hard-wired connections hit per Monte-Carlo
            fault-injection trial. With ``n_fault_trials`` > 0 every design
            point gains ``robust_accuracy``/``accuracy_std``, measured on
            the deployed circuit's integer datapath with per-(genome, trial)
            SHA-256-derived fault patterns. Default 0.0 — robustness off,
            evaluation byte-identical to earlier versions. These settings
            are part of the campaign cache's evaluation-context key, so
            robust and non-robust evaluations can never collide in a shared
            persistent cache.
        n_fault_trials: Monte-Carlo trials per design point (0 = off).
        fault_model: defect mechanism injected (one of
            :data:`repro.reliability.FAULT_MODELS`).
    """

    finetune_epochs: int = 8
    finetune_learning_rate: float = 0.003
    per_position_clustering: bool = True
    simulate_accuracy: bool = False
    fault_rate: float = 0.0
    n_fault_trials: int = 0
    fault_model: str = "open"

    def __post_init__(self) -> None:
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError(f"fault_rate must be in [0, 1], got {self.fault_rate}")
        if self.n_fault_trials < 0:
            raise ValueError(f"n_fault_trials must be >= 0, got {self.n_fault_trials}")
        if self.fault_model not in FAULT_MODELS:
            raise ValueError(
                f"fault_model must be one of {FAULT_MODELS}, got '{self.fault_model}'"
            )

    @property
    def robustness_enabled(self) -> bool:
        """True when evaluations measure Monte-Carlo fault tolerance."""
        return self.fault_rate > 0.0 and self.n_fault_trials > 0

    def fault_config(self, seed: Optional[int]) -> FaultInjectionConfig:
        """The per-design fault campaign these settings describe.

        ``seed`` is the design's derived evaluation seed — each (genome,
        trial) pair then gets its own SHA-256-derived fault pattern via
        :func:`repro.reliability.fault_trial_seed`. ``weight_bits`` is
        irrelevant here (the simulator's own formats define the level grid).
        """
        return FaultInjectionConfig(
            fault_rate=self.fault_rate,
            fault_model=self.fault_model,
            n_trials=self.n_fault_trials,
            seed=0 if seed is None else int(seed),
        )


#: The evaluation knobs a random or grid search entry may set.
FAULT_KNOBS = ("fault_rate", "n_fault_trials", "fault_model")


def resolve_evaluation_settings(
    pipeline_config=None, ga_config=None, **knobs
) -> EvaluationSettings:
    """The evaluation settings of one search.

    A GA carries its own fine-tuning budget and fault knobs on
    ``ga_config``. A random or grid search fine-tunes for the pipeline's
    ``finetune_epochs`` and takes its :data:`FAULT_KNOBS` as keywords.
    Knobs left out keep the :class:`EvaluationSettings` defaults, as does a
    call with no config at all.
    """
    if ga_config is not None:
        if knobs:
            raise TypeError("a GA search takes its knobs from ga_config alone")
        knobs = {name: getattr(ga_config, name) for name in ("finetune_epochs",) + FAULT_KNOBS}
    elif pipeline_config is not None:
        knobs.setdefault("finetune_epochs", pipeline_config.finetune_epochs)
    return EvaluationSettings(**knobs)


__all__ = [
    "EvaluationSettings",
    "resolve_evaluation_settings",
]
