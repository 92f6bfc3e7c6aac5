"""The end-to-end minimization pipeline.

:class:`MinimizationPipeline` wires together all the substrates for one
dataset: load data → train the float baseline → synthesize the un-minimized
bespoke baseline → run the standalone minimization sweeps. The combined
(GA-driven) search of Figure 2 builds on the same prepared pipeline through
:mod:`repro.search`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..bespoke.circuit import BespokeConfig
from ..bespoke.synthesis import synthesize
from ..clustering.sweep import clustering_sweep
from ..datasets.base import DataSplit
from ..datasets.preprocessing import PreparedData, prepare_split
from ..datasets.registry import get_classifier_spec, load_dataset, normalize_name
from ..datasets.base import train_val_test_split
from ..hardware.technology import TechnologyLibrary, get_technology
from ..nn.network import MLP, build_mlp
from ..nn.serialization import model_architecture
from ..nn.trainer import train_classifier
from ..pruning.sweep import pruning_sweep
from ..quantization.sweep import quantization_sweep
from . import profiling
from .config import PipelineConfig
from .pareto import area_gain_table, pareto_front
from .results import DesignPoint, SweepResult

#: The standalone techniques evaluated in Figure 1.
STANDALONE_TECHNIQUES = ("quantization", "pruning", "clustering")


@dataclass
class PreparedPipeline:
    """Artifacts shared by every sweep of one dataset evaluation."""

    config: PipelineConfig
    data: PreparedData
    baseline_model: MLP
    baseline_point: DesignPoint
    technology: TechnologyLibrary
    baseline_accuracy: float
    metadata: Dict[str, object] = field(default_factory=dict)
    #: ``"loaded"`` when the float weights came from the ``baseline`` handed
    #: to :class:`MinimizationPipeline`, ``"trained"`` when they were fitted.
    baseline_source: str = "trained"


class MinimizationPipeline:
    """Reproduces the per-dataset evaluation flow of the paper.

    Typical use::

        pipeline = MinimizationPipeline(PipelineConfig(dataset="whitewine"))
        sweep = pipeline.run()            # Figure-1 style standalone sweeps
        gains = pipeline.area_gains(sweep)  # headline numbers

    The prepared state (trained baseline, prepared data, baseline synthesis)
    is cached after the first call so repeated sweeps reuse it.

    Args:
        config: the per-dataset configuration.
        baseline: a float baseline already trained for this ``config`` (a
            campaign loads it from its cache directory). Its weights replace
            training when its architecture equals the one :func:`build_mlp`
            builds for the config; otherwise it is ignored and the baseline
            is trained. ``prepared.baseline_source`` tells which happened.
    """

    def __init__(self, config: PipelineConfig, baseline: Optional[MLP] = None) -> None:
        self.config = config
        self.baseline = baseline
        self._prepared: Optional[PreparedPipeline] = None

    # -- preparation -------------------------------------------------------------

    def prepare(self) -> PreparedPipeline:
        """Load data, train the float baseline and synthesize the baseline circuit."""
        if self._prepared is not None:
            return self._prepared
        config = self.config
        dataset_name = normalize_name(config.dataset)
        dataset = load_dataset(dataset_name, n_samples=config.n_samples)
        spec = get_classifier_spec(dataset_name)
        split: DataSplit = train_val_test_split(
            dataset,
            val_fraction=config.val_fraction,
            test_fraction=config.test_fraction,
            seed=config.seed,
        )
        data = prepare_split(split, input_bits=config.input_bits)
        technology = get_technology(config.technology)

        model = build_mlp(
            data.train.n_features,
            spec.hidden_layers,
            dataset.n_classes,
            seed=config.seed,
        )
        baseline_source = "trained"
        if self.baseline is not None and model_architecture(
            self.baseline
        ) == model_architecture(model):
            model.set_weights(self.baseline.get_weights())
            baseline_source = "loaded"
        else:
            epochs = config.train_epochs if config.train_epochs is not None else spec.epochs
            with profiling.stage("train_baseline"):
                train_classifier(
                    model,
                    data.train.features,
                    data.train.labels,
                    data.validation.features,
                    data.validation.labels,
                    epochs=epochs,
                    batch_size=spec.batch_size,
                    learning_rate=spec.learning_rate,
                    seed=config.seed,
                )
        baseline_accuracy = model.evaluate_accuracy(data.test.features, data.test.labels)

        with profiling.stage("synthesize_baseline"):
            baseline_report = synthesize(
                model,
                config=BespokeConfig(
                    input_bits=config.input_bits,
                    weight_bits=config.baseline_weight_bits,
                ),
                tech=technology,
                name=f"{dataset_name}_baseline",
            )
        baseline_point = DesignPoint(
            technique="baseline",
            accuracy=float(baseline_accuracy),
            area=baseline_report.area,
            power=baseline_report.power,
            delay=baseline_report.delay,
            parameters={
                "weight_bits": config.baseline_weight_bits,
                "input_bits": config.input_bits,
            },
            report=baseline_report,
        )
        self._prepared = PreparedPipeline(
            config=config,
            data=data,
            baseline_model=model,
            baseline_point=baseline_point,
            technology=technology,
            baseline_accuracy=float(baseline_accuracy),
            metadata={
                "dataset": dataset_name,
                "topology": model.topology(),
                "n_train": data.train.n_samples,
                "n_test": data.test.n_samples,
            },
            baseline_source=baseline_source,
        )
        return self._prepared

    # -- standalone sweeps ---------------------------------------------------------

    def run_technique(self, technique: str) -> List[DesignPoint]:
        """Run one standalone technique's sweep (Figure-1 curve)."""
        prepared = self.prepare()
        config = self.config
        if technique == "quantization":
            return quantization_sweep(
                prepared.baseline_model,
                prepared.data,
                bit_range=config.bit_range,
                input_bits=config.input_bits,
                qat_epochs=config.finetune_epochs,
                tech=prepared.technology,
                seed=config.seed,
            )
        if technique == "pruning":
            return pruning_sweep(
                prepared.baseline_model,
                prepared.data,
                sparsity_range=config.sparsity_range,
                input_bits=config.input_bits,
                weight_bits=config.baseline_weight_bits,
                finetune_epochs=config.finetune_epochs,
                tech=prepared.technology,
                seed=config.seed,
            )
        if technique == "clustering":
            return clustering_sweep(
                prepared.baseline_model,
                prepared.data,
                cluster_range=config.cluster_range,
                input_bits=config.input_bits,
                weight_bits=config.baseline_weight_bits,
                finetune_epochs=config.finetune_epochs,
                tech=prepared.technology,
                seed=config.seed,
            )
        raise ValueError(
            f"Unknown technique '{technique}'. Valid: {STANDALONE_TECHNIQUES}"
        )

    def run(
        self, techniques: Sequence[str] = STANDALONE_TECHNIQUES
    ) -> SweepResult:
        """Run the requested standalone sweeps and bundle them with the baseline."""
        prepared = self.prepare()
        sweep = SweepResult(
            dataset=prepared.metadata["dataset"],
            baseline=prepared.baseline_point,
            metadata=dict(prepared.metadata),
        )
        for technique in techniques:
            sweep.add(self.run_technique(technique))
        return sweep

    # -- combined search ---------------------------------------------------------------

    def combined_search(self, ga_config=None):
        """Run the hardware-aware GA (Figure 2's search) on this pipeline.

        Search knobs come from ``ga_config``; its worker count falls back
        to the pipeline's ``n_workers`` when unset. Returns a
        :class:`~repro.search.ga.GAResult`.
        """
        # Deferred import: repro.search imports this module.
        from ..search.ga import GAConfig, run_combined_search

        prepared = self.prepare()
        if ga_config is None:
            ga_config = GAConfig(
                finetune_epochs=self.config.finetune_epochs, seed=self.config.seed
            )
        with profiling.stage("combined_search"):
            return run_combined_search(prepared, config=ga_config)

    # -- analysis ----------------------------------------------------------------------

    def area_gains(self, sweep: SweepResult) -> Dict[str, Optional[float]]:
        """Best area gain per technique within the configured accuracy budget."""
        return area_gain_table(sweep, max_accuracy_loss=self.config.max_accuracy_loss)

    def pareto(self, sweep: SweepResult, technique: Optional[str] = None) -> List[DesignPoint]:
        """Pareto front of the sweep (optionally restricted to one technique)."""
        points = sweep.points if technique is None else sweep.by_technique(technique)
        return pareto_front(points)


def evaluate_dataset(
    dataset: str,
    config: Optional[PipelineConfig] = None,
    techniques: Sequence[str] = STANDALONE_TECHNIQUES,
) -> SweepResult:
    """One-call reproduction of a dataset's Figure-1 panel."""
    if config is None:
        config = PipelineConfig(dataset=dataset)
    elif normalize_name(config.dataset) != normalize_name(dataset):
        raise ValueError(
            f"config.dataset ({config.dataset}) does not match dataset ({dataset})"
        )
    pipeline = MinimizationPipeline(config)
    return pipeline.run(techniques)
