"""Surrogate-assisted GA integration tests.

The headline guarantee is the golden A/B: with every surrogate knob left
off, the GA's serialized fronts are byte-identical to the pinned
``tests/data/surrogate_off_front_golden.json`` captured before the
surrogate subsystem existed. The remaining tests cover the surrogate-on
path: fewer real evaluations, determinism, measured-points-only fronts,
successive halving and spec/CLI wiring.
"""

import json
from pathlib import Path

import pytest

from repro.campaign import SearchSpec, evaluation_context_key
from repro.cli import build_parser
from repro.core import MinimizationPipeline, PipelineConfig, hypervolume_objectives
from repro.search import (
    GAConfig,
    HardwareAwareGA,
    objectives_of,
    resolve_evaluation_settings,
)

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "surrogate_off_front_golden.json"


def golden_pipeline_config() -> PipelineConfig:
    """Must match tests/data/capture_surrogate_golden.py exactly."""
    return PipelineConfig(
        dataset="seeds", train_epochs=5, n_samples=150, finetune_epochs=2
    )


def golden_ga_config(robust: bool = False, **overrides) -> GAConfig:
    knobs = dict(population_size=6, n_generations=2, finetune_epochs=2, seed=0)
    if robust:
        knobs.update(fault_rate=0.05, n_fault_trials=4)
    knobs.update(overrides)
    return GAConfig(**knobs)


@pytest.fixture(scope="module")
def golden_prepared():
    return MinimizationPipeline(golden_pipeline_config()).prepare()


def front_document(prepared, config: GAConfig) -> dict:
    result = HardwareAwareGA(prepared, config=config).run()
    return {
        "baseline": prepared.baseline_point.as_dict(),
        "front": [point.as_dict() for point in result.front],
        "n_evaluations": result.n_evaluations,
    }


def serialize(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True)


class TestSurrogateOffGolden:
    """Surrogate off => byte-identical behavior to the pre-surrogate GA."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    def test_two_objective_front_byte_identical(self, golden_prepared, golden):
        document = front_document(golden_prepared, golden_ga_config(robust=False))
        assert serialize(document) == serialize(golden["two_objective"])

    def test_three_objective_front_byte_identical(self, golden_prepared, golden):
        document = front_document(golden_prepared, golden_ga_config(robust=True))
        assert serialize(document) == serialize(golden["three_objective"])

    def test_off_run_reports_no_surrogate_stats(self, golden_prepared):
        result = HardwareAwareGA(
            golden_prepared, config=golden_ga_config()
        ).run()
        assert result.n_partial_evaluations == 0
        for stats in result.generations:
            assert "surrogate_fits" not in stats
            assert "partial_evaluations" not in stats


class TestSurrogateOnGA:
    def _run(self, prepared, **overrides):
        config = golden_ga_config(surrogate="ridge", **overrides)
        return HardwareAwareGA(prepared, config=config).run()

    def test_saves_real_evaluations(self, golden_prepared):
        off = HardwareAwareGA(golden_prepared, config=golden_ga_config()).run()
        on = self._run(golden_prepared, n_generations=3)
        # Off: pop + ~pop offspring/gen. On: pop + prefiltered fraction/gen.
        per_generation_off = (off.n_evaluations - 6) / 2
        per_generation_on = (on.n_evaluations - 6) / 3
        assert per_generation_on < per_generation_off

    def test_deterministic(self, golden_prepared):
        first = self._run(golden_prepared)
        second = self._run(golden_prepared)
        assert serialize([p.as_dict() for p in first.front]) == serialize(
            [p.as_dict() for p in second.front]
        )
        assert first.n_evaluations == second.n_evaluations

    def test_front_contains_only_measured_points(self, golden_prepared):
        result = self._run(golden_prepared)
        measured = {serialize(p.as_dict()) for p in result.all_points}
        assert all(serialize(p.as_dict()) in measured for p in result.front)

    def test_generation_stats_carry_surrogate_counters(self, golden_prepared):
        result = self._run(golden_prepared)
        assert result.generations
        for stats in result.generations:
            assert "offspring_evaluated" in stats
            assert "surrogate_fits" in stats
            assert "partial_evaluations" in stats
        assert result.n_partial_evaluations == 0  # no halving configured

    def test_halving_runs_partial_evaluations(self, golden_prepared):
        result = self._run(golden_prepared, halving_budgets=(1,))
        assert result.n_partial_evaluations > 0
        again = self._run(golden_prepared, halving_budgets=(1,))
        assert result.n_partial_evaluations == again.n_partial_evaluations
        assert serialize([p.as_dict() for p in result.front]) == serialize(
            [p.as_dict() for p in again.front]
        )

    def test_mlp_surrogate_runs(self, golden_prepared):
        result = HardwareAwareGA(
            golden_prepared,
            config=golden_ga_config(surrogate="mlp", surrogate_candidates=2),
        ).run()
        assert result.front
        assert result.generations[-1]["surrogate_fits"] >= 0


class TestEvaluationsSavedFloor:
    """The surrogate's acceptance floor on the 3-objective figure2 workload.

    A plain NSGA-II run and a surrogate-assisted run share the pipeline and
    the GA budget of one configuration. The assisted run must use at least
    ``min_saved`` times fewer real evaluations while keeping at least
    :data:`MIN_HYPERVOLUME_RATIO` of the plain run's hypervolume, and its
    short-budget halving races must cost less than the evaluations saved.
    Both runs are seeded, so every number is reproducible bit for bit.
    """

    #: Fixed nadir for the minimized objectives (accuracy loss, normalized
    #: area, robust accuracy loss): all three are <= 1 for any point that
    #: beats "predict nothing", so hypervolumes stay comparable across runs.
    REFERENCE = (1.1, 1.1, 1.1)
    MIN_HYPERVOLUME_RATIO = 0.98
    FINETUNE_EPOCHS = 4

    #: name -> (GA budget, surrogate knobs, minimum evaluations saved).
    CONFIGURATIONS = {
        "smoke": (
            dict(population_size=10, n_generations=20),
            dict(surrogate_candidates=4, surrogate_prefilter=0.2),
            3.0,
        ),
        "default": (
            dict(population_size=20, n_generations=20),
            dict(surrogate_candidates=8, surrogate_prefilter=0.1),
            5.0,
        ),
        "full": (
            dict(population_size=20, n_generations=28),
            dict(surrogate_candidates=8, surrogate_prefilter=0.1),
            5.0,
        ),
    }

    @pytest.fixture(scope="class")
    def prepared(self):
        return MinimizationPipeline(
            PipelineConfig(
                dataset="whitewine",
                seed=0,
                train_epochs=25,
                finetune_epochs=self.FINETUNE_EPOCHS,
                bit_range=(2, 4, 6),
                sparsity_range=(0.3, 0.5),
                cluster_range=(2, 4),
                n_samples=500,
            )
        ).prepare()

    def _hypervolume(self, result, prepared):
        objectives = [
            objectives_of(point, prepared.baseline_point, robust=True)
            for point in result.front
        ]
        return hypervolume_objectives(objectives, self.REFERENCE)

    @pytest.mark.parametrize("configuration", list(CONFIGURATIONS))
    def test_fewer_real_evaluations_at_kept_hypervolume(self, prepared, configuration):
        budget, surrogate_knobs, min_saved = self.CONFIGURATIONS[configuration]
        budgets = (1, 2)
        shared = dict(
            finetune_epochs=self.FINETUNE_EPOCHS, seed=0, fault_rate=0.05,
            n_fault_trials=4, **budget,
        )
        plain = HardwareAwareGA(prepared, config=GAConfig(**shared)).run()
        assisted = HardwareAwareGA(
            prepared,
            config=GAConfig(
                surrogate="ridge", halving_budgets=budgets, **surrogate_knobs, **shared
            ),
        ).run()

        evaluations_saved = plain.n_evaluations / assisted.n_evaluations
        hypervolume_ratio = self._hypervolume(assisted, prepared) / self._hypervolume(
            plain, prepared
        )
        assert evaluations_saved >= min_saved
        assert hypervolume_ratio >= self.MIN_HYPERVOLUME_RATIO
        # The short-budget races cost budget/finetune_epochs of a full
        # evaluation each; a runaway halving schedule must not eat the win.
        saved = plain.n_evaluations - assisted.n_evaluations
        partial_cost = sum(
            assisted.n_partial_evaluations * b / (self.FINETUNE_EPOCHS * len(budgets))
            for b in budgets
        )
        assert partial_cost < saved


class TestKnobValidationAndInheritance:
    def test_ga_config_rejects_unknown_surrogate(self):
        with pytest.raises(ValueError, match="surrogate"):
            GAConfig(surrogate="forest")

    def test_ga_config_rejects_bad_candidates(self):
        with pytest.raises(ValueError, match="surrogate_candidates"):
            GAConfig(surrogate_candidates=0)

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_ga_config_rejects_bad_prefilter(self, fraction):
        with pytest.raises(ValueError, match="surrogate_prefilter"):
            GAConfig(surrogate_prefilter=fraction)

    @pytest.mark.parametrize("budgets", [(2, 1), (1, 1), (0,), (-1, 2)])
    def test_ga_config_rejects_bad_halving_budgets(self, budgets):
        with pytest.raises(ValueError, match="halving_budgets"):
            GAConfig(halving_budgets=budgets)

    def test_off_by_default(self, golden_prepared):
        ga = HardwareAwareGA(golden_prepared, config=golden_ga_config())
        assert ga.config.surrogate is None
        assert ga.assistant is None


class TestContextKeySharing:
    """Surrogate knobs steer the search, not evaluations — keys must match."""

    def test_context_key_ignores_surrogate_knobs(self):
        config = PipelineConfig(dataset="seeds", train_epochs=5)
        assisted = GAConfig(
            surrogate="ridge",
            surrogate_candidates=8,
            surrogate_prefilter=0.5,
            halving_budgets=(1, 3),
        )
        key = evaluation_context_key(
            config, resolve_evaluation_settings(ga_config=GAConfig()), seed=0
        )
        assert key == evaluation_context_key(
            config, resolve_evaluation_settings(ga_config=assisted), seed=0
        )
        # A knob that does change evaluation results still changes the key.
        retrained = PipelineConfig(dataset="seeds", train_epochs=6)
        assert key != evaluation_context_key(
            retrained, resolve_evaluation_settings(ga_config=GAConfig()), seed=0
        )


class TestCampaignSpecWiring:
    def test_ga_spec_accepts_surrogate_params(self):
        spec = SearchSpec.from_dict(
            {
                "algorithm": "ga",
                "surrogate": "ridge",
                "surrogate_candidates": 2,
                "surrogate_prefilter": 0.5,
                "halving_budgets": [1, 2],
            }
        )
        params = spec.param_dict()
        assert params["surrogate"] == "ridge"
        config = GAConfig(**params)
        assert config.halving_budgets == (1, 2)

    def test_non_ga_spec_rejects_surrogate_params(self):
        with pytest.raises(ValueError, match="surrogate"):
            SearchSpec.from_dict({"algorithm": "random", "surrogate": "ridge"})


class TestCLIWiring:
    def test_figure2_accepts_surrogate_flags(self):
        args = build_parser().parse_args(
            [
                "figure2",
                "--surrogate",
                "ridge",
                "--surrogate-candidates",
                "3",
                "--surrogate-prefilter",
                "0.5",
                "--halving-budgets",
                "1,3",
            ]
        )
        assert args.surrogate == "ridge"
        assert args.surrogate_candidates == 3
        assert args.surrogate_prefilter == 0.5
        assert args.halving_budgets == (1, 3)

    def test_surrogate_off_by_default(self):
        args = build_parser().parse_args(["figure2"])
        assert args.surrogate is None
        assert args.halving_budgets == ()

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure2", "--surrogate", "forest"],
            ["figure2", "--surrogate-prefilter", "0"],
            ["figure2", "--surrogate-prefilter", "1.5"],
            ["figure2", "--surrogate-candidates", "0"],
            ["figure2", "--halving-budgets", "3,1"],
            ["figure2", "--halving-budgets", "0"],
            ["figure2", "--halving-budgets", "nope"],
        ],
    )
    def test_rejects_invalid_surrogate_flags(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
