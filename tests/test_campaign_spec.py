"""Campaign spec parsing, validation, grid expansion and sharding."""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    JobSpec,
    SearchSpec,
    load_spec,
    parse_shard,
    select_shard,
)
from repro.core import PipelineConfig
from repro.core.config import fast_config
from repro.datasets import resolve_dataset_names


def _spec_dict(**overrides):
    base = {
        "name": "unit",
        "datasets": ["seeds", "redwine"],
        "seeds": [0, 1],
        "pipeline": {"train_epochs": 3, "n_samples": 120},
        "searches": [
            {"algorithm": "ga", "population_size": 6, "n_generations": 2},
            {"algorithm": "random", "n_evaluations": 4},
        ],
    }
    base.update(overrides)
    return base


class TestResolveDatasetNames:
    def test_all_expands_to_paper_datasets(self):
        assert resolve_dataset_names("all") == ("whitewine", "redwine", "pendigits", "seeds")
        assert resolve_dataset_names(None) == ("whitewine", "redwine", "pendigits", "seeds")

    def test_accepts_paper_spellings_and_dedupes(self):
        assert resolve_dataset_names(["WhiteWine", "whitewine", "Seeds"]) == (
            "whitewine",
            "seeds",
        )

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            resolve_dataset_names(["not-a-dataset"])

    def test_empty_selection_raises(self):
        with pytest.raises(ValueError):
            resolve_dataset_names([])


class TestSearchSpec:
    def test_defaults_name_to_algorithm(self):
        search = SearchSpec.from_dict({"algorithm": "random", "n_evaluations": 8})
        assert search.name == "random"
        assert search.param_dict() == {"n_evaluations": 8}

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="Unknown search algorithm"):
            SearchSpec.from_dict({"algorithm": "simulated-annealing"})

    def test_rejects_unknown_params(self):
        with pytest.raises(ValueError, match="Unknown parameters"):
            SearchSpec.from_dict({"algorithm": "random", "population_size": 8})

    def test_rejects_removed_backend_param(self):
        with pytest.raises(ValueError, match="Unknown parameters"):
            SearchSpec.from_dict({"algorithm": "ga", "backend": "numpy"})

    @pytest.mark.parametrize("algorithm", ["random", "grid"])
    def test_fault_knobs_accepted_on_random_and_grid(self, algorithm):
        faults = {"fault_rate": 0.05, "n_fault_trials": 4, "fault_model": "short"}
        spec = SearchSpec.from_dict({"algorithm": algorithm, **faults})
        assert spec.param_dict() == faults

    @pytest.mark.parametrize("knob, value", [("stacked", False), ("cache_size", 4)])
    def test_engine_knobs_stay_ga_only(self, knob, value):
        spec = SearchSpec.from_dict({"algorithm": "ga", knob: value})
        assert spec.param_dict() == {knob: value}
        with pytest.raises(ValueError, match=knob):
            SearchSpec.from_dict({"algorithm": "random", knob: value})

    @pytest.mark.parametrize("bad_name", ["ga/v2", "..", "a b", ".hidden", ""])
    def test_rejects_path_unsafe_names(self, bad_name):
        # Search names become job directory components.
        with pytest.raises(ValueError, match="invalid"):
            SearchSpec.from_dict({"algorithm": "ga", "name": bad_name})

    def test_roundtrips_through_dict(self):
        search = SearchSpec.from_dict(
            {"algorithm": "grid", "name": "coarse", "bit_choices": [3, 4]}
        )
        assert SearchSpec.from_dict(search.as_dict()) == search


class TestCampaignSpec:
    def test_expansion_is_the_full_grid_in_order(self):
        spec = CampaignSpec.from_dict(_spec_dict())
        jobs = spec.expand()
        assert [job.job_id for job in jobs] == [
            "seeds-ga-s0",
            "seeds-ga-s1",
            "seeds-random-s0",
            "seeds-random-s1",
            "redwine-ga-s0",
            "redwine-ga-s1",
            "redwine-random-s0",
            "redwine-random-s1",
        ]
        assert all(job.pipeline_overrides() == {"train_epochs": 3, "n_samples": 120}
                   for job in jobs)

    def test_duplicate_search_names_rejected(self):
        data = _spec_dict(searches=[
            {"algorithm": "random", "n_evaluations": 2},
            {"algorithm": "random", "n_evaluations": 4},
        ])
        with pytest.raises(ValueError, match="unique"):
            CampaignSpec.from_dict(data)

    def test_unknown_pipeline_override_rejected(self):
        with pytest.raises(ValueError, match="Unknown pipeline overrides"):
            CampaignSpec.from_dict(_spec_dict(pipeline={"not_a_field": 1}))

    def test_removed_backend_override_rejected(self):
        with pytest.raises(ValueError, match="Unknown pipeline overrides"):
            CampaignSpec.from_dict(_spec_dict(pipeline={"backend": "numpy"}))

    @pytest.mark.parametrize(
        "knob",
        [
            "stacked",
            "cache_size",
            "fault_rate",
            "n_fault_trials",
            "fault_model",
            "surrogate",
            "surrogate_candidates",
            "surrogate_prefilter",
            "halving_budgets",
        ],
    )
    def test_search_knob_under_pipeline_points_to_the_search_entry(self, knob):
        pipeline = {"train_epochs": 3, knob: 1}
        with pytest.raises(ValueError, match=rf"\['{knob}'\].*search entry"):
            CampaignSpec.from_dict(_spec_dict(pipeline=pipeline))

    @pytest.mark.parametrize(
        "search, message",
        [
            ({"algorithm": "random", "n_evaluations": 2, "fault_rate": 1.5}, "fault_rate"),
            ({"algorithm": "ga", "population_size": 2}, "population_size"),
            ({"algorithm": "grid", "fault_model": "bridging"}, "fault_model"),
            ({"algorithm": "ga", "halving_budgets": [2, 1]}, "halving_budgets"),
        ],
        ids=["random-fault_rate", "ga-population_size", "grid-fault_model", "ga-halving"],
    )
    def test_bad_search_values_fail_at_load(self, search, message):
        # Rejected before expansion, instead of failing every job at run time.
        with pytest.raises(ValueError, match=rf"'{search['algorithm']}'.*{message}"):
            CampaignSpec.from_dict(_spec_dict(searches=[search]))

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ValueError, match="Unknown campaign fields"):
            CampaignSpec.from_dict(_spec_dict(extra_field=1))

    def test_duplicate_seeds_are_deduplicated(self):
        # Duplicate seeds would collide on job_id and run jobs twice.
        spec = CampaignSpec.from_dict(_spec_dict(seeds=[0, 0, 1]))
        assert spec.seeds == (0, 1)
        job_ids = [job.job_id for job in spec.expand()]
        assert len(job_ids) == len(set(job_ids))

    def test_fingerprint_stable_and_sensitive(self):
        spec_a = CampaignSpec.from_dict(_spec_dict())
        spec_b = CampaignSpec.from_dict(_spec_dict())
        spec_c = CampaignSpec.from_dict(_spec_dict(seeds=[0]))
        assert spec_a.fingerprint() == spec_b.fingerprint()
        assert spec_a.fingerprint() != spec_c.fingerprint()

    def test_roundtrips_through_dict(self):
        spec = CampaignSpec.from_dict(_spec_dict())
        assert CampaignSpec.from_dict(spec.as_dict()) == spec


class TestJobSpec:
    def test_pipeline_config_applies_overrides(self):
        spec = CampaignSpec.from_dict(_spec_dict())
        config = spec.expand()[0].pipeline_config()
        assert isinstance(config, PipelineConfig)
        assert config.dataset == "seeds"
        assert config.train_epochs == 3
        assert config.n_samples == 120
        assert config.seed == 0

    def test_fast_override_starts_from_fast_config(self):
        spec = CampaignSpec.from_dict(
            _spec_dict(pipeline={"fast": True, "finetune_epochs": 2})
        )
        config = spec.expand()[1].pipeline_config()  # seeds, seed 1
        reference = fast_config("seeds", seed=1)
        assert config.train_epochs == reference.train_epochs
        assert config.bit_range == reference.bit_range
        assert config.finetune_epochs == 2  # override on top of fast_config

    def test_roundtrips_through_dict(self):
        job = CampaignSpec.from_dict(_spec_dict()).expand()[0]
        assert JobSpec.from_dict(job.as_dict()) == job


class TestSharding:
    def test_parse_shard(self):
        assert parse_shard(None) is None
        assert parse_shard("0/2") == (0, 2)
        assert parse_shard("1/3") == (1, 3)

    @pytest.mark.parametrize("bad", ["2/2", "-1/2", "1", "a/b", "1/0"])
    def test_parse_shard_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_shard(bad)

    def test_select_shard_partitions_jobs(self):
        jobs = CampaignSpec.from_dict(_spec_dict()).expand()
        shard_0 = select_shard(jobs, (0, 2))
        shard_1 = select_shard(jobs, (1, 2))
        assert len(shard_0) + len(shard_1) == len(jobs)
        assert {job.job_id for job in shard_0} | {job.job_id for job in shard_1} == {
            job.job_id for job in jobs
        }
        assert not {job.job_id for job in shard_0} & {job.job_id for job in shard_1}
        assert select_shard(jobs, None) == jobs


class TestLoadSpec:
    def test_loads_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_spec_dict()))
        assert load_spec(path) == CampaignSpec.from_dict(_spec_dict())

    def test_loads_yaml(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "spec.yaml"
        path.write_text(yaml.safe_dump(_spec_dict()))
        assert load_spec(path) == CampaignSpec.from_dict(_spec_dict())

    def test_non_mapping_spec_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError, match="mapping"):
            load_spec(path)
