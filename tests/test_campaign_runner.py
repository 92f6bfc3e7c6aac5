"""Campaign runner: execution, resume bit-identity, sharding, reporting.

The golden guarantee pinned down here is the ISSUE-4 acceptance criterion:
a campaign over two datasets killed mid-run (between jobs *or* in the
middle of a job's evaluations) and resumed produces fronts byte-identical
to the uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    PersistentEvaluationCache,
    build_report,
    campaign_status,
    execute_job,
    format_report,
    write_report,
)
from repro.core import MinimizationPipeline
from repro.search import EvaluationSettings, GAConfig, HardwareAwareGA, SerialEvaluator

#: Small enough to keep every runner test under a second per campaign.
_PIPELINE = {"train_epochs": 3, "n_samples": 120, "finetune_epochs": 1}


def _spec(searches=None, datasets=("seeds", "redwine"), seeds=(0,)):
    return CampaignSpec.from_dict(
        {
            "name": "runner-test",
            "datasets": list(datasets),
            "seeds": list(seeds),
            "pipeline": dict(_PIPELINE),
            "searches": searches
            or [{"algorithm": "random", "n_evaluations": 3}],
        }
    )


def _front_bytes(directory, job_id):
    return (directory / "jobs" / job_id / "front.json").read_bytes()


class TestRunnerBasics:
    def test_runs_all_jobs_and_journals(self, tmp_path):
        spec = _spec()
        summary = CampaignRunner(spec, tmp_path / "camp").run()
        assert summary.ok
        assert summary.completed == 2
        status = campaign_status(tmp_path / "camp")
        assert status["completed"] == 2 and status["pending"] == 0
        front = json.loads(_front_bytes(tmp_path / "camp", "seeds-random-s0"))
        assert front["dataset"] == "seeds"
        assert front["front"], "front must not be empty"
        assert front["baseline"]["technique"] == "baseline"

    def test_rerun_is_a_noop(self, tmp_path):
        spec = _spec()
        CampaignRunner(spec, tmp_path / "camp").run()
        summary = CampaignRunner(spec, tmp_path / "camp").run()
        assert summary.outcomes == [] and summary.remaining == 0
        assert summary.completed_before == 2

    def test_spec_mismatch_is_rejected(self, tmp_path):
        CampaignRunner(_spec(), tmp_path / "camp").run()
        edited = _spec(seeds=(0, 1))
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            CampaignRunner(edited, tmp_path / "camp").run()

    def test_max_jobs_bounds_one_drain(self, tmp_path):
        spec = _spec()
        summary = CampaignRunner(spec, tmp_path / "camp").run(max_jobs=1)
        assert summary.completed == 1 and summary.remaining == 1
        summary = CampaignRunner(spec, tmp_path / "camp").run()
        assert summary.completed == 1 and summary.remaining == 0

    def test_shards_partition_the_campaign(self, tmp_path):
        from repro.campaign import CampaignJournal

        spec = _spec()
        CampaignRunner(spec, tmp_path / "camp", shard="0/2").run()
        status = campaign_status(tmp_path / "camp")
        assert status["completed"] == 1 and status["pending"] == 1
        # A finished shard must NOT declare the whole campaign complete.
        events = [e["event"] for e in CampaignJournal(tmp_path / "camp").events()]
        assert "campaign_completed" not in events
        CampaignRunner(spec, tmp_path / "camp", shard="1/2").run()
        status = campaign_status(tmp_path / "camp")
        assert status["completed"] == 2 and status["pending"] == 0
        events = [e["event"] for e in CampaignJournal(tmp_path / "camp").events()]
        assert "campaign_completed" in events

    def test_cache_bound_reaches_the_persistent_cache(self, tmp_path):
        bounds_seen = {}

        def recording_factory(cache_dir, context_key, max_entries):
            cache = PersistentEvaluationCache(
                cache_dir, context_key, max_entries=max_entries
            )
            bounds_seen[context_key] = max_entries
            return cache

        spec = _spec(
            datasets=("seeds",),
            searches=[
                {"algorithm": "ga", "population_size": 6, "n_generations": 1,
                 "finetune_epochs": 1, "cache_size": 5},
            ],
        )
        summary = CampaignRunner(
            spec, tmp_path / "camp", cache_factory=recording_factory
        ).run()
        assert summary.ok
        assert list(bounds_seen.values()) == [5]

    def test_failed_job_does_not_sink_the_campaign(self, tmp_path):
        # A random search of zero evaluations loads but fails at job start.
        spec = _spec(
            searches=[
                {"algorithm": "random", "name": "empty", "n_evaluations": 0},
                {"algorithm": "random", "n_evaluations": 2},
            ]
        )
        summary = CampaignRunner(spec, tmp_path / "camp").run()
        assert summary.failed == 2  # one empty job per dataset
        assert summary.completed == 2  # random jobs unaffected
        status = campaign_status(tmp_path / "camp")
        assert status["failed"] == 2


class TestResumeBitIdentity:
    """Killed campaigns resume byte-identically (the golden criterion)."""

    GA_SEARCH = [
        {"algorithm": "ga", "population_size": 6, "n_generations": 2,
         "finetune_epochs": 1}
    ]

    def test_between_job_interruption(self, tmp_path):
        spec = _spec(searches=self.GA_SEARCH)
        CampaignRunner(spec, tmp_path / "a").run()
        # Interrupt after the first job, then resume.
        CampaignRunner(spec, tmp_path / "b").run(max_jobs=1)
        CampaignRunner(spec, tmp_path / "b").run()
        for job in spec.expand():
            assert _front_bytes(tmp_path / "a", job.job_id) == _front_bytes(
                tmp_path / "b", job.job_id
            )

    def test_mid_job_crash_resumes_bit_identically(self, tmp_path):
        spec = _spec(searches=self.GA_SEARCH)
        CampaignRunner(spec, tmp_path / "a").run()

        def crashing_factory(cache_dir, context_key, max_entries):
            return PersistentEvaluationCache(
                cache_dir, context_key, max_entries=max_entries, fail_after_puts=4
            )

        crashed = CampaignRunner(
            spec, tmp_path / "b", cache_factory=crashing_factory
        ).run()
        assert crashed.failed == 2  # both jobs died mid-evaluation
        resumed = CampaignRunner(spec, tmp_path / "b").run()
        assert resumed.ok and resumed.completed == 2
        for job in spec.expand():
            assert _front_bytes(tmp_path / "a", job.job_id) == _front_bytes(
                tmp_path / "b", job.job_id
            )

    def test_resume_fast_forwards_through_the_cache(self, tmp_path):
        spec = _spec(searches=self.GA_SEARCH, datasets=("seeds",))
        uninterrupted = CampaignRunner(spec, tmp_path / "a").run()
        full_evaluations = uninterrupted.outcomes[0].n_evaluations

        def crashing_factory(cache_dir, context_key, max_entries):
            return PersistentEvaluationCache(
                cache_dir, context_key, max_entries=max_entries, fail_after_puts=4
            )

        CampaignRunner(spec, tmp_path / "b", cache_factory=crashing_factory).run()
        resumed = CampaignRunner(spec, tmp_path / "b").run()
        # The 4 genomes journaled before the crash are served from disk.
        assert resumed.outcomes[0].n_evaluations == full_evaluations - 4

    def test_no_cache_mode_still_resumes_identically(self, tmp_path):
        spec = _spec()
        CampaignRunner(spec, tmp_path / "a").run()
        CampaignRunner(spec, tmp_path / "b", use_cache=False).run(max_jobs=1)
        CampaignRunner(spec, tmp_path / "b", use_cache=False).run()
        for job in spec.expand():
            assert _front_bytes(tmp_path / "a", job.job_id) == _front_bytes(
                tmp_path / "b", job.job_id
            )


class TestCrossJobCacheSharing:
    def test_same_context_jobs_share_evaluations(self, tmp_path):
        # random and grid with the same pipeline/settings/seed share a shard;
        # overlapping genomes are evaluated once per campaign.
        spec = _spec(
            datasets=("seeds",),
            searches=[
                {"algorithm": "grid", "name": "grid-a", "bit_choices": [3, 4],
                 "sparsity_choices": [0.0], "cluster_choices": [0]},
                {"algorithm": "grid", "name": "grid-b", "bit_choices": [4, 5],
                 "sparsity_choices": [0.0], "cluster_choices": [0]},
            ],
        )
        summary = CampaignRunner(spec, tmp_path / "camp").run()
        assert summary.ok
        by_id = {outcome.job_id: outcome for outcome in summary.outcomes}
        # grid-b overlaps grid-a on the 4-bit genome: only one fresh evaluation.
        assert by_id["seeds-grid-a-s0"].n_evaluations == 2
        assert by_id["seeds-grid-b-s0"].n_evaluations == 1


class TestRobustNonGASearches:
    #: SHA-256 of the front.json earlier builds wrote for this job with the
    #: fault knobs spelled under ``pipeline`` instead of the search entry.
    ROBUST_RANDOM_FRONT = "73c8388324bae6be06042e64e2f0dc97197fe3a096140176f478cd9f95bca063"
    FAULTS = {"fault_rate": 0.05, "n_fault_trials": 3, "fault_model": "short"}

    def test_robust_random_job_matches_the_pipeline_level_spelling(self, tmp_path):
        search = {"algorithm": "random", "n_evaluations": 3, **self.FAULTS}
        spec = _spec(searches=[search], datasets=("seeds",))
        assert CampaignRunner(spec, tmp_path / "camp").run().ok
        front = _front_bytes(tmp_path / "camp", "seeds-random-s0")
        assert hashlib.sha256(front).hexdigest() == self.ROBUST_RANDOM_FRONT

    def test_robust_grid_job_measures_fault_tolerance(self, tmp_path):
        search = {
            "algorithm": "grid",
            "bit_choices": [4],
            "sparsity_choices": [0.0, 0.3],
            "cluster_choices": [0],
            **self.FAULTS,
        }
        spec = _spec(searches=[search], datasets=("seeds",))
        assert CampaignRunner(spec, tmp_path / "camp").run().ok
        front = json.loads(_front_bytes(tmp_path / "camp", "seeds-grid-s0"))["front"]
        assert front and all(point["robust_accuracy"] is not None for point in front)


class TestParallelJobs:
    def test_pool_matches_serial_byte_for_byte(self, tmp_path):
        spec = _spec()
        CampaignRunner(spec, tmp_path / "serial").run()
        summary = CampaignRunner(spec, tmp_path / "pool", max_workers=2).run()
        assert summary.ok
        for job in spec.expand():
            assert _front_bytes(tmp_path / "serial", job.job_id) == _front_bytes(
                tmp_path / "pool", job.job_id
            )


class TestEngineCacheInjection:
    def test_injected_cache_serves_hits_across_engines(self, tmp_path, prepared_pipeline):
        prepared = prepared_pipeline.prepare()
        settings = EvaluationSettings(finetune_epochs=1)
        from repro.search import GenomeSpace
        import numpy as np

        genome = GenomeSpace(n_layers=2).random_genome(np.random.default_rng(0))
        with PersistentEvaluationCache(tmp_path, "ctx") as cache:
            first = SerialEvaluator(prepared, settings, seed=0, cache=cache)
            point = first.evaluate(genome)
            assert first.cache.misses == 1
        with PersistentEvaluationCache(tmp_path, "ctx") as cache:
            second = SerialEvaluator(prepared, settings, seed=0, cache=cache)
            replayed = second.evaluate(genome)
            assert second.n_evaluations == 0  # disk hit, no fresh evaluation
        assert replayed.accuracy == point.accuracy
        assert replayed.area == point.area

    def test_cache_and_cache_size_are_mutually_exclusive(self, prepared_pipeline, tmp_path):
        prepared = prepared_pipeline.prepare()
        with pytest.raises(ValueError, match="not both"):
            SerialEvaluator(
                prepared,
                cache=PersistentEvaluationCache(tmp_path, "ctx"),
                cache_size=4,
            )


class TestReporting:
    def test_report_combines_per_dataset_fronts(self, tmp_path):
        spec = _spec(
            searches=[
                {"algorithm": "random", "name": "rand-a", "n_evaluations": 3},
                {"algorithm": "random", "name": "rand-b", "n_evaluations": 5},
            ],
        )
        CampaignRunner(spec, tmp_path / "camp").run()
        report = build_report(tmp_path / "camp")
        assert report["n_jobs_completed"] == 4
        assert set(report["datasets"]) == {"seeds", "redwine"}
        for entry in report["datasets"].values():
            assert len(entry["jobs"]) == 2
            assert entry["combined_front_size"] >= 1
            # Shared pipeline config and seed => shared baseline => combined
            # gains are valid.
            assert entry["baseline"] is not None
        text = format_report(report)
        assert "seeds" in text and "redwine" in text

    def test_report_with_mixed_seeds_keeps_per_job_gains(self, tmp_path):
        # Jobs with different seeds train different baselines: the combined
        # front is still built, but no shared baseline is claimed.
        spec = _spec(seeds=(0, 1))
        CampaignRunner(spec, tmp_path / "camp").run()
        report = build_report(tmp_path / "camp")
        for entry in report["datasets"].values():
            assert entry["baseline"] is None
            assert entry["combined_best_gain"] is None
            assert entry["combined_front_size"] >= 1

    def test_write_report_emits_artifacts(self, tmp_path):
        spec = _spec()
        CampaignRunner(spec, tmp_path / "camp").run()
        paths = write_report(tmp_path / "camp")
        assert {"summary.json", "summary.md"} <= set(paths)
        assert "front_seeds.json" in paths and "front_redwine.csv" in paths
        summary = json.loads(paths["summary.json"].read_text())
        assert summary["n_jobs_completed"] == 2
        markdown = paths["summary.md"].read_text()
        assert "| dataset |" in markdown

    def test_report_on_partial_campaign(self, tmp_path):
        spec = _spec()
        CampaignRunner(spec, tmp_path / "camp").run(max_jobs=1)
        report = build_report(tmp_path / "camp")
        assert report["n_jobs_completed"] == 1
        assert set(report["datasets"]) == {"seeds"}


class TestExecuteJob:
    def test_execute_job_is_self_contained(self, tmp_path):
        job = _spec().expand()[0]
        outcome = execute_job(job, tmp_path / "camp")
        assert outcome.status == "completed"
        assert (tmp_path / "camp" / "jobs" / job.job_id / "front.json").exists()
        assert (tmp_path / "camp" / "jobs" / job.job_id / "result.json").exists()
        result = json.loads(
            (tmp_path / "camp" / "jobs" / job.job_id / "result.json").read_text()
        )
        assert result["status"] == "completed"
        assert result["cache"]["enabled"] is True
        assert result["cache"]["persisted"] == outcome.n_evaluations

    def test_ga_job_runs_the_bare_search(self, tmp_path):
        # Journal, cache and artifacts wrap the search without changing it.
        spec = _spec(searches=TestResumeBitIdentity.GA_SEARCH, datasets=("seeds",))
        summary = CampaignRunner(spec, tmp_path / "camp").run()
        [job] = spec.expand()
        prepared = MinimizationPipeline(job.pipeline_config()).prepare()
        config = GAConfig(**job.search_params(), seed=job.seed)
        bare = HardwareAwareGA(prepared, config=config).run()
        assert summary.outcomes[0].n_evaluations == bare.n_evaluations
        front = json.loads(_front_bytes(tmp_path / "camp", job.job_id))["front"]
        assert [(p["accuracy"], p["area"]) for p in front] == [
            (p.accuracy, p.area) for p in bare.front
        ]


class TestTransientRetry:
    """ISSUE-7 satellite: transient failures retry with backoff, deterministic
    failures fail fast, and the attempt count lands in the manifest."""

    def _events(self, directory):
        from repro.campaign import CampaignJournal

        return CampaignJournal(directory).events()

    def test_transient_failure_is_retried_to_success(self, tmp_path):
        from repro.campaign import RetryPolicy

        attempts = []

        def flaky_factory(cache_dir, context_key, max_entries):
            if not attempts:
                attempts.append(1)
                raise OSError("transient filesystem hiccup")
            return PersistentEvaluationCache(
                cache_dir, context_key, max_entries=max_entries
            )

        spec = _spec(datasets=("seeds",))
        summary = CampaignRunner(
            spec,
            tmp_path / "camp",
            cache_factory=flaky_factory,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0),
        ).run()
        assert summary.ok and summary.completed == 1
        assert summary.outcomes[0].attempts == 2
        events = self._events(tmp_path / "camp")
        retrying = [e for e in events if e["event"] == "job_retrying"]
        assert len(retrying) == 1
        assert retrying[0]["attempt"] == 1 and "OSError" in retrying[0]["error"]
        completed = [e for e in events if e["event"] == "job_completed"]
        assert completed[0]["attempts"] == 2

    def test_deterministic_failure_fails_fast(self, tmp_path):
        from repro.campaign import RetryPolicy

        def poisoned_factory(cache_dir, context_key, max_entries):
            raise ValueError("deterministic misconfiguration")

        spec = _spec(datasets=("seeds",))
        summary = CampaignRunner(
            spec,
            tmp_path / "camp",
            cache_factory=poisoned_factory,
            retry=RetryPolicy(max_attempts=5, base_delay=0.0),
        ).run()
        assert summary.failed == 1
        assert summary.outcomes[0].attempts == 1  # no retry budget burned
        events = self._events(tmp_path / "camp")
        assert not [e for e in events if e["event"] == "job_retrying"]
        failed = [e for e in events if e["event"] == "job_failed"]
        assert failed[0]["attempts"] == 1

    def test_transient_failure_exhausts_the_budget(self, tmp_path):
        from repro.campaign import RetryPolicy

        def always_flaky(cache_dir, context_key, max_entries):
            raise TimeoutError("never recovers")

        spec = _spec(datasets=("seeds",))
        summary = CampaignRunner(
            spec,
            tmp_path / "camp",
            cache_factory=always_flaky,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
        ).run()
        assert summary.failed == 1
        assert summary.outcomes[0].attempts == 2
        events = self._events(tmp_path / "camp")
        assert len([e for e in events if e["event"] == "job_retrying"]) == 1

    def test_backoff_is_deterministic_and_bounded(self):
        from repro.campaign import RetryPolicy

        policy = RetryPolicy(max_attempts=5, base_delay=0.5, max_delay=4.0, jitter=0.25)
        delays = [policy.delay("job-x", attempt) for attempt in (1, 2, 3, 4)]
        assert delays == [policy.delay("job-x", a) for a in (1, 2, 3, 4)]  # replayable
        assert all(d <= 4.0 for d in delays)
        assert delays[0] >= 0.5 and delays[1] >= 1.0  # exponential floor
        assert policy.delay("job-x", 1) != policy.delay("job-y", 1)  # decorrelated
        # round-trips through plain data for process pools
        assert RetryPolicy.from_dict(policy.as_dict()) == policy
