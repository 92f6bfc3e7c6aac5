"""Journal durability and the persistent on-disk evaluation cache."""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    CampaignJournal,
    PersistentEvaluationCache,
    SimulatedCrash,
    baseline_key,
    evaluation_context_key,
    write_json_atomic,
)
from repro.core import DesignPoint, PipelineConfig
from repro.core.config import fast_config
from repro.search import EvaluationSettings, Genome, resolve_evaluation_settings


def _genome(bits=4):
    return Genome(weight_bits=(bits,), sparsity=(0.2,), clusters=(0,))


def _point(accuracy=0.9, area=12.5):
    return DesignPoint(
        technique="combined",
        accuracy=accuracy,
        area=area,
        power=3.25,
        delay=0.125,
        parameters={"weight_bits": [4]},
    )


class TestJournal:
    def test_events_roundtrip_in_order(self, tmp_path):
        journal = CampaignJournal(tmp_path / "camp")
        journal.append("run_started", n_jobs=2)
        journal.append("job_started", job_id="a")
        journal.append("job_completed", job_id="a", wall_s=1.0)
        events = journal.events()
        assert [e["event"] for e in events] == [
            "run_started",
            "job_started",
            "job_completed",
        ]
        assert events[1]["job_id"] == "a"

    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        journal = CampaignJournal(tmp_path / "camp")
        journal.append("run_started", n_jobs=1)
        with open(journal.manifest_path, "a") as handle:
            handle.write('{"event": "job_start')  # a SIGKILL mid-append
        assert [e["event"] for e in journal.events()] == ["run_started"]

    def test_completion_marker_is_result_json(self, tmp_path):
        journal = CampaignJournal(tmp_path / "camp")
        assert journal.completed_job_ids() == set()
        journal.write_job_artifacts("job-a", {"front": []}, {"status": "completed"})
        (journal.job_dir("job-b")).mkdir(parents=True)
        (journal.front_path("job-b")).write_text("{}")  # front without result
        assert journal.completed_job_ids() == {"job-a"}

    def test_failed_jobs_cleared_by_completion(self, tmp_path):
        journal = CampaignJournal(tmp_path / "camp")
        journal.append("job_failed", job_id="a", error="boom")
        assert journal.failed_job_ids() == {"a"}
        journal.append("job_completed", job_id="a")
        assert journal.failed_job_ids() == set()

    def test_write_json_atomic_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json_atomic(path, {"x": 1})
        write_json_atomic(path, {"x": 2})
        assert json.loads(path.read_text()) == {"x": 2}
        assert list(tmp_path.iterdir()) == [path]


class TestEvaluationContextKey:
    def test_same_inputs_same_key(self):
        config = PipelineConfig(dataset="seeds", train_epochs=3)
        settings = EvaluationSettings(finetune_epochs=2)
        assert evaluation_context_key(config, settings, 0) == evaluation_context_key(
            PipelineConfig(dataset="seeds", train_epochs=3),
            EvaluationSettings(finetune_epochs=2),
            0,
        )

    @pytest.mark.parametrize(
        "other",
        [
            (PipelineConfig(dataset="seeds", train_epochs=4), EvaluationSettings(finetune_epochs=2), 0),
            (PipelineConfig(dataset="redwine", train_epochs=3), EvaluationSettings(finetune_epochs=2), 0),
            (PipelineConfig(dataset="seeds", train_epochs=3), EvaluationSettings(finetune_epochs=3), 0),
            (PipelineConfig(dataset="seeds", train_epochs=3), EvaluationSettings(finetune_epochs=2), 1),
        ],
    )
    def test_any_divergence_changes_key(self, other):
        base = evaluation_context_key(
            PipelineConfig(dataset="seeds", train_epochs=3),
            EvaluationSettings(finetune_epochs=2),
            0,
        )
        assert evaluation_context_key(*other) != base

    def test_key_matches_builds_with_an_array_backend_knob(self):
        # Digest of this context as hashed by builds that still had the
        # array-backend knob: their shards and workers must keep matching.
        config = PipelineConfig(dataset="seeds", train_epochs=3)
        settings = resolve_evaluation_settings(config)
        assert evaluation_context_key(config, settings, 0) == "a8c5a111110aba23"

    def test_keys_match_builds_with_search_knobs_on_the_pipeline(self):
        # Digests as hashed by builds whose pipeline configuration still
        # carried the engine, fault and surrogate knobs: their shards and
        # stored baselines must keep matching.
        config = PipelineConfig(dataset="seeds", train_epochs=3)
        assert baseline_key(config) == "42d96c334b967ff6"
        assert baseline_key(fast_config("redwine")) == "f89175ba9bcc6f17"
        robust = EvaluationSettings(finetune_epochs=4, fault_rate=0.05, n_fault_trials=4)
        assert evaluation_context_key(config, robust, 1) == "e496b567686656c9"

    @pytest.mark.parametrize("dataset", ["seeds", "redwine"])
    def test_worker_count_does_not_split_keys(self, dataset):
        serial = PipelineConfig(dataset=dataset, train_epochs=3)
        parallel = PipelineConfig(dataset=dataset, train_epochs=3, n_workers=2)
        assert baseline_key(serial) == baseline_key(parallel)
        assert evaluation_context_key(serial, None, 0) == evaluation_context_key(
            parallel, None, 0
        )

    def test_none_settings_uses_defaults(self):
        config = PipelineConfig(dataset="seeds")
        assert evaluation_context_key(config, None, 0) == evaluation_context_key(
            config, EvaluationSettings(), 0
        )


class TestPersistentEvaluationCache:
    def test_roundtrips_points_across_instances(self, tmp_path):
        with PersistentEvaluationCache(tmp_path, "ctx") as cache:
            cache.put(_genome(4), _point(0.91, 10.0))
            cache.put(_genome(5), _point(0.93, 14.0))
            assert cache.n_persisted == 2

        reloaded = PersistentEvaluationCache(tmp_path, "ctx")
        assert reloaded.n_loaded == 2
        point = reloaded.get(_genome(4))
        assert point is not None
        assert point.accuracy == 0.91 and point.area == 10.0
        assert point.parameters == {"weight_bits": [4]}
        reloaded.close()

    def test_json_float_roundtrip_is_exact(self, tmp_path):
        accuracy = 0.9123456789012345  # full double precision
        area = 17.123456789012345
        with PersistentEvaluationCache(tmp_path, "ctx") as cache:
            cache.put(_genome(), _point(accuracy, area))
        reloaded = PersistentEvaluationCache(tmp_path, "ctx")
        point = reloaded.get(_genome())
        assert point.accuracy == accuracy  # bit-exact, not approximately
        assert point.area == area
        reloaded.close()

    def test_contexts_are_isolated(self, tmp_path):
        with PersistentEvaluationCache(tmp_path, "ctx-a") as cache:
            cache.put(_genome(), _point())
        other = PersistentEvaluationCache(tmp_path, "ctx-b")
        assert other.get(_genome()) is None
        other.close()

    def test_duplicate_puts_persist_once(self, tmp_path):
        with PersistentEvaluationCache(tmp_path, "ctx") as cache:
            cache.put(_genome(), _point())
            cache.put(_genome(), _point())
        lines = (tmp_path / "ctx.jsonl").read_text().splitlines()
        assert len(lines) == 1

    def test_truncated_tail_is_skipped_on_load(self, tmp_path):
        with PersistentEvaluationCache(tmp_path, "ctx") as cache:
            cache.put(_genome(4), _point())
        with open(tmp_path / "ctx.jsonl", "a") as handle:
            handle.write('{"genome": {"weight_bits": [5')  # killed mid-append
        reloaded = PersistentEvaluationCache(tmp_path, "ctx")
        assert reloaded.n_loaded == 1
        assert reloaded.get(_genome(4)) is not None
        reloaded.close()

    def test_memory_bound_does_not_touch_disk(self, tmp_path):
        with PersistentEvaluationCache(tmp_path, "ctx", max_entries=1) as cache:
            cache.put(_genome(4), _point())
            cache.put(_genome(5), _point())
            assert len(cache) == 1  # LRU evicted in memory
        reloaded = PersistentEvaluationCache(tmp_path, "ctx")
        assert reloaded.n_loaded == 2  # both survive on disk
        reloaded.close()

    def test_fail_after_puts_raises_simulated_crash(self, tmp_path):
        cache = PersistentEvaluationCache(tmp_path, "ctx", fail_after_puts=2)
        cache.put(_genome(4), _point())
        with pytest.raises(SimulatedCrash):
            cache.put(_genome(5), _point())
        cache.close()
        # The crashing put still journaled its point first.
        reloaded = PersistentEvaluationCache(tmp_path, "ctx")
        assert reloaded.n_loaded == 2
        reloaded.close()


class TestCacheHardening:
    """ISSUE-7 satellite: torn mid-record writes, fsync, shard rotation."""

    def test_torn_mid_record_write_does_not_poison_later_records(self, tmp_path):
        from repro.campaign.fabric import corrupt_record

        with PersistentEvaluationCache(tmp_path, "ctx") as cache:
            cache.put(_genome(2), _point(0.90, 10.0))
            cache.put(_genome(4), _point(0.91, 11.0))
            cache.put(_genome(6), _point(0.92, 12.0))
        corrupt_record(tmp_path / "ctx.jsonl", 1)  # torn sector, NOT the tail
        reloaded = PersistentEvaluationCache(tmp_path, "ctx")
        # exactly the corrupted record is lost; the one AFTER it still loads
        assert reloaded.n_loaded == 2
        assert reloaded.get(_genome(2)) is not None
        assert reloaded.get(_genome(4)) is None
        assert reloaded.get(_genome(6)) is not None
        # re-evaluating the lost genome re-journals it for the next load
        reloaded.put(_genome(4), _point(0.91, 11.0))
        reloaded.close()
        again = PersistentEvaluationCache(tmp_path, "ctx")
        assert again.n_loaded == 3
        again.close()

    def test_rotation_seals_generations_and_reloads_all(self, tmp_path):
        with PersistentEvaluationCache(
            tmp_path, "ctx", rotate_max_bytes=1, fsync_on_rotation=True
        ) as cache:  # every put overflows: one generation per record
            cache.put(_genome(2), _point(0.90, 10.0))
            cache.put(_genome(4), _point(0.91, 11.0))
            cache.put(_genome(6), _point(0.92, 12.0))
            assert cache.n_rotations == 3
        shards = sorted(p.name for p in tmp_path.glob("ctx*.jsonl"))
        assert shards == [
            "ctx.g0001.jsonl", "ctx.g0002.jsonl", "ctx.g0003.jsonl", "ctx.jsonl"
        ]
        reloaded = PersistentEvaluationCache(tmp_path, "ctx")
        assert reloaded.n_loaded == 3
        assert reloaded.n_rotations == 3  # resumes appending the last generation
        for bits in (2, 4, 6):
            assert reloaded.get(_genome(bits)) is not None
        reloaded.close()

    def test_corruption_in_one_generation_spares_the_others(self, tmp_path):
        from repro.campaign.fabric import truncate_tail

        with PersistentEvaluationCache(tmp_path, "ctx", rotate_max_bytes=1) as cache:
            cache.put(_genome(2), _point())
            cache.put(_genome(4), _point())
        truncate_tail(tmp_path / "ctx.jsonl", 5)  # tear the base generation
        reloaded = PersistentEvaluationCache(tmp_path, "ctx")
        assert reloaded.n_loaded == 1
        assert reloaded.get(_genome(4)) is not None
        reloaded.close()

    def test_fsync_per_put_roundtrips(self, tmp_path):
        with PersistentEvaluationCache(tmp_path, "ctx", fsync=True) as cache:
            cache.put(_genome(4), _point())
        reloaded = PersistentEvaluationCache(tmp_path, "ctx")
        assert reloaded.n_loaded == 1
        reloaded.close()

    def test_rotate_max_bytes_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            PersistentEvaluationCache(tmp_path, "ctx", rotate_max_bytes=0)
