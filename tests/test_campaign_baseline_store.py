"""The trained float baseline is stored once per configuration in ``cache/``.

Every job of a campaign starts from the same trained baseline, a pure
function of its :class:`~repro.core.config.PipelineConfig`. The first job
of a configuration trains it and writes ``cache/baseline-<key>.npz``; every
later job (same process, pool worker, fabric worker, resume) loads it. What
is pinned here:

* a loaded baseline yields ``front.json`` bytes identical to a trained one,
  in every execution mode;
* an unusable stored baseline is discarded, counted, retrained and
  rewritten — the reader never raises;
* the shard readers, the surrogate trainer and ``campaign status`` do not
  see the new files;
* ``use_cache=False`` trains every job and writes nothing.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

import repro.core.pipeline as pipeline_module
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    build_report,
    campaign_status,
    load_journal_records,
    write_report,
)
from repro.campaign.cache import (
    baseline_key,
    baseline_path,
    evaluation_context_key,
    load_baseline,
    save_baseline,
)
from repro.campaign.fabric import FabricCoordinator, FabricWorker, ManualClock
from repro.cli import main
from repro.core.config import PipelineConfig
from repro.core.pipeline import MinimizationPipeline
from repro.nn import serialization
from repro.nn.network import build_mlp
from repro.surrogate import fit_from_cache

_SPEC = {
    "name": "baseline-store",
    "datasets": ["seeds"],
    "seeds": [0],
    "pipeline": {"train_epochs": 3, "n_samples": 120, "finetune_epochs": 1},
    "searches": [
        {"algorithm": "random", "name": "first", "n_evaluations": 3},
        {"algorithm": "ga", "population_size": 4, "n_generations": 2, "finetune_epochs": 1},
    ],
}
JOB_IDS = ("seeds-first-s0", "seeds-ga-s0")


def _spec():
    return CampaignSpec.from_dict(_SPEC)


def _baseline_files(directory):
    return sorted((directory / "cache").glob("baseline-*.npz"))


def _cache_stats(directory, job_id):
    result = json.loads((directory / "jobs" / job_id / "result.json").read_text())
    return result["cache"]


def _assert_fronts_match(reference, directory):
    for job_id in JOB_IDS:
        assert (directory / "jobs" / job_id / "front.json").read_bytes() == (
            reference / "jobs" / job_id / "front.json"
        ).read_bytes(), f"front.json diverged for {job_id}"


def _with_cache_of(cold, directory):
    """A fresh campaign directory holding only a copy of ``cold``'s cache."""
    shutil.copytree(cold / "cache", directory / "cache")
    return directory


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """One uninterrupted cold run: trains the baseline once, loads it once."""
    directory = tmp_path_factory.mktemp("cold") / "camp"
    assert CampaignRunner(_spec(), directory).run().ok
    return directory


class TestColdRun:
    def test_first_job_trains_and_second_loads(self, cold):
        assert _cache_stats(cold, JOB_IDS[0])["baseline"] == "trained"
        assert _cache_stats(cold, JOB_IDS[1])["baseline"] == "loaded"
        for job_id in JOB_IDS:
            assert _cache_stats(cold, job_id)["baseline_discarded"] == 0

    def test_one_file_per_config(self, cold):
        config = _spec().expand()[0].pipeline_config()
        assert _baseline_files(cold) == [baseline_path(cold / "cache", baseline_key(config))]

    def test_front_stays_free_of_volatile_fields(self, cold):
        front = json.loads((cold / "jobs" / JOB_IDS[1] / "front.json").read_text())
        assert "baseline_discarded" not in json.dumps(front)
        assert "cache" not in front


class TestLoadedMatchesTrained:
    def test_fresh_directory_with_copied_cache(self, cold, tmp_path):
        warm = _with_cache_of(cold, tmp_path / "warm")
        assert CampaignRunner(_spec(), warm).run().ok
        _assert_fronts_match(cold, warm)
        for job_id in JOB_IDS:
            stats = _cache_stats(warm, job_id)
            assert stats["baseline"] == "loaded" and stats["baseline_discarded"] == 0
            assert stats["misses"] == 0

    def test_without_cache(self, cold, tmp_path):
        directory = tmp_path / "nocache"
        assert CampaignRunner(_spec(), directory, use_cache=False).run().ok
        _assert_fronts_match(cold, directory)
        assert not (directory / "cache").exists()
        assert "baseline" not in _cache_stats(directory, JOB_IDS[0])

    def test_only_the_baseline_file_copied(self, cold, tmp_path):
        directory = tmp_path / "baseline-only"
        (directory / "cache").mkdir(parents=True)
        for path in _baseline_files(cold):
            shutil.copy(path, directory / "cache" / path.name)
        assert CampaignRunner(_spec(), directory).run().ok
        _assert_fronts_match(cold, directory)
        assert _cache_stats(directory, JOB_IDS[0])["baseline"] == "loaded"
        assert _cache_stats(directory, JOB_IDS[0])["misses"] > 0

    def test_pool_workers_load_it(self, cold, tmp_path):
        pool = _with_cache_of(cold, tmp_path / "pool")
        assert CampaignRunner(_spec(), pool, max_workers=2).run().ok
        _assert_fronts_match(cold, pool)
        assert {_cache_stats(pool, job_id)["baseline"] for job_id in JOB_IDS} == {"loaded"}

    def test_two_fabric_workers_load_it(self, cold, tmp_path):
        clock = ManualClock()
        directory = _with_cache_of(cold, tmp_path / "fabric")
        coordinator = FabricCoordinator(
            _spec(), directory, lease_ttl=10.0, worker_timeout=0.0,
            now_fn=clock, sleep_fn=lambda s: None,
        )
        coordinator.publish()
        workers = [
            FabricWorker(directory, worker_id=f"w{index}", lease_ttl=10.0,
                         now_fn=clock, sleep_fn=lambda s: None)
            for index in (1, 2)
        ]
        for _ in range(10):
            if coordinator.step().all_done:
                break
            for worker in workers:
                worker.step()
        else:
            pytest.fail("fabric failed to converge")
        _assert_fronts_match(cold, directory)
        assert {_cache_stats(directory, job_id)["baseline"] for job_id in JOB_IDS} == {"loaded"}
        reference = tmp_path / "reference"
        shutil.copytree(cold, reference)
        for campaign in (reference, directory):
            write_report(campaign, build_report(campaign))
        assert (directory / "report" / "summary.json").read_bytes() == (
            reference / "report" / "summary.json"
        ).read_bytes()


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _random_bytes(path):
    path.write_bytes(np.random.default_rng(0).bytes(path.stat().st_size))


def _foreign_architecture(path):
    key = path.name[len("baseline-"): -len(".npz")]
    model, _ = load_baseline(path.parent, key)
    n_inputs, hidden, n_outputs = model.topology()
    save_baseline(path.parent, key, build_mlp(n_inputs, (hidden + 1,), n_outputs, seed=0))


def _wrong_version(path, monkeypatch):
    key = path.name[len("baseline-"): -len(".npz")]
    model, _ = load_baseline(path.parent, key)
    with monkeypatch.context() as patch:
        patch.setattr(serialization, "FORMAT_VERSION", serialization.FORMAT_VERSION + 1)
        save_baseline(path.parent, key, model)


def _missing_array(path):
    with np.load(path) as data:
        header = data["__header__"]
    with open(path, "wb") as handle:
        np.savez(handle, __header__=header)


CORRUPTIONS = {
    "truncated": lambda path, monkeypatch: _truncate(path),
    "random-bytes": lambda path, monkeypatch: _random_bytes(path),
    "foreign-architecture": lambda path, monkeypatch: _foreign_architecture(path),
    "wrong-version": _wrong_version,
    "missing-array": lambda path, monkeypatch: _missing_array(path),
}


class TestUnusableBaselines:
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_discarded_counted_retrained_rewritten(self, cold, tmp_path, monkeypatch, corruption):
        directory = _with_cache_of(cold, tmp_path / corruption)
        [path] = _baseline_files(directory)
        CORRUPTIONS[corruption](path, monkeypatch)
        assert path.read_bytes() != _baseline_files(cold)[0].read_bytes()

        assert CampaignRunner(_spec(), directory).run().ok
        first, second = (_cache_stats(directory, job_id) for job_id in JOB_IDS)
        assert first["baseline"] == "trained" and first["baseline_discarded"] == 1
        assert second["baseline"] == "loaded" and second["baseline_discarded"] == 0
        assert path.read_bytes() == _baseline_files(cold)[0].read_bytes()
        _assert_fronts_match(cold, directory)

    @pytest.mark.parametrize(
        "corruption", sorted(set(CORRUPTIONS) - {"foreign-architecture"})
    )
    def test_reader_never_raises(self, cold, tmp_path, monkeypatch, corruption):
        directory = _with_cache_of(cold, tmp_path / corruption)
        [path] = _baseline_files(directory)
        CORRUPTIONS[corruption](path, monkeypatch)
        key = path.name[len("baseline-"): -len(".npz")]
        assert load_baseline(path.parent, key) == (None, 1)

    def test_missing_file_is_not_a_discard(self, tmp_path):
        assert load_baseline(tmp_path / "cache", "0123456789abcdef") == (None, 0)

    def test_leftover_temp_file_is_ignored(self, cold, tmp_path):
        directory = _with_cache_of(cold, tmp_path / "leftover")
        [path] = _baseline_files(directory)
        leftover = path.with_name(f"{path.name}.0123456789abcdef.tmp")
        leftover.write_bytes(b"half a baseline")
        assert CampaignRunner(_spec(), directory).run().ok
        for job_id in JOB_IDS:
            stats = _cache_stats(directory, job_id)
            assert stats["baseline"] == "loaded" and stats["baseline_discarded"] == 0
        assert leftover.read_bytes() == b"half a baseline"
        _assert_fronts_match(cold, directory)


class TestKeyAndRoundTrip:
    def test_key_ignores_search_only_knobs(self):
        plain = PipelineConfig(dataset="seeds", seed=0)
        assert baseline_key(plain) == baseline_key(PipelineConfig(dataset="seeds", n_workers=2))
        assert baseline_key(plain) != baseline_key(PipelineConfig(dataset="seeds", seed=1))
        assert baseline_key(plain) != evaluation_context_key(plain, None, 0)

    def test_float64_round_trips_exactly_to_identical_bytes(self, tmp_path):
        model = build_mlp(7, (4,), 3, seed=3)
        first = save_baseline(tmp_path / "a", "k", model).read_bytes()
        second = save_baseline(tmp_path / "b", "k", model).read_bytes()
        assert first == second
        loaded, discarded = load_baseline(tmp_path / "a", "k")
        assert discarded == 0
        for stored, original in zip(loaded.get_weights(), model.get_weights()):
            assert stored["weights"].tobytes() == original["weights"].tobytes()
            assert stored["bias"].tobytes() == original["bias"].tobytes()


class TestPipelineBaselineParameter:
    CONFIG = PipelineConfig(dataset="seeds", seed=0, train_epochs=3, n_samples=120)

    def test_matching_baseline_replaces_training(self, monkeypatch):
        trained = MinimizationPipeline(self.CONFIG).prepare()
        assert trained.baseline_source == "trained"

        def refuse(*args, **kwargs):
            raise AssertionError("train_classifier must not run")

        monkeypatch.setattr(pipeline_module, "train_classifier", refuse)
        loaded = MinimizationPipeline(self.CONFIG, baseline=trained.baseline_model).prepare()
        assert loaded.baseline_source == "loaded"
        assert loaded.baseline_point.as_dict() == trained.baseline_point.as_dict()
        assert loaded.baseline_model is not trained.baseline_model

    def test_foreign_architecture_is_ignored(self):
        foreign = build_mlp(7, (5,), 3, seed=0)
        prepared = MinimizationPipeline(self.CONFIG, baseline=foreign).prepare()
        assert prepared.baseline_source == "trained"
        assert prepared.baseline_model.topology() == [7, 4, 3]


class TestReadersIgnoreBaselineFiles:
    def test_records_surrogate_and_status_unchanged(self, cold, tmp_path):
        with_files, without = tmp_path / "with", tmp_path / "without"
        shutil.copytree(cold, with_files)
        shutil.copytree(cold, without)
        for path in _baseline_files(without):
            path.unlink()
        (with_files / "cache" / "baseline-0123456789abcdef.npz.0123.tmp").write_bytes(b"torn")
        assert _baseline_files(with_files)

        records = load_journal_records(with_files / "cache")
        assert records == load_journal_records(without / "cache")
        fitted = fit_from_cache(with_files / "cache")
        reference = fit_from_cache(without / "cache")
        assert fitted.n_records == reference.n_records > 0
        genomes = [record.genome for record in records]
        np.testing.assert_array_equal(fitted.predict(genomes), reference.predict(genomes))
        assert campaign_status(with_files) == campaign_status(without)


class TestNoCacheVerb:
    def test_no_cache_writes_no_baseline_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_SPEC))
        out = tmp_path / "camp"
        assert main(
            ["campaign", "run", "--spec", str(spec_path), "--out", str(out), "--no-cache"]
        ) == 0
        assert not list(out.rglob("baseline-*"))
        for job_id in JOB_IDS:
            assert _cache_stats(out, job_id) == {"enabled": False}
