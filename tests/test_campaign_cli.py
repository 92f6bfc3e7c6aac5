"""The ``repro campaign`` CLI verbs, including the SIGKILL golden test."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent

_SPEC = {
    "name": "cli-test",
    "datasets": ["seeds", "redwine"],
    "pipeline": {"train_epochs": 3, "n_samples": 120, "finetune_epochs": 1},
    "searches": [{"algorithm": "random", "n_evaluations": 3}],
}


def _write_spec(tmp_path, spec=None, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec if spec is not None else _SPEC))
    return path


class TestCampaignVerbs:
    def test_run_status_report_resume(self, tmp_path, capsys):
        spec_path = _write_spec(tmp_path)
        out = str(tmp_path / "camp")

        assert main(["campaign", "run", "--spec", str(spec_path), "--out", out]) == 0
        captured = capsys.readouterr().out
        assert "2/2 jobs completed" in captured

        assert main(["campaign", "status", "--out", out]) == 0
        captured = capsys.readouterr().out
        assert "2/2 completed" in captured
        assert "seeds-random-s0" in captured

        assert main(["campaign", "report", "--out", out]) == 0
        captured = capsys.readouterr().out
        assert "report artefacts written" in captured
        assert (Path(out) / "report" / "summary.md").exists()

        # Resuming a finished campaign is a no-op success.
        assert main(["campaign", "resume", "--out", out]) == 0
        captured = capsys.readouterr().out
        assert "0 remaining" in captured

    def test_status_and_resume_without_campaign(self, tmp_path, capsys):
        missing = str(tmp_path / "nowhere")
        assert main(["campaign", "status", "--out", missing]) == 1
        assert main(["campaign", "resume", "--out", missing]) == 1
        assert main(["campaign", "report", "--out", missing]) == 1

    def test_max_jobs_leaves_pending_work(self, tmp_path, capsys):
        spec_path = _write_spec(tmp_path)
        out = str(tmp_path / "camp")
        assert main(
            ["campaign", "run", "--spec", str(spec_path), "--out", out, "--max-jobs", "1"]
        ) == 0
        assert "1 remaining" in capsys.readouterr().out
        assert main(["campaign", "resume", "--out", out]) == 0
        assert "0 remaining" in capsys.readouterr().out

    def test_missing_spec_file_reports_cleanly(self, tmp_path, capsys):
        assert main(
            ["campaign", "run", "--spec", str(tmp_path / "absent.yaml"),
             "--out", str(tmp_path / "camp")]
        ) == 1
        assert "not found" in capsys.readouterr().out

    def test_invalid_spec_reports_cleanly(self, tmp_path, capsys):
        spec_path = _write_spec(tmp_path, {"name": "bad", "datasets": ["seeds"]})
        assert main(
            ["campaign", "run", "--spec", str(spec_path), "--out", str(tmp_path / "c")]
        ) == 1
        assert "invalid campaign spec" in capsys.readouterr().out

    def test_edited_spec_against_existing_dir_reports_cleanly(self, tmp_path, capsys):
        out = str(tmp_path / "camp")
        assert main(
            ["campaign", "run", "--spec", str(_write_spec(tmp_path)), "--out", out]
        ) == 0
        capsys.readouterr()
        edited = dict(_SPEC, seeds=[1])
        edited_path = _write_spec(tmp_path, edited, name="edited.json")
        assert main(["campaign", "run", "--spec", str(edited_path), "--out", out]) == 1
        assert "fingerprint mismatch" in capsys.readouterr().out

    def test_bad_shard_reports_cleanly(self, tmp_path, capsys):
        assert main(
            ["campaign", "run", "--spec", str(_write_spec(tmp_path)),
             "--out", str(tmp_path / "camp"), "--shard", "2/2"]
        ) == 1
        assert "Shard" in capsys.readouterr().out

    def test_failed_job_exits_nonzero(self, tmp_path, capsys):
        spec = dict(_SPEC)
        spec["datasets"] = ["seeds"]
        spec["searches"] = [{"algorithm": "random", "n_evaluations": 0}]
        spec_path = _write_spec(tmp_path, spec)
        out = str(tmp_path / "camp")
        assert main(["campaign", "run", "--spec", str(spec_path), "--out", out]) == 1
        assert "failed" in capsys.readouterr().out


class TestKillResumeGolden:
    """ISSUE-4 acceptance: SIGKILL a campaign subprocess, resume, compare bytes."""

    # The second and later jobs are big enough (~seconds) that the kill lands
    # while the campaign is still running; the first job is small enough that
    # its completion marker appears quickly. The GA search runs with Monte-
    # Carlo fault injection enabled, so the kill->resume byte-identity also
    # covers robust_accuracy/accuracy_std round-tripping through the
    # persistent evaluation cache.
    KILL_SPEC = {
        "name": "kill-golden",
        "datasets": ["seeds", "redwine"],
        "pipeline": {"train_epochs": 12, "n_samples": 500, "finetune_epochs": 2},
        "searches": [
            {"algorithm": "random", "name": "warmup", "n_evaluations": 2},
            {"algorithm": "ga", "population_size": 8, "n_generations": 3,
             "finetune_epochs": 2, "fault_rate": 0.05, "n_fault_trials": 3},
        ],
    }

    def _run_subprocess(self, spec_path, out_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "campaign", "run",
             "--spec", str(spec_path), "--out", str(out_dir)],
            cwd=REPO_ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        spec_path = _write_spec(tmp_path, self.KILL_SPEC)

        # Reference: uninterrupted run, in-process.
        ref_dir = tmp_path / "reference"
        assert main(
            ["campaign", "run", "--spec", str(spec_path), "--out", str(ref_dir)]
        ) == 0

        # Victim: subprocess killed as soon as the first job completes.
        victim_dir = tmp_path / "victim"
        process = self._run_subprocess(spec_path, victim_dir)
        first_marker = victim_dir / "jobs" / "seeds-warmup-s0" / "result.json"
        deadline = time.monotonic() + 120.0
        try:
            while time.monotonic() < deadline:
                if first_marker.exists() or process.poll() is not None:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("campaign subprocess made no progress within 120s")
        finally:
            if process.poll() is None:
                process.send_signal(signal.SIGKILL)
            process.wait(timeout=60)

        # Resume in-process and compare every job's front byte for byte.
        assert main(["campaign", "resume", "--out", str(victim_dir)]) == 0
        for job_dir in sorted((ref_dir / "jobs").iterdir()):
            reference = (job_dir / "front.json").read_bytes()
            resumed = (victim_dir / "jobs" / job_dir.name / "front.json").read_bytes()
            assert reference == resumed, f"front diverged for {job_dir.name}"

        # The report over the resumed campaign covers both datasets.
        assert main(["campaign", "report", "--out", str(victim_dir)]) == 0
        summary = json.loads(
            (victim_dir / "report" / "summary.json").read_text()
        )
        assert set(summary["datasets"]) == {"seeds", "redwine"}
        assert summary["n_jobs_completed"] == 4

        # The robustness-enabled GA jobs persisted their fault-injection
        # measurements into the resumed fronts and the report artifacts.
        for dataset in ("seeds", "redwine"):
            ga_front = json.loads(
                (victim_dir / "jobs" / f"{dataset}-ga-s0" / "front.json").read_text()
            )
            assert ga_front["front"], "robust GA job produced an empty front"
            for point in ga_front["front"]:
                assert 0.0 <= point["robust_accuracy"] <= 1.0
                assert point["accuracy_std"] >= 0.0
            combined = summary["datasets"][dataset]["combined_front"]
            front_csv = (victim_dir / "report" / f"front_{dataset}.csv").read_text()
            # Robust columns appear exactly when a robust point made the
            # combined (union) front.
            assert ("robust_accuracy" in front_csv.splitlines()[0]) == any(
                "robust_accuracy" in p for p in combined
            )
            # The warmup (robustness-off) job's points stay clean.
            warmup_front = json.loads(
                (victim_dir / "jobs" / f"{dataset}-warmup-s0" / "front.json").read_text()
            )
            assert all("robust_accuracy" not in p for p in warmup_front["front"])
