"""The ``repro campaign coordinate|work`` CLI verbs.

Includes the compact real-SIGKILL smoke: a worker subprocess is killed
mid-campaign and a subsequent coordinate (serial fallback) finishes the
job grid byte-identically to an uninterrupted ``campaign run``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, FabricCoordinator
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent

_SPEC = {
    "name": "fabric-cli",
    "datasets": ["seeds"],
    "seeds": [0, 1],
    "pipeline": {"train_epochs": 3, "n_samples": 120, "finetune_epochs": 1},
    "searches": [{"algorithm": "random", "n_evaluations": 3}],
}

JOB_IDS = ("seeds-random-s0", "seeds-random-s1")


def _subprocess_env():
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _write_spec(tmp_path, spec=None, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec if spec is not None else _SPEC))
    return path


class TestCoordinateVerb:
    def test_coordinate_without_workers_falls_back_to_serial(self, tmp_path, capsys):
        spec_path = _write_spec(tmp_path)
        out = str(tmp_path / "camp")
        assert main(
            ["campaign", "coordinate", "--spec", str(spec_path), "--out", out,
             "--worker-timeout", "0", "--poll-interval", "0"]
        ) == 0
        captured = capsys.readouterr().out
        assert "2/2 jobs completed" in captured
        assert "serial fallback engaged" in captured
        # the unified status predicate sees a completed campaign
        assert main(["campaign", "status", "--out", out]) == 0
        status_out = capsys.readouterr().out
        assert "state      : completed" in status_out
        assert "2/2 completed" in status_out

    def test_coordinate_is_resumable(self, tmp_path, capsys):
        spec_path = _write_spec(tmp_path)
        out = str(tmp_path / "camp")
        assert main(
            ["campaign", "coordinate", "--spec", str(spec_path), "--out", out,
             "--worker-timeout", "0", "--poll-interval", "0"]
        ) == 0
        capsys.readouterr()
        # coordinating a finished campaign is a no-op success
        assert main(
            ["campaign", "coordinate", "--spec", str(spec_path), "--out", out,
             "--worker-timeout", "0", "--poll-interval", "0"]
        ) == 0
        assert "2/2 jobs completed" in capsys.readouterr().out

    def test_coordinate_without_fallback_respects_wall_bound(self, tmp_path, capsys):
        spec_path = _write_spec(tmp_path)
        out = str(tmp_path / "camp")
        assert main(
            ["campaign", "coordinate", "--spec", str(spec_path), "--out", out,
             "--worker-timeout", "0", "--no-serial-fallback",
             "--max-wall", "0.3", "--poll-interval", "0.05"]
        ) == 1  # nothing ran: no workers, fallback disabled
        assert "0/2 jobs completed" in capsys.readouterr().out

    def test_coordinate_missing_spec_reports_cleanly(self, tmp_path, capsys):
        assert main(
            ["campaign", "coordinate", "--spec", str(tmp_path / "absent.json"),
             "--out", str(tmp_path / "camp")]
        ) == 1
        assert "not found" in capsys.readouterr().out

    def test_coordinate_fingerprint_mismatch_reports_cleanly(self, tmp_path, capsys):
        out = str(tmp_path / "camp")
        assert main(
            ["campaign", "coordinate", "--spec", str(_write_spec(tmp_path)),
             "--out", out, "--worker-timeout", "0", "--poll-interval", "0"]
        ) == 0
        capsys.readouterr()
        edited = dict(_SPEC, seeds=[7])
        edited_path = _write_spec(tmp_path, edited, name="edited.json")
        assert main(
            ["campaign", "coordinate", "--spec", str(edited_path), "--out", out]
        ) == 1
        assert "fingerprint mismatch" in capsys.readouterr().out


class TestWorkVerb:
    def test_work_drains_a_published_queue(self, tmp_path, capsys):
        out = tmp_path / "camp"
        FabricCoordinator(CampaignSpec.from_dict(_SPEC), out).publish()
        assert main(
            ["campaign", "work", "--out", str(out), "--worker-id", "cli-worker",
             "--max-idle", "0.1", "--poll-interval", "0.01"]
        ) == 0
        assert "cli-worker: 2 completed" in capsys.readouterr().out
        for job_id in JOB_IDS:
            assert (out / "jobs" / job_id / "result.json").exists()

    def test_work_without_campaign_directory_reports_cleanly(self, tmp_path, capsys):
        started = time.monotonic()
        assert main(
            ["campaign", "work", "--out", str(tmp_path / "nowhere"),
             "--max-idle", "0.3", "--poll-interval", "0.05"]
        ) == 1
        assert time.monotonic() - started >= 0.3
        assert "not found" in capsys.readouterr().out
        assert not (tmp_path / "nowhere").exists()

    def test_worker_started_before_its_coordinator_completes_the_jobs(self, tmp_path):
        spec_path = _write_spec(tmp_path)
        out = tmp_path / "camp"
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "campaign", "work",
             "--out", str(out), "--worker-id", "early",
             "--poll-interval", "0.05", "--max-idle", "60"],
            cwd=REPO_ROOT,
            env=_subprocess_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            # The worker is polling for a directory no one has created yet.
            assert "waiting" in worker.stdout.readline()
            assert main(
                ["campaign", "coordinate", "--spec", str(spec_path), "--out", str(out),
                 "--no-serial-fallback", "--max-wall", "120", "--poll-interval", "0.05"]
            ) == 0
            stdout, _ = worker.communicate(timeout=60)
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait(timeout=60)
        assert worker.returncode == 0
        assert "early: 2 completed" in stdout
        for job_id in JOB_IDS:
            assert (out / "jobs" / job_id / "result.json").exists()


class TestFabricKillSmoke:
    """Real SIGKILL on a worker subprocess; coordinate finishes the grid."""

    def _start_worker(self, out_dir, worker_id):
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "campaign", "work",
             "--out", str(out_dir), "--worker-id", worker_id,
             "--lease-ttl", "2", "--poll-interval", "0.05", "--max-idle", "30"],
            cwd=REPO_ROOT,
            env=_subprocess_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def test_sigkilled_worker_campaign_is_byte_identical(self, tmp_path):
        spec_path = _write_spec(tmp_path)

        # Reference: uninterrupted single-host run.
        ref_dir = tmp_path / "reference"
        assert main(
            ["campaign", "run", "--spec", str(spec_path), "--out", str(ref_dir)]
        ) == 0

        # Victim fabric: publish, let a worker subprocess start, kill it
        # as soon as the first completion marker appears.
        out = tmp_path / "fabric"
        FabricCoordinator(CampaignSpec.from_dict(json.loads(spec_path.read_text())),
                          out, lease_ttl=2.0).publish()
        worker = self._start_worker(out, "victim")
        first_marker = out / "jobs" / JOB_IDS[0] / "result.json"
        deadline = time.monotonic() + 120.0
        try:
            while time.monotonic() < deadline:
                if first_marker.exists() or worker.poll() is not None:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("fabric worker made no progress within 120s")
        finally:
            if worker.poll() is None:
                worker.send_signal(signal.SIGKILL)
            worker.wait(timeout=60)

        # Coordinate finishes whatever the dead worker left behind (its
        # lease, if any, expires within --lease-ttl seconds).
        assert main(
            ["campaign", "coordinate", "--spec", str(spec_path), "--out", str(out),
             "--worker-timeout", "0", "--lease-ttl", "2", "--poll-interval", "0.05"]
        ) == 0

        for job_id in JOB_IDS:
            reference = (ref_dir / "jobs" / job_id / "front.json").read_bytes()
            fabric = (out / "jobs" / job_id / "front.json").read_bytes()
            assert reference == fabric, f"front diverged for {job_id}"
        assert main(["campaign", "report", "--out", str(ref_dir)]) == 0
        assert main(["campaign", "report", "--out", str(out)]) == 0
        assert (out / "report" / "summary.json").read_bytes() == (
            ref_dir / "report" / "summary.json"
        ).read_bytes()
