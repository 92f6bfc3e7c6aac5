"""Campaign state on disk: JSONL manifest, atomic job results, status.

A campaign directory looks like::

    <campaign>/
      spec.json            # the canonical spec this directory was built from
      manifest.jsonl       # append-only event log (started/completed/failed)
      cache/<context>.jsonl  # persistent per-genome evaluation records
      cache/baseline-<key>.npz  # trained float baseline, one per pipeline config
      jobs/<job_id>/
        front.json         # deterministic artifact: baseline + Pareto front
        result.json        # stats (wall-clock, evaluation counts, history)
      report/              # written by `repro campaign report`

``front.json`` holds only deterministic content (the golden resume test
byte-compares it); volatile run statistics live in ``result.json``, which is
written *last* via an atomic rename and therefore doubles as the job's
completion marker — a kill at any instant leaves either a complete job or
one that will be re-run (and fast-forwarded by the evaluation cache) on
resume.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from pathlib import Path
from typing import IO, Callable, Dict, List, Optional, Set, Union

MANIFEST_NAME = "manifest.jsonl"
SPEC_NAME = "spec.json"
JOBS_DIR = "jobs"
CACHE_DIR = "cache"
REPORT_DIR = "report"
FRONT_NAME = "front.json"
RESULT_NAME = "result.json"


def write_atomic(path: Union[str, Path], write: Callable[[IO[bytes]], None]) -> Path:
    """Write a file via a temp file + ``os.replace`` so readers never see halves.

    ``write`` fills the open binary temp file. The rename is atomic on POSIX
    filesystems: a concurrent reader (or a kill between write and rename)
    observes either the old file or the new one, never a truncated mix. The
    temp name is unique per call (``<name>.<random>.tmp``, in the same
    directory), so concurrent writers of one path never share or delete
    each other's temp file, and it ends in ``.tmp`` so no ``*.json`` /
    ``*.npz`` artifact glob picks it up. Returns the final path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp_path, "xb") as handle:
            write(handle)
        os.replace(tmp_path, path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    return path


def write_json_atomic(path: Union[str, Path], document: object) -> Path:
    """Write one JSON document atomically (see :func:`write_atomic`)."""
    payload = (json.dumps(document, indent=2, sort_keys=True) + "\n").encode("utf-8")
    return write_atomic(path, lambda handle: handle.write(payload))


def read_json(path: Union[str, Path]) -> object:
    """Load one JSON document (no tolerance — use for atomic-written files)."""
    return json.loads(Path(path).read_text())


class CampaignJournal:
    """The durable record of one campaign directory.

    Append-only events go to ``manifest.jsonl`` (one JSON object per line,
    flushed per event so a kill loses at most the in-flight line); job
    artifacts go to ``jobs/<job_id>/``. Everything here is readable while a
    campaign runs — ``repro campaign status`` is just a read of this state.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.manifest_path = self.directory / MANIFEST_NAME

    # -- manifest ----------------------------------------------------------------

    def append(self, event: str, **payload: object) -> None:
        """Append one event line to the manifest (creates the directory)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        record = {"event": event, "unix_time": round(time.time(), 3), **payload}
        with open(self.manifest_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()

    def events(self) -> List[Dict[str, object]]:
        """Every decodable manifest event, in append order.

        Tolerates a truncated trailing line (the signature of a kill during
        an append) by skipping undecodable records.
        """
        if not self.manifest_path.exists():
            return []
        events: List[Dict[str, object]] = []
        for line in self.manifest_path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                events.append(record)
        return events

    # -- job artifacts -----------------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        """Directory holding one job's artifacts."""
        return self.directory / JOBS_DIR / job_id

    def front_path(self, job_id: str) -> Path:
        """Path of a job's deterministic front artifact."""
        return self.job_dir(job_id) / FRONT_NAME

    def result_path(self, job_id: str) -> Path:
        """Path of a job's stats artifact (also the completion marker)."""
        return self.job_dir(job_id) / RESULT_NAME

    def write_job_artifacts(
        self,
        job_id: str,
        front_document: Dict[str, object],
        result_document: Dict[str, object],
    ) -> None:
        """Atomically write a job's front then its result (completion marker).

        Order matters: ``result.json`` lands last, so its existence implies
        the front artifact is complete too.
        """
        write_json_atomic(self.front_path(job_id), front_document)
        write_json_atomic(self.result_path(job_id), result_document)

    def load_front(self, job_id: str) -> Dict[str, object]:
        """A completed job's front document."""
        return read_json(self.front_path(job_id))  # type: ignore[return-value]

    def load_result(self, job_id: str) -> Dict[str, object]:
        """A completed job's result document."""
        return read_json(self.result_path(job_id))  # type: ignore[return-value]

    def completed_job_ids(self) -> Set[str]:
        """Jobs whose completion marker (``result.json``) exists."""
        jobs_root = self.directory / JOBS_DIR
        if not jobs_root.is_dir():
            return set()
        return {
            entry.name
            for entry in jobs_root.iterdir()
            if (entry / RESULT_NAME).is_file()
        }

    def failed_job_ids(self) -> Set[str]:
        """Jobs whose latest manifest event is a failure and have no result."""
        failed: Set[str] = set()
        for record in self.events():
            job_id = record.get("job_id")
            if not isinstance(job_id, str):
                continue
            if record["event"] == "job_failed":
                failed.add(job_id)
            elif record["event"] == "job_completed":
                failed.discard(job_id)
        return failed - self.completed_job_ids()

    # -- spec persistence --------------------------------------------------------

    @property
    def spec_path(self) -> Path:
        """Path of the campaign's canonical spec copy."""
        return self.directory / SPEC_NAME

    def cache_dir(self) -> Path:
        """Directory of the persistent evaluation-cache shards."""
        return self.directory / CACHE_DIR

    def report_dir(self) -> Path:
        """Directory aggregate reports are written to."""
        return self.directory / REPORT_DIR


def persist_spec(journal: CampaignJournal, spec) -> None:
    """Write ``spec.json`` on first use; verify the fingerprint afterwards.

    Shared by the single-host runner and the fabric coordinator so both
    paths enforce the same rule: a campaign directory is bound to exactly
    one spec, and resuming with a different one is an error, not silent
    corruption.
    """
    from .spec import CampaignSpec  # deferred: spec imports nothing from here

    if journal.spec_path.exists():
        existing = CampaignSpec.from_dict(read_json(journal.spec_path))  # type: ignore[arg-type]
        if existing.fingerprint() != spec.fingerprint():
            raise ValueError(
                f"Campaign directory {journal.directory} was created from a "
                "different spec (fingerprint mismatch). Use a fresh "
                "directory, or resume with the original spec."
            )
        return
    write_json_atomic(journal.spec_path, spec.as_dict())


def mark_campaign_completed(journal: CampaignJournal, spec) -> bool:
    """Append the once-only ``campaign_completed`` event if the grid is done.

    The single predicate shared by every execution path (serial runner,
    sharded runners, fabric coordinator): the event is appended exactly
    when *every* job in the spec's grid has its completion marker and the
    manifest does not already record completion. Returns whether the event
    was appended.
    """
    completed = journal.completed_job_ids()
    jobs = spec.expand()
    if not all(job.job_id in completed for job in jobs):
        return False
    if any(event.get("event") == "campaign_completed" for event in journal.events()):
        return False
    journal.append("campaign_completed", n_jobs=len(jobs))
    return True


def campaign_status(directory: Union[str, Path]) -> Dict[str, object]:
    """Summarize a campaign directory for ``repro campaign status``.

    Returns total/completed/failed/quarantined/pending counts, a top-level
    campaign ``state``, and per-job rows; raises ``FileNotFoundError`` when
    the directory holds no campaign spec. The same predicate serves every
    execution path — serial runs, sharded runs and the multi-worker fabric
    all report through artifact markers (plus the fabric's failure and
    quarantine records when present), so ``repro campaign status`` agrees
    with itself no matter which mode produced the directory.
    """
    from .fabric.layout import FabricLayout  # deferred: fabric imports this module
    from .spec import CampaignSpec  # deferred: spec imports nothing from here

    journal = CampaignJournal(directory)
    if not journal.spec_path.exists():
        raise FileNotFoundError(
            f"No campaign spec at {journal.spec_path} — is this a campaign directory?"
        )
    spec = CampaignSpec.from_dict(read_json(journal.spec_path))  # type: ignore[arg-type]
    jobs = spec.expand()
    completed = journal.completed_job_ids()
    layout = FabricLayout(directory)
    quarantined = set(layout.quarantined_job_ids())
    failed = (journal.failed_job_ids() | set(layout.failed_job_ids())) - completed
    rows = []
    for job in jobs:
        if job.job_id in completed:
            state = "completed"
        elif job.job_id in quarantined:
            state = "quarantined"
        elif job.job_id in failed:
            state = "failed"
        else:
            state = "pending"
        rows.append(
            {
                "job_id": job.job_id,
                "dataset": job.dataset,
                "algorithm": job.algorithm,
                "seed": job.seed,
                "state": state,
            }
        )
    grid_ids = {job.job_id for job in jobs}
    n_completed = len(completed & grid_ids)
    n_failed = sum(1 for row in rows if row["state"] == "failed")
    n_quarantined = sum(1 for row in rows if row["state"] == "quarantined")
    n_pending = sum(1 for row in rows if row["state"] == "pending")
    if n_completed == len(jobs):
        campaign_state = "completed"
    elif n_pending == 0:
        campaign_state = "failed"
    else:
        campaign_state = "in-progress"
    return {
        "name": spec.name,
        "fingerprint": spec.fingerprint(),
        "state": campaign_state,
        "total": len(jobs),
        "completed": n_completed,
        "failed": n_failed,
        "quarantined": n_quarantined,
        "pending": n_pending,
        "jobs": rows,
    }


def format_status(status: Dict[str, object]) -> str:
    """Human-readable status block printed by the CLI."""
    lines = [
        f"campaign   : {status['name']}",
        f"state      : {status.get('state', 'unknown')}",
        f"jobs       : {status['completed']}/{status['total']} completed, "
        f"{status['failed']} failed, {status['pending']} pending",
    ]
    if status.get("quarantined"):
        lines.append(f"quarantined: {status['quarantined']}")
    for row in status["jobs"]:  # type: ignore[union-attr]
        lines.append(f"  [{row['state']:>9}] {row['job_id']}")
    return "\n".join(lines)


def latest_event_time(directory: Union[str, Path]) -> Optional[float]:
    """Unix time of the newest manifest event, or ``None`` without a manifest."""
    events = CampaignJournal(directory).events()
    if not events:
        return None
    times = [e.get("unix_time") for e in events if isinstance(e.get("unix_time"), float)]
    return max(times) if times else None
