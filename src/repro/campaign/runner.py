"""Campaign execution: job dispatch, bounded concurrency, resume.

:class:`CampaignRunner` drives a :class:`~repro.campaign.spec.CampaignSpec`
to completion inside one campaign directory. The execution model:

* **Jobs are the unit of scheduling.** Each job runs one search (GA /
  random / grid) through the shared evaluation engine and writes its
  artifacts atomically; ``result.json`` is the completion marker.
* **Resume is the default.** Every run first reads the journal and skips
  completed jobs; a job killed mid-run re-executes from its spec but
  fast-forwards through the persistent evaluation cache, so the resumed
  campaign's fronts are byte-identical to an uninterrupted run.
* **Concurrency is bounded.** ``max_workers > 1`` fans whole jobs out over
  a ``ProcessPoolExecutor`` (each job may additionally parallelize its own
  evaluations via ``pipeline.n_workers``); ``shard="i/n"`` splits the job
  list round-robin across cooperating runner processes or machines.
* **Failures are contained.** A job that raises is journaled as failed and
  the campaign moves on; failed jobs are re-run by the next
  ``repro campaign resume``.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..core.pareto import best_area_gain_at_loss, pareto_front
from ..core.pipeline import MinimizationPipeline
from ..search.evaluator import EvaluationCache
from ..search.exhaustive import grid_search, random_search
from ..search.ga import HardwareAwareGA
from ..search.settings import FAULT_KNOBS
from .cache import (
    PersistentEvaluationCache,
    baseline_key,
    evaluation_context_key,
    load_baseline,
    save_baseline,
)
from .fabric.retry import RetryPolicy
from .journal import CampaignJournal, mark_campaign_completed, persist_spec
from .spec import CampaignSpec, JobSpec, parse_shard, search_settings, select_shard

#: Signature of a cache factory:
#: (cache_dir, context_key, max_entries) -> EvaluationCache.
CacheFactory = Callable[[Path, str, Optional[int]], EvaluationCache]


@dataclass
class JobOutcome:
    """What happened to one job during a :meth:`CampaignRunner.run` call."""

    job_id: str
    status: str  # "completed" | "failed"
    wall_s: float = 0.0
    n_evaluations: int = 0
    front_size: int = 0
    error: Optional[str] = None
    attempts: int = 1


@dataclass
class CampaignRunSummary:
    """Aggregate outcome of one :meth:`CampaignRunner.run` call."""

    directory: Path
    total_jobs: int
    completed_before: int
    outcomes: List[JobOutcome] = field(default_factory=list)
    remaining: int = 0

    @property
    def completed(self) -> int:
        """Jobs completed by this run."""
        return sum(1 for outcome in self.outcomes if outcome.status == "completed")

    @property
    def failed(self) -> int:
        """Jobs that raised during this run."""
        return sum(1 for outcome in self.outcomes if outcome.status == "failed")

    @property
    def ok(self) -> bool:
        """True when nothing failed and nothing remains pending."""
        return self.failed == 0 and self.remaining == 0


def execute_job(
    job: JobSpec,
    directory: Union[str, Path],
    use_cache: bool = True,
    cache_factory: Optional[CacheFactory] = None,
) -> JobOutcome:
    """Run one job end to end and write its artifacts into ``directory``.

    Pure apart from the campaign directory: everything the job computes is a
    function of its :class:`~repro.campaign.spec.JobSpec`, so re-executing a
    killed job (with or without warm cache shards) reproduces the same
    ``front.json`` bytes. Used directly by pool workers.

    With ``use_cache`` the trained float baseline is shared through the
    cache directory too: the first job of a configuration trains and stores
    it, every later one (same process, another worker, a resume) loads it.
    An unusable stored baseline is discarded, retrained and rewritten.
    """
    journal = CampaignJournal(directory)
    start = time.perf_counter()
    config = job.pipeline_config()
    baseline, baseline_discarded = None, 0
    if use_cache:
        stored_key = baseline_key(config)
        baseline, baseline_discarded = load_baseline(journal.cache_dir(), stored_key)
    prepared = MinimizationPipeline(config, baseline=baseline).prepare()
    params = job.search_params()

    # The search and the cache context key use the same settings.
    ga_config, settings = search_settings(job.algorithm, params, job.seed, config)
    cache_bound = ga_config.cache_size if ga_config is not None else None
    for name in FAULT_KNOBS:
        params.pop(name, None)

    cache: Optional[EvaluationCache] = None
    cache_stats: Dict[str, object] = {"enabled": bool(use_cache)}
    if use_cache:
        if prepared.baseline_source == "trained":
            # A stored baseline the pipeline would not take (foreign
            # architecture) counts as discarded, like an unreadable one.
            baseline_discarded += baseline is not None
            save_baseline(journal.cache_dir(), stored_key, prepared.baseline_model)
        cache_stats["baseline"] = prepared.baseline_source
        cache_stats["baseline_discarded"] = baseline_discarded
        context_key = evaluation_context_key(config, settings, job.seed)
        factory = cache_factory if cache_factory is not None else _default_cache_factory
        # The spec's memory bound applies to the in-memory view of the
        # persistent cache (disk records are never evicted).
        cache = factory(journal.cache_dir(), context_key, cache_bound)
        cache_stats["context_key"] = context_key
        cache_stats["preloaded"] = getattr(cache, "n_loaded", 0)

    generations: List[Dict[str, float]] = []
    try:
        if job.algorithm == "ga":
            ga = HardwareAwareGA(prepared, config=ga_config, settings=settings, cache=cache)
            result = ga.run()
            front = result.front
            n_evaluations = result.n_evaluations
            generations = result.generations
        elif job.algorithm == "random":
            points = random_search(
                prepared,
                n_evaluations=int(params.get("n_evaluations", 32)),
                settings=settings,
                seed=job.seed,
                n_workers=config.n_workers,
                cache=cache,
            )
            front = pareto_front(points, robust=settings.robustness_enabled)
            # Fresh evaluations only — points served from a shared campaign
            # cache (another job's work, or a pre-kill run's) don't count.
            n_evaluations = cache.misses if cache is not None else len(points)
        elif job.algorithm == "grid":
            points = grid_search(
                prepared,
                settings=settings,
                seed=job.seed,
                n_workers=config.n_workers,
                cache=cache,
                **params,
            )
            front = pareto_front(points, robust=settings.robustness_enabled)
            n_evaluations = cache.misses if cache is not None else len(points)
        else:  # pragma: no cover - SearchSpec.from_dict validates algorithms
            raise ValueError(f"Unknown algorithm '{job.algorithm}'")
    finally:
        if cache is not None:
            cache_stats["hits"] = cache.hits
            cache_stats["misses"] = cache.misses
            cache_stats["persisted"] = getattr(cache, "n_persisted", None)
            close = getattr(cache, "close", None)
            if callable(close):
                close()

    baseline = prepared.baseline_point
    best = best_area_gain_at_loss(front, baseline, config.max_accuracy_loss)
    front_document = {
        "job_id": job.job_id,
        "dataset": job.dataset,
        "algorithm": job.algorithm,
        "search_name": job.search_name,
        "seed": job.seed,
        "baseline": baseline.as_dict(),
        "front": [point.as_dict() for point in front],
        "best_gain_within_loss_budget": None if best is None else float(best.area_gain),
        "max_accuracy_loss": float(config.max_accuracy_loss),
    }
    wall_s = time.perf_counter() - start
    result_document = {
        "job": job.as_dict(),
        "status": "completed",
        "wall_s": round(wall_s, 6),
        "n_evaluations": n_evaluations,
        "front_size": len(front),
        "cache": cache_stats,
        "generations": generations,
    }
    journal.write_job_artifacts(job.job_id, front_document, result_document)
    return JobOutcome(
        job_id=job.job_id,
        status="completed",
        wall_s=wall_s,
        n_evaluations=n_evaluations,
        front_size=len(front),
    )


def _default_cache_factory(
    cache_dir: Path, context_key: str, max_entries: Optional[int]
) -> EvaluationCache:
    """The production cache backend: a persistent JSONL shard per context."""
    return PersistentEvaluationCache(cache_dir, context_key, max_entries=max_entries)


def _run_job_task(
    job_data: Dict[str, object],
    directory: str,
    use_cache: bool,
    retry_data: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Pool-worker entry: execute one job, never raise (failures are data).

    Transient failures are retried in the worker process per the (plain
    data, picklable) retry policy; the retry history travels back in the
    payload so the parent journals it in the manifest.
    """
    job = JobSpec.from_dict(job_data)
    retry = RetryPolicy.from_dict(retry_data) if retry_data is not None else RetryPolicy()
    retries: List[Dict[str, object]] = []
    attempt = 0
    while True:
        attempt += 1
        try:
            outcome = execute_job(job, directory, use_cache=use_cache)
        except Exception as error:  # noqa: BLE001 - worker must report, not crash the pool
            if retry.should_retry(error, attempt):
                delay = retry.delay(job.job_id, attempt)
                retries.append(
                    {
                        "attempt": attempt,
                        "delay": round(delay, 6),
                        "error": f"{type(error).__name__}: {error}",
                    }
                )
                if delay > 0:
                    time.sleep(delay)
                continue
            return {
                "job_id": job.job_id,
                "status": "failed",
                "error": f"{type(error).__name__}: {error}",
                "attempts": attempt,
                "retries": retries,
            }
        return {
            "job_id": outcome.job_id,
            "status": outcome.status,
            "wall_s": outcome.wall_s,
            "n_evaluations": outcome.n_evaluations,
            "front_size": outcome.front_size,
            "attempts": attempt,
            "retries": retries,
        }


class CampaignRunner:
    """Execute (or resume) a campaign inside one directory.

    Args:
        spec: the campaign to run. On a fresh directory the spec is copied
            to ``spec.json``; on an existing one the fingerprints must match
            (a changed spec invalidates journaled state).
        directory: campaign output directory (created on demand).
        max_workers: jobs run concurrently when > 1 (process pool). Each
            job's own evaluation fan-out (``pipeline.n_workers``) composes
            with this.
        use_cache: journal per-genome evaluations to the persistent on-disk
            cache (default on — this is what makes mid-job resume cheap).
        cache_factory: test hook replacing the persistent-cache constructor;
            forces serial execution because factories don't cross processes.
        shard: optional ``"i/n"`` selector — this runner only executes jobs
            whose grid index is congruent to ``i`` mod ``n``.
        retry: transient-failure policy (default :class:`RetryPolicy`):
            I/O- and timeout-shaped job failures retry with bounded
            exponential backoff; deterministic failures fail fast. Pass
            ``RetryPolicy(max_attempts=1)`` to disable retries.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        directory: Union[str, Path],
        max_workers: int = 1,
        use_cache: bool = True,
        cache_factory: Optional[CacheFactory] = None,
        shard: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.spec = spec
        self.directory = Path(directory)
        self.journal = CampaignJournal(self.directory)
        self.max_workers = int(max_workers)
        self.use_cache = bool(use_cache)
        self.cache_factory = cache_factory
        self.shard = parse_shard(shard)
        self.retry = retry if retry is not None else RetryPolicy()

    # -- lifecycle ---------------------------------------------------------------

    def _persist_spec(self) -> None:
        """Write ``spec.json`` on first run; verify the fingerprint afterwards."""
        persist_spec(self.journal, self.spec)

    def run(self, max_jobs: Optional[int] = None) -> CampaignRunSummary:
        """Run every pending job (resuming past work), up to ``max_jobs``.

        Completed jobs are detected from the journal and skipped — calling
        ``run`` on a finished campaign is a no-op. ``max_jobs`` bounds how
        many pending jobs this call executes (useful for incremental
        drains and for tests that interrupt a campaign deterministically).
        """
        self._persist_spec()
        jobs = select_shard(self.spec.expand(), self.shard)
        completed = self.journal.completed_job_ids()
        pending = [job for job in jobs if job.job_id not in completed]
        to_run = pending if max_jobs is None else pending[: max(0, int(max_jobs))]
        self.journal.append(
            "run_started",
            fingerprint=self.spec.fingerprint(),
            n_jobs=len(jobs),
            n_completed=len(jobs) - len(pending),
            n_scheduled=len(to_run),
            max_workers=self.max_workers,
            shard=None if self.shard is None else f"{self.shard[0]}/{self.shard[1]}",
        )
        summary = CampaignRunSummary(
            directory=self.directory,
            total_jobs=len(jobs),
            completed_before=len(jobs) - len(pending),
        )
        if self.max_workers > 1 and self.cache_factory is not None:
            warnings.warn(
                "cache_factory is not picklable across processes; "
                "running jobs serially.",
                RuntimeWarning,
                stacklevel=2,
            )
        if self.max_workers > 1 and len(to_run) > 1 and self.cache_factory is None:
            outcomes = self._run_pool(to_run)
        else:
            outcomes = [self._run_serial(job) for job in to_run]
        summary.outcomes = outcomes
        completed_now = self.journal.completed_job_ids()
        summary.remaining = sum(
            1 for job in jobs if job.job_id not in completed_now
        )
        # "campaign_completed" means the WHOLE grid is done, not just this
        # runner's shard — another shard's jobs may still be pending. The
        # once-only predicate is shared with the fabric coordinator so
        # every execution mode reports completion identically.
        mark_campaign_completed(self.journal, self.spec)
        return summary

    # -- execution strategies ----------------------------------------------------

    def _run_serial(self, job: JobSpec) -> JobOutcome:
        """Run one job in-process, journaling start/retries/completion/failure.

        Transient failures (I/O, timeouts, broken pools) retry with the
        runner's backoff policy; deterministic failures are journaled and
        surfaced after the first attempt.
        """
        self.journal.append("job_started", job_id=job.job_id)
        attempt = 0
        while True:
            attempt += 1
            try:
                outcome = execute_job(
                    job,
                    self.directory,
                    use_cache=self.use_cache,
                    cache_factory=self.cache_factory,
                )
            except Exception as error:
                message = f"{type(error).__name__}: {error}"
                if self.retry.should_retry(error, attempt):
                    delay = self.retry.delay(job.job_id, attempt)
                    self.journal.append(
                        "job_retrying",
                        job_id=job.job_id,
                        attempt=attempt,
                        delay=round(delay, 6),
                        error=message,
                    )
                    if delay > 0:
                        time.sleep(delay)
                    continue
                self.journal.append(
                    "job_failed", job_id=job.job_id, error=message, attempts=attempt
                )
                return JobOutcome(
                    job_id=job.job_id, status="failed", error=message, attempts=attempt
                )
            outcome.attempts = attempt
            self.journal.append(
                "job_completed",
                job_id=job.job_id,
                wall_s=round(outcome.wall_s, 6),
                n_evaluations=outcome.n_evaluations,
                front_size=outcome.front_size,
                attempts=attempt,
            )
            return outcome

    def _run_pool(self, jobs: List[JobSpec]) -> List[JobOutcome]:
        """Fan whole jobs out over a process pool, journaling in submit order.

        If the pool cannot be created or dies (no fork support, resource
        limits), the remaining jobs fall back to the serial path — a
        campaign never fails because of the pool.
        """
        outcomes: List[JobOutcome] = []
        try:
            with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
                futures = []
                for job in jobs:
                    self.journal.append("job_started", job_id=job.job_id)
                    futures.append(
                        pool.submit(
                            _run_job_task,
                            job.as_dict(),
                            str(self.directory),
                            self.use_cache,
                            self.retry.as_dict(),
                        )
                    )
                for future in futures:
                    outcomes.append(self._journal_pool_outcome(future.result()))
        except (OSError, BrokenExecutor) as error:
            warnings.warn(
                f"Job pool unavailable ({error!r}); running remaining jobs serially.",
                RuntimeWarning,
                stacklevel=2,
            )
            completed = self.journal.completed_job_ids()
            reported = {outcome.job_id for outcome in outcomes}
            for job in jobs:
                if job.job_id in reported or job.job_id in completed:
                    continue
                outcomes.append(self._run_serial(job))
        return outcomes

    def _journal_pool_outcome(self, payload: Dict[str, object]) -> JobOutcome:
        """Translate a worker's outcome dict into journal events + JobOutcome.

        The worker's retry history (if any) is journaled first so the
        manifest reads in causal order: retries, then the terminal event.
        """
        job_id = str(payload["job_id"])
        attempts = int(payload.get("attempts", 1))
        for retried in payload.get("retries", []):  # type: ignore[union-attr]
            self.journal.append(
                "job_retrying",
                job_id=job_id,
                attempt=int(retried.get("attempt", 1)),
                delay=float(retried.get("delay", 0.0)),
                error=str(retried.get("error", "")),
            )
        if payload["status"] == "completed":
            self.journal.append(
                "job_completed",
                job_id=job_id,
                wall_s=round(float(payload.get("wall_s", 0.0)), 6),
                n_evaluations=int(payload.get("n_evaluations", 0)),
                front_size=int(payload.get("front_size", 0)),
                attempts=attempts,
            )
            return JobOutcome(
                job_id=job_id,
                status="completed",
                wall_s=float(payload.get("wall_s", 0.0)),
                n_evaluations=int(payload.get("n_evaluations", 0)),
                front_size=int(payload.get("front_size", 0)),
                attempts=attempts,
            )
        error = str(payload.get("error", "unknown error"))
        self.journal.append("job_failed", job_id=job_id, error=error, attempts=attempts)
        return JobOutcome(job_id=job_id, status="failed", error=error, attempts=attempts)
