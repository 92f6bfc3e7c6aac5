"""Process-pool fan-out of genome evaluations.

NSGA-II fitness evaluations are embarrassingly parallel: each one retrains
and re-synthesizes an independent clone of the baseline. The
:class:`ParallelEvaluator` here fans the cache misses of each population out
over a ``ProcessPoolExecutor`` while keeping the engine's guarantees:

* **Bit-identical to serial** — every genome is evaluated with the same
  derived seed (:func:`repro.search.evaluator.genome_seed`) regardless of
  which worker runs it, and results are committed to the cache in
  submission order, so Pareto fronts, ``all_points()`` order and every
  downstream statistic match a serial run exactly.
* **One-time state transfer** — the prepared pipeline and evaluation
  settings are pickled once per worker (pool initializer), not once per
  task.
* **Graceful degradation** — with ``n_workers <= 1``, on platforms without
  working process pools, or if the pool dies mid-run, evaluation falls back
  to the in-process serial path.

The pool composes with the stacked population path: with ``stacked=True``
each batch of cache misses is split into one contiguous chunk per worker
and every worker evaluates its chunk as one stacked tensor program
(:func:`repro.search.objectives.evaluate_genomes_stacked`). Because the
stacked path is bit-identical per genome, the chunking is numerically
invisible — any worker count, chunk shape, or stacked/serial mix produces
the same design points.

Worker processes hold module-level state (set by :func:`_init_worker`);
tasks then only ship the genomes and their seeds.
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import List, Optional, Sequence, Tuple

from ..core.pipeline import PreparedPipeline
from ..core.results import DesignPoint
from .evaluator import SerialEvaluator, genome_seed
from .genome import Genome
from .objectives import evaluate_genome, evaluate_genomes_stacked
from .settings import EvaluationSettings

#: Per-process evaluation state, populated by :func:`_init_worker`.
_WORKER_STATE: dict = {}


def resolve_workers(n_workers: Optional[int]) -> int:
    """Normalize a worker-count request: ``None``/1 = serial, 0 = all cores."""
    if n_workers is None:
        return 1
    n_workers = int(n_workers)
    if n_workers < 0:
        raise ValueError(f"n_workers must be >= 0, got {n_workers}")
    if n_workers == 0:
        return os.cpu_count() or 1
    return n_workers


def _init_worker(payload: bytes) -> None:
    """Pool initializer: install the prepared pipeline + settings in this process."""
    prepared, settings = pickle.loads(payload)
    _WORKER_STATE["prepared"] = prepared
    _WORKER_STATE["settings"] = settings


def _evaluate_task(genome: Genome, seed: Optional[int]) -> DesignPoint:
    """One pool task: evaluate a single genome against the worker's state."""
    return evaluate_genome(
        genome, _WORKER_STATE["prepared"], _WORKER_STATE["settings"], seed=seed
    )


def _evaluate_chunk_task(
    genomes: Sequence[Genome], seeds: Sequence[Optional[int]]
) -> List[DesignPoint]:
    """One pool task: evaluate a population chunk through the stacked path."""
    return evaluate_genomes_stacked(
        genomes, _WORKER_STATE["prepared"], _WORKER_STATE["settings"], seeds
    )


def _chunk_bounds(n_items: int, n_chunks: int) -> List[Tuple[int, int]]:
    """Contiguous, balanced ``[start, stop)`` chunk bounds (no empty chunks)."""
    n_chunks = max(1, min(n_chunks, n_items))
    base, extra = divmod(n_items, n_chunks)
    bounds = []
    start = 0
    for index in range(n_chunks):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


class ParallelEvaluator(SerialEvaluator):
    """Evaluation engine that fans cache misses out over worker processes.

    Args:
        prepared: prepared pipeline (must be picklable — it is shipped to
            each worker once).
        settings: per-genome evaluation settings.
        seed: base seed for derived per-genome seeds.
        n_workers: worker processes. ``None``/1 evaluates in-process,
            0 uses every available core.
        stacked: evaluate each worker's share of the population as one
            stacked tensor program instead of genome-by-genome.
        cache_size: optional LRU bound on the evaluation cache.
        cache: injected cache instance (see :class:`SerialEvaluator`). The
            cache lives in the driver process only — workers evaluate misses
            and the driver commits them, so a persistent backend never needs
            to be picklable or multi-process safe.
    """

    def __init__(
        self,
        prepared: PreparedPipeline,
        settings: Optional[EvaluationSettings] = None,
        seed: Optional[int] = 0,
        n_workers: Optional[int] = None,
        stacked: bool = False,
        cache_size: Optional[int] = None,
        cache=None,
    ) -> None:
        super().__init__(
            prepared,
            settings,
            seed=seed,
            stacked=stacked,
            cache_size=cache_size,
            cache=cache,
        )
        self.n_workers = resolve_workers(n_workers)
        self._executor: Optional[ProcessPoolExecutor] = None

    # -- pool lifecycle ----------------------------------------------------------

    def _ensure_executor(self) -> Optional[ProcessPoolExecutor]:
        if self.n_workers <= 1:
            return None
        if self._executor is None:
            payload = pickle.dumps((self.prepared, self.settings))
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers,
                initializer=_init_worker,
                initargs=(payload,),
            )
        return self._executor

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    # -- evaluation --------------------------------------------------------------

    def _evaluate_missing(self, genomes: List[Genome]) -> List[DesignPoint]:
        seeds = [genome_seed(self.seed, genome) for genome in genomes]
        if self.n_workers > 1 and len(genomes) > 1:
            try:
                executor = self._ensure_executor()
                if self.stacked:
                    futures = [
                        executor.submit(
                            _evaluate_chunk_task,
                            genomes[start:stop],
                            seeds[start:stop],
                        )
                        for start, stop in _chunk_bounds(len(genomes), self.n_workers)
                    ]
                    return [
                        point for future in futures for point in future.result()
                    ]
                futures = [
                    executor.submit(_evaluate_task, genome, seed)
                    for genome, seed in zip(genomes, seeds)
                ]
                return [future.result() for future in futures]
            except (BrokenExecutor, OSError, pickle.PicklingError) as error:
                warnings.warn(
                    f"Parallel evaluation unavailable ({error!r}); "
                    "falling back to serial evaluation.",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self.close()
                self.n_workers = 1
        if self.stacked and len(genomes) > 1:
            return evaluate_genomes_stacked(genomes, self.prepared, self.settings, seeds)
        return [
            evaluate_genome(genome, self.prepared, self.settings, seed=seed)
            for genome, seed in zip(genomes, seeds)
        ]


def create_evaluator(
    prepared: PreparedPipeline,
    settings: Optional[EvaluationSettings] = None,
    seed: Optional[int] = 0,
    n_workers: Optional[int] = None,
    stacked: bool = True,
    cache_size: Optional[int] = None,
    cache=None,
) -> SerialEvaluator:
    """Factory used by the search drivers: serial engine unless workers are requested.

    ``stacked`` (on by default) batches each population through the stacked
    tensor path; ``cache_size`` bounds the in-memory evaluation cache.
    ``cache`` injects a prebuilt cache instance (e.g. the campaign layer's
    persistent on-disk backend) in place of a ``cache_size``-bounded one.
    """
    if resolve_workers(n_workers) > 1:
        return ParallelEvaluator(
            prepared,
            settings,
            seed=seed,
            n_workers=n_workers,
            stacked=stacked,
            cache_size=cache_size,
            cache=cache,
        )
    return SerialEvaluator(
        prepared, settings, seed=seed, stacked=stacked, cache_size=cache_size, cache=cache
    )
