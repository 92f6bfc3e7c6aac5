"""The evaluation engine behind every combined-search strategy.

All search drivers (the hardware-aware GA, random/grid baselines, the
campaign layer) funnel their fitness evaluations through one
:class:`EvaluationEngine` with four responsibilities:

* **Caching** — genome evaluations are memoized by the genome's hashable
  identity, shared across generations, so re-encountered genomes cost
  nothing (:class:`EvaluationCache`). Long-running searches can bound the
  memo with ``cache_size`` (LRU eviction).
* **Determinism** — every genome gets its own RNG seed, derived with a
  process-independent hash of the genome identity and the search's base
  seed (:func:`genome_seed`). Evaluation therefore depends only on
  ``(genome, prepared, settings, base_seed)`` — never on evaluation order
  or on which worker process ran it — which is what makes parallel and
  serial searches bit-identical.
* **Batching** — drivers submit whole populations via
  :meth:`EvaluationEngine.evaluate_population`, and every batch of cache
  misses goes through
  :func:`~repro.search.objectives.evaluate_genomes_stacked`, which trains
  and scores the whole sub-population as ``(G, ...)`` stacked arrays —
  bit-identical to the per-genome loop (its own fallback for single
  genomes, zero fine-tune epochs and models that cannot stack), several
  times faster at population scale.
* **Fan-out** — with ``n_workers > 1`` the misses of a batch are split into
  one contiguous chunk per worker of a ``ProcessPoolExecutor``, and each
  worker evaluates its chunk through the same stacked path. The prepared
  pipeline and settings are pickled once per worker (pool initializer);
  tasks ship only genomes and seeds. Results are committed to the cache in
  submission order, so fronts, ``all_points()`` order and every statistic
  match a serial run exactly. If the pool cannot start or dies mid-run,
  the engine warns and evaluates in-process from then on.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.lru import LRUCache
from ..core.pipeline import PreparedPipeline
from ..core.results import DesignPoint
from .genome import Genome
from .objectives import evaluate_genomes_stacked
from .settings import EvaluationSettings

#: Seeds are reduced modulo 2**32 so they are valid ``numpy`` seeds everywhere.
_SEED_SPACE = 2**32

#: Per-process evaluation state, populated by :func:`_init_worker`.
_WORKER_STATE: dict = {}


def genome_seed(base_seed: Optional[int], genome: Genome) -> Optional[int]:
    """Deterministic per-genome RNG seed.

    Derived from a SHA-256 digest of the genome identity mixed with the
    search's base seed, so it is stable across processes and Python runs
    (unlike ``hash()``, which is salted by ``PYTHONHASHSEED``). ``None``
    base seeds are passed through: the caller asked for unseeded evaluation.
    """
    if base_seed is None:
        return None
    digest = hashlib.sha256(
        f"{int(base_seed)}|{genome.key()!r}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_SPACE


class EvaluationCache(LRUCache):
    """Genome-keyed memo of evaluated design points.

    An :class:`~repro.core.lru.LRUCache` keyed by ``genome.key()``.
    Unbounded by default, with insertion order preserved (it matches the
    order genomes were first submitted for evaluation), so :meth:`points`
    is deterministic and identical between serial and parallel runs.

    Args:
        max_entries: optional LRU bound. Evicted genomes disappear from
            :meth:`points` and will be re-evaluated if encountered again —
            re-evaluation is deterministic, so search results are
            unchanged; only wall-clock and the all-points bookkeeping are
            affected.
    """

    def __contains__(self, genome: Genome) -> bool:
        return genome.key() in self._entries

    def get(self, genome: Genome) -> Optional[DesignPoint]:
        """Cached point for ``genome``, or ``None`` (refreshes LRU recency).

        Pure lookup as far as the hit/miss statistics go — the evaluator
        maintains ``hits``/``misses`` at the population level, where
        intra-batch duplicates are visible.
        """
        return super().get(genome.key())

    def put(self, genome: Genome, point: DesignPoint) -> None:
        """Insert (or refresh) a genome's design point, evicting LRU overflow."""
        super().put(genome.key(), point)

    def points(self) -> List[DesignPoint]:
        """Every design point currently held, in first-seen (or LRU) order."""
        return self.values()


def resolve_workers(n_workers: Optional[int]) -> int:
    """Normalize a worker-count request: ``None``/1 = serial, 0 = all usable cores.

    "All cores" counts the CPUs this process may run on (its affinity
    mask) where the platform reports one, not every CPU of the machine.
    """
    if n_workers is None:
        return 1
    n_workers = int(n_workers)
    if n_workers < 0:
        raise ValueError(f"n_workers must be >= 0, got {n_workers}")
    if n_workers == 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return n_workers


def _init_worker(payload: bytes) -> None:
    """Pool initializer: install the prepared pipeline + settings in this process."""
    prepared, settings = pickle.loads(payload)
    _WORKER_STATE["prepared"] = prepared
    _WORKER_STATE["settings"] = settings


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


class EvaluationEngine:
    """Cache + per-genome seeding + stacked batches, optionally over a process pool.

    Callable per genome, with ``n_evaluations``, ``cache_size`` and
    ``all_points()`` for the drivers' bookkeeping.

    Args:
        prepared: prepared pipeline (trained baseline, data, technology);
            pickled once per worker when a pool is used.
        settings: per-genome evaluation settings.
        seed: base seed; each genome's evaluation seed is derived from it
            via :func:`genome_seed`.
        n_workers: worker processes. ``None``/1 evaluates in-process,
            0 uses every core this process may run on.
        cache_size: optional LRU bound on the evaluation cache.
        cache: use this cache instance instead of constructing a fresh
            in-memory one. Any :class:`EvaluationCache` subclass works — the
            campaign layer injects a persistent on-disk backend
            (:class:`repro.campaign.PersistentEvaluationCache`) here so
            evaluations survive process death and are shared across jobs.
            The cache lives in the driver process only (workers evaluate,
            the driver commits), so it never needs to be picklable.
            Mutually exclusive with ``cache_size`` (bound the injected cache
            at construction instead).
    """

    def __init__(
        self,
        prepared: PreparedPipeline,
        settings: Optional[EvaluationSettings] = None,
        seed: Optional[int] = 0,
        n_workers: Optional[int] = None,
        cache_size: Optional[int] = None,
        cache: Optional[EvaluationCache] = None,
    ) -> None:
        if cache is not None and cache_size is not None:
            raise ValueError(
                "Pass either an injected cache or cache_size, not both "
                "(bound an injected cache when constructing it)"
            )
        self.prepared = prepared
        self.settings = settings if settings is not None else EvaluationSettings()
        self.seed = seed
        self.n_workers = resolve_workers(n_workers)
        self.cache = cache if cache is not None else EvaluationCache(max_entries=cache_size)
        self.n_evaluations = 0
        self._executor: Optional[ProcessPoolExecutor] = None

    # -- engine interface --------------------------------------------------------

    def evaluate_population(self, genomes: List[Genome]) -> List[DesignPoint]:
        """Evaluate a population, returning points aligned with ``genomes``.

        Duplicates within the population and genomes already seen in earlier
        generations are served from the cache; only distinct unseen genomes
        are evaluated. ``cache.misses`` counts those fresh evaluations;
        ``cache.hits`` counts every other request in the batch (including
        intra-batch duplicates of a new genome).
        """
        missing = self._cache_misses(genomes)
        self.cache.misses += len(missing)
        self.cache.hits += len(genomes) - len(missing)
        # Resolve cached points before inserting the fresh ones: with a
        # bounded cache the inserts below may evict genomes this very batch
        # still needs.
        resolved: Dict[Tuple, DesignPoint] = {}
        missing_keys = {genome.key() for genome in missing}
        for genome in genomes:
            key = genome.key()
            if key in missing_keys or key in resolved:
                continue
            point = self.cache.get(genome)  # refreshes LRU recency on hits
            if point is None:  # pragma: no cover - _cache_misses guarantees presence
                raise KeyError(key)
            resolved[key] = point
        if missing:
            evaluated = self._evaluate_missing(missing)
            for genome, point in zip(missing, evaluated):
                self.cache.put(genome, point)
                resolved[genome.key()] = point
            self.n_evaluations += len(missing)
        return [resolved[genome.key()] for genome in genomes]

    def evaluate(self, genome: Genome) -> DesignPoint:
        """Evaluate a single genome through the cache."""
        return self.evaluate_population([genome])[0]

    __call__ = evaluate

    def close(self) -> None:
        """Shut the worker pool down, if one was started (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ---------------------------------------------------------------

    def _cache_misses(self, genomes: List[Genome]) -> List[Genome]:
        """Distinct genomes of the batch that are not cached, in first-seen order."""
        missing: List[Genome] = []
        seen: set = set()
        for genome in genomes:
            key = genome.key()
            if key in seen or genome in self.cache:
                continue
            missing.append(genome)
            seen.add(key)
        return missing

    def _evaluate_missing(self, genomes: List[Genome]) -> List[DesignPoint]:
        """Evaluate uncached genomes: one stacked chunk per worker, or in-process."""
        seeds = [genome_seed(self.seed, genome) for genome in genomes]
        if self.n_workers > 1 and len(genomes) > 1:
            try:
                if self._executor is None:
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.n_workers,
                        initializer=_init_worker,
                        initargs=(pickle.dumps((self.prepared, self.settings)),),
                    )
                futures = [
                    self._executor.submit(
                        _evaluate_chunk_task, genomes[start:stop], seeds[start:stop]
                    )
                    for start, stop in _chunk_bounds(len(genomes), self.n_workers)
                ]
                return [point for future in futures for point in future.result()]
            except (BrokenExecutor, OSError, pickle.PicklingError) as error:
                warnings.warn(
                    f"Parallel evaluation unavailable ({error!r}); "
                    "falling back to serial evaluation.",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self.close()
                self.n_workers = 1
        return evaluate_genomes_stacked(genomes, self.prepared, self.settings, seeds)

    # -- introspection -----------------------------------------------------------

    @property
    def cache_size(self) -> int:
        """Number of design points currently held by the evaluation cache."""
        return len(self.cache)

    @property
    def cache_hits(self) -> int:
        """Population-level cache hits (includes intra-batch duplicates)."""
        return self.cache.hits

    def all_points(self) -> List[DesignPoint]:
        """Every distinct design point still cached (all of them when unbounded)."""
        return self.cache.points()


# perfbench times ``repro.search.evaluator.SerialEvaluator.evaluate_population``.
SerialEvaluator = EvaluationEngine
