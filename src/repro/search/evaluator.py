"""The evaluation engine behind every combined-search strategy.

All search drivers (the hardware-aware GA, random/grid baselines, future
distributed searches) funnel their fitness evaluations through one engine
with three responsibilities:

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
  :meth:`SerialEvaluator.evaluate_population`, the natural unit both for
  the process-pool fan-out in :mod:`repro.search.parallel` and for the
  stacked tensor path: with ``stacked=True`` the engine routes each
  batch of cache misses through
  :func:`~repro.search.objectives.evaluate_genomes_stacked`, which trains
  and scores the whole sub-population as ``(G, ...)`` stacked arrays —
  bit-identical to the per-genome loop, several times faster at
  population scale.

:class:`SerialEvaluator` is the in-process implementation (and the fallback
when no worker pool is available); :class:`~repro.search.parallel.ParallelEvaluator`
subclasses it to fan cache misses out over a ``ProcessPoolExecutor``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from ..core.lru import LRUCache
from ..core.pipeline import PreparedPipeline
from ..core.results import DesignPoint
from .genome import Genome
from .objectives import evaluate_genome, evaluate_genomes_stacked
from .settings import EvaluationSettings

#: Seeds are reduced modulo 2**32 so they are valid ``numpy`` seeds everywhere.
_SEED_SPACE = 2**32


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


class SerialEvaluator:
    """In-process evaluation engine: cache + per-genome seeding, no fan-out.

    Drop-in compatible with the legacy ``CachedEvaluator`` interface
    (callable per genome, ``n_evaluations``, ``cache_size``, ``all_points()``)
    while adding population-level evaluation.

    Args:
        prepared: prepared pipeline (trained baseline, data, technology).
        settings: per-genome evaluation settings.
        seed: base seed; each genome's evaluation seed is derived from it
            via :func:`genome_seed`.
        stacked: route batches of cache misses through the stacked
            population path (:func:`~repro.search.objectives.evaluate_genomes_stacked`)
            instead of a per-genome loop. Bit-identical results either way;
            the stacked path amortizes numpy dispatch across the population.
        cache_size: optional LRU bound on the evaluation cache.
        cache: use this cache instance instead of constructing a fresh
            in-memory one. Any :class:`EvaluationCache` subclass works — the
            campaign layer injects a persistent on-disk backend
            (:class:`repro.campaign.PersistentEvaluationCache`) here so
            evaluations survive process death and are shared across jobs.
            Mutually exclusive with ``cache_size`` (bound the injected cache
            at construction instead).
    """

    def __init__(
        self,
        prepared: PreparedPipeline,
        settings: Optional[EvaluationSettings] = None,
        seed: Optional[int] = 0,
        stacked: bool = False,
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
        self.stacked = bool(stacked)
        self.cache = cache if cache is not None else EvaluationCache(max_entries=cache_size)
        self.n_evaluations = 0

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
        """Release any evaluation resources (no-op for the serial engine)."""

    def __enter__(self) -> "SerialEvaluator":
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
        """Evaluate uncached genomes in-process. Overridden by the parallel engine."""
        seeds = [genome_seed(self.seed, genome) for genome in genomes]
        if self.stacked and len(genomes) > 1:
            return evaluate_genomes_stacked(genomes, self.prepared, self.settings, seeds)
        return [
            evaluate_genome(genome, self.prepared, self.settings, seed=seed)
            for genome, seed in zip(genomes, seeds)
        ]

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
