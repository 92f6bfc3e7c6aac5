"""Persistent on-disk backend for the genome evaluation cache.

:class:`PersistentEvaluationCache` extends the in-memory
:class:`~repro.search.evaluator.EvaluationCache` with an append-only JSONL
shard per *evaluation context*: every freshly evaluated design point is
journaled to disk the moment it enters the cache, and a new cache built for
the same context preloads all of them. Two properties follow:

* **Mid-job resume.** A search killed halfway re-runs from its spec, but
  every genome already evaluated before the kill is served from disk — the
  search fast-forwards through the dead run's work and, because cached
  points carry exactly the accuracy/area the evaluation produced (JSON
  round-trips floats exactly), continues bit-identically.
* **Cross-job sharing.** Jobs with the same evaluation context (same
  dataset, pipeline configuration, evaluation settings and base seed —
  e.g. a random-search and a grid-search job over one dataset) share a
  shard, so overlapping genomes are evaluated once per campaign, not once
  per job. Contexts are keyed by :func:`evaluation_context_key`, which
  hashes everything a design point depends on, so a shard can never leak
  stale results into a changed configuration.

The shard format is one JSON object per line (``{"genome": ..., "point":
..., "v": 1}``). Loading tolerates a truncated final line — exactly what a
``SIGKILL`` mid-append leaves behind — by skipping undecodable lines.
:func:`load_journal_records` exposes the same tolerant reader as a public
API (the surrogate trainer consumes it); records written before the
schema-version field existed load as version 0.

The trained float baseline is persisted next to the shards as
``baseline-<key>.npz`` (:func:`save_baseline` / :func:`load_baseline`): it is
a pure function of the :class:`~repro.core.config.PipelineConfig`, keyed by
:func:`baseline_key`, so every job of a campaign with that configuration —
in this process, a pool worker, a fabric worker or a later resume — loads it
instead of training it again. The shard readers only look at ``*.jsonl``.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Dict, List, Optional, Tuple, Union

from ..core.config import PipelineConfig
from ..core.results import DesignPoint
from ..nn.network import MLP
from ..nn.serialization import load_model, write_model
from ..search.evaluator import EvaluationCache
from ..search.genome import Genome
from ..search.settings import EvaluationSettings
from .journal import write_atomic

#: Version stamped on every journal record written by this build. Bump when
#: the record layout changes incompatibly; the reader accepts every version
#: up to and including this one (and unversioned legacy records as 0).
CACHE_SCHEMA_VERSION = 1


class SimulatedCrash(RuntimeError):
    """Raised by the ``fail_after_puts`` test hook to model process death.

    Tests use it to kill a search deterministically after N fresh
    evaluations have been journaled, then assert that resuming produces
    bit-identical results. Never raised in production configurations.
    """


def _pipeline_payload(config: PipelineConfig) -> Dict[str, object]:
    """The part of a pipeline configuration that cached results depend on.

    Earlier builds kept the engine and fault knobs (and an array-backend
    knob) on the pipeline configuration; the payload keeps the unset values
    they hashed so their cache shards and stored baselines still match.
    The worker count is pinned too: parallel evaluation is bit-identical to
    serial, so a cache written with any ``n_workers`` serves every other.
    """
    pipeline = asdict(config)
    pipeline.update(
        n_workers=1,
        stacked=True,
        cache_size=None,
        fault_rate=0.0,
        n_fault_trials=0,
        fault_model="open",
        backend=None,
    )
    return pipeline


def _digest(payload: Dict[str, object]) -> str:
    """16-hex-digit digest of a canonical JSON payload."""
    canonical = json.dumps(payload, sort_keys=True, default=list)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def evaluation_context_key(
    config: PipelineConfig,
    settings: Optional[EvaluationSettings],
    seed: Optional[int],
) -> str:
    """Hash of everything a cached design point depends on.

    A design point is a pure function of ``(genome, prepared pipeline,
    evaluation settings, derived seed)``; the prepared pipeline is itself a
    pure function of the :class:`~repro.core.config.PipelineConfig`, and the
    derived seed of ``(base seed, genome)``. Hashing ``(config, settings,
    base seed)`` therefore identifies exactly the set of evaluations that
    may be shared. Returns a 16-hex-digit digest used as the shard filename.
    """
    settings = settings if settings is not None else EvaluationSettings()
    evaluation = asdict(settings)
    # Earlier builds' resolved settings hashed the backend as "numpy".
    evaluation["backend"] = "numpy"
    return _digest(
        {
            "pipeline": _pipeline_payload(config),
            "settings": evaluation,
            "seed": None if seed is None else int(seed),
        }
    )


def baseline_key(config: PipelineConfig) -> str:
    """Hash of the pipeline payload a trained float baseline depends on.

    The same payload :func:`evaluation_context_key` hashes, so a stored
    baseline is exactly as specific as the shards next to it: keyed by
    configuration, not by code (delete ``cache/`` after changing training).
    """
    return _digest(_pipeline_payload(config))


def baseline_path(cache_dir: Union[str, Path], key: str) -> Path:
    """Where the baseline for ``key`` lives: ``<cache_dir>/baseline-<key>.npz``."""
    return Path(cache_dir) / f"baseline-{key}.npz"


def save_baseline(cache_dir: Union[str, Path], key: str, model: MLP) -> Path:
    """Store a trained float baseline atomically (readers never see halves).

    The file is :func:`repro.nn.serialization.write_model`'s npz layout —
    architecture header, format version, weights and biases — whose bytes
    depend on the model alone, so racing writers of one config leave the
    same bytes behind.
    """
    return write_atomic(
        baseline_path(cache_dir, key), lambda handle: write_model(model, handle)
    )


def load_baseline(cache_dir: Union[str, Path], key: str) -> Tuple[Optional[MLP], int]:
    """Read the stored baseline for ``key``; never raises.

    Returns ``(model, 0)`` for a readable file, ``(None, 0)`` when there is
    none, and ``(None, 1)`` when the file exists but cannot be used (torn or
    foreign bytes, a missing array, another format version): the caller
    counts it as discarded, trains, and rewrites it. Whether the model's
    architecture fits the configuration is the pipeline's check.
    """
    path = baseline_path(cache_dir, key)
    if not path.exists():
        return None, 0
    try:
        return load_model(path), 0
    except (AttributeError, EOFError, KeyError, OSError, TypeError, ValueError,
            zipfile.BadZipFile):
        return None, 1


@dataclass(frozen=True)
class JournalRecord:
    """One decoded evaluation-journal record.

    Attributes:
        genome: the evaluated genome.
        point: the design point the evaluation produced.
        context_key: digest of the evaluation context the record belongs to
            (the shard filename stem).
        schema_version: the ``"v"`` field of the on-disk record; records
            written before the field existed report 0.
    """

    genome: Genome
    point: DesignPoint
    context_key: str
    schema_version: int


def _journal_generation_paths(directory: Path, context_key: str) -> List[Path]:
    """Every shard generation of one context in write order."""
    paths = []
    base = directory / f"{context_key}.jsonl"
    if base.exists():
        paths.append(base)
    paths.extend(sorted(directory.glob(f"{context_key}.g[0-9]*.jsonl")))
    return paths


def _journal_context_keys(directory: Path) -> List[str]:
    """Every evaluation-context key with at least one shard in ``directory``."""
    keys = set()
    for path in directory.glob("*.jsonl"):
        stem = path.name[: -len(".jsonl")]
        head, dot, generation = stem.rpartition(".")
        if dot and generation.startswith("g") and generation[1:].isdigit():
            stem = head
        keys.add(stem)
    return sorted(keys)


def _decode_journal_line(line: str, context_key: str) -> Optional[JournalRecord]:
    """Decode one journal line, or ``None`` if it is torn or unreadable."""
    line = line.strip()
    if not line:
        return None
    try:
        entry = json.loads(line)
        version = int(entry.get("v", 0))
        if version > CACHE_SCHEMA_VERSION:
            return None  # written by a newer build; layout unknown
        genome = Genome(**entry["genome"])
        point = DesignPoint(**entry["point"])
    except (json.JSONDecodeError, AttributeError, KeyError, TypeError, ValueError):
        # A killed process can leave a truncated trailing line (or a torn
        # sector a garbage middle one); undecodable records are skipped.
        return None
    return JournalRecord(
        genome=genome, point=point, context_key=context_key, schema_version=version
    )


def load_journal_records(
    cache_dir: Union[str, Path],
    context_key: Optional[str] = None,
) -> List[JournalRecord]:
    """Read every decodable evaluation record journaled under ``cache_dir``.

    The public counterpart of the loader inside
    :class:`PersistentEvaluationCache` — the surrogate trainer
    (:func:`repro.surrogate.fit_from_cache`) uses it to turn a campaign's
    journal shards into a training set without constructing caches.

    Args:
        cache_dir: shard directory (``<campaign>/cache/``). A missing
            directory yields an empty list, not an error.
        context_key: restrict to one evaluation context (the digest from
            :func:`evaluation_context_key`); ``None`` reads every context
            found in the directory.

    Returns:
        Decoded records in journal order (base shard first, then rotated
        ``.gNNNN`` generations; contexts in sorted key order when reading
        all of them), deduplicated by genome key *within* each context —
        the first decodable occurrence wins, matching cache-load semantics.
        Torn tails, corrupt middles, and records from newer schema versions
        are skipped silently; unversioned legacy records load as version 0.
    """
    directory = Path(cache_dir)
    if not directory.is_dir():
        return []
    keys = [context_key] if context_key is not None else _journal_context_keys(directory)
    records: List[JournalRecord] = []
    for key in keys:
        seen: set = set()
        for path in _journal_generation_paths(directory, key):
            for line in path.read_text().splitlines():
                record = _decode_journal_line(line, key)
                if record is None or record.genome.key() in seen:
                    continue
                seen.add(record.genome.key())
                records.append(record)
    return records


class PersistentEvaluationCache(EvaluationCache):
    """An :class:`~repro.search.evaluator.EvaluationCache` journaled to disk.

    Args:
        directory: shard directory (created on demand); campaigns use
            ``<campaign>/cache/``.
        context_key: evaluation-context digest from
            :func:`evaluation_context_key`; names the shard file.
        max_entries: optional LRU bound on the *in-memory* view. Disk
            records are never evicted — an entry dropped from memory is
            reloaded by the next cache built for this context (and is not
            re-appended if re-evaluated meanwhile).
        fail_after_puts: test hook — raise :class:`SimulatedCrash` after
            this many fresh points have been journaled by this instance.
        fsync: fsync the shard after every journaled point. Durable against
            power loss (not just process death) at a per-put latency cost;
            off by default because evaluations dominate runtime anyway.
        rotate_max_bytes: optional shard-rotation threshold. When the
            active generation file reaches this size it is sealed and a new
            generation (``<context>.gNNNN.jsonl``) opened; loading reads
            every generation in order. Bounds the blast radius of tail
            corruption and keeps per-file sizes bounded on long campaigns.
        fsync_on_rotation: fsync a sealed generation before opening the
            next one (default on — rotation is rare, durability is cheap
            there), independent of the per-put ``fsync`` flag.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        context_key: str,
        max_entries: Optional[int] = None,
        fail_after_puts: Optional[int] = None,
        fsync: bool = False,
        rotate_max_bytes: Optional[int] = None,
        fsync_on_rotation: bool = True,
    ) -> None:
        super().__init__(max_entries=max_entries)
        if rotate_max_bytes is not None and rotate_max_bytes <= 0:
            raise ValueError(f"rotate_max_bytes must be > 0, got {rotate_max_bytes}")
        self.directory = Path(directory)
        self.context_key = str(context_key)
        self.path = self.directory / f"{self.context_key}.jsonl"
        self.n_loaded = 0
        self.n_persisted = 0
        self.n_rotations = 0
        self.fsync = bool(fsync)
        self.rotate_max_bytes = rotate_max_bytes
        self.fsync_on_rotation = bool(fsync_on_rotation)
        self._persisted_keys: set = set()
        self._handle: Optional[IO[str]] = None
        self._fail_after_puts = fail_after_puts
        self._load()

    # -- persistence -------------------------------------------------------------

    def _generation_paths(self) -> list:
        """Every shard generation in write order: base file, then rotations."""
        paths = []
        if self.path.exists():
            paths.append(self.path)
        paths.extend(sorted(self.directory.glob(f"{self.context_key}.g[0-9]*.jsonl")))
        return paths

    def _active_path(self) -> Path:
        """The generation currently being appended to (the newest one)."""
        generations = self._generation_paths()
        return generations[-1] if generations else self.path

    def _next_generation_path(self) -> Path:
        """The path the next rotation seals into."""
        return self.directory / f"{self.context_key}.g{self.n_rotations + 1:04d}.jsonl"

    def _load(self) -> None:
        """Preload every shard generation, skipping corrupt records.

        Corruption tolerance is per *record*, not just the trailing line: a
        torn mid-file write (partial sector on power loss) corrupts exactly
        one line, and every decodable record after it still loads.
        """
        generations = self._generation_paths()
        self.n_rotations = max(0, len(generations) - 1)
        for path in generations:
            for line in path.read_text().splitlines():
                record = _decode_journal_line(line, self.context_key)
                if record is None:
                    continue
                key = record.genome.key()
                if key not in self._persisted_keys:
                    self.n_loaded += 1
                self._persisted_keys.add(key)
                EvaluationCache.put(self, record.genome, record.point)

    def _ensure_handle(self) -> IO[str]:
        if self._handle is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            # O_APPEND single-line writes: safe under concurrent shard use by
            # cooperating runner processes (duplicate records are tolerated).
            self._handle = open(self._active_path(), "a", encoding="utf-8")
        return self._handle

    def _maybe_rotate(self) -> None:
        """Seal the active generation and open the next when over the bound."""
        if self.rotate_max_bytes is None or self._handle is None:
            return
        if self._handle.tell() < self.rotate_max_bytes:
            return
        if self.fsync_on_rotation:
            os.fsync(self._handle.fileno())
        self._handle.close()
        next_path = self._next_generation_path()
        self.n_rotations += 1
        self._handle = open(next_path, "a", encoding="utf-8")

    def put(self, genome: Genome, point: DesignPoint) -> None:
        """Insert a point and journal it to the shard if it is new on disk."""
        super().put(genome, point)
        key = genome.key()
        if key in self._persisted_keys:
            return
        record = {
            "genome": genome.as_dict(),
            "point": point.as_dict(),
            "v": CACHE_SCHEMA_VERSION,
        }
        handle = self._ensure_handle()
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())
        self._maybe_rotate()
        self._persisted_keys.add(key)
        self.n_persisted += 1
        if self._fail_after_puts is not None and self.n_persisted >= self._fail_after_puts:
            raise SimulatedCrash(
                f"fail_after_puts={self._fail_after_puts} reached for "
                f"context {self.context_key}"
            )

    def close(self) -> None:
        """Close the shard file handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "PersistentEvaluationCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
