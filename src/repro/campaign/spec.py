"""Declarative campaign specifications and their expansion into jobs.

A campaign describes a *grid* of search runs — datasets × search
algorithms × seeds, sharing a pipeline configuration — as plain data
(a YAML/JSON file or a Python dict). :meth:`CampaignSpec.expand` turns
the grid into a deterministic, ordered list of :class:`JobSpec` entries;
everything downstream (the runner, the journal, resume, reporting) keys
off the stable ``job_id`` each job gets here.

Spec layout::

    name: paper-fronts
    datasets: [whitewine, seeds]      # names, or "all" for the paper's four
    seeds: [0, 1]                     # optional, default [0]
    pipeline:                         # optional PipelineConfig overrides
      fast: true                      # start from fast_config(...)
      train_epochs: 10
      n_workers: 2
    searches:
      - algorithm: ga                 # ga | random | grid
        name: ga-small                # optional label (defaults to algorithm)
        population_size: 8
        n_generations: 3
      - algorithm: random
        n_evaluations: 16
        fault_rate: 0.05              # fault knobs: on any search entry
        n_fault_trials: 4

Job identity is ``{dataset}-{search name}-s{seed}``, and
:meth:`CampaignSpec.fingerprint` hashes the canonical spec so a resumed
campaign can refuse to run against an edited spec.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.config import PipelineConfig, fast_config
from ..datasets.registry import resolve_dataset_names
from ..search.exhaustive import random_budget
from ..search.ga import GAConfig
from ..search.genome import GenomeSpace
from ..search.settings import FAULT_KNOBS, EvaluationSettings, resolve_evaluation_settings

#: Search algorithms a campaign job may request.
ALGORITHMS: Tuple[str, ...] = ("ga", "random", "grid")

#: Per-algorithm search parameters accepted in a spec (beyond ``algorithm``/``name``).
_FAULT_PARAMS = frozenset(FAULT_KNOBS)
_GA_PARAMS = _FAULT_PARAMS | frozenset(
    {
        "population_size",
        "n_generations",
        "mutation_rate",
        "crossover_rate",
        "finetune_epochs",
        "cache_size",
        "surrogate",
        "surrogate_candidates",
        "surrogate_prefilter",
        "halving_budgets",
        "bit_choices",
        "sparsity_choices",
        "cluster_choices",
    }
)
_RANDOM_PARAMS = frozenset({"n_evaluations"}) | _FAULT_PARAMS
_GRID_PARAMS = frozenset({"bit_choices", "sparsity_choices", "cluster_choices"}) | _FAULT_PARAMS
_SEARCH_PARAMS = {"ga": _GA_PARAMS, "random": _RANDOM_PARAMS, "grid": _GRID_PARAMS}

#: Search names become path components of ``jobs/<job_id>/`` — keep them safe.
_SEARCH_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: PipelineConfig overrides accepted in a spec (``dataset``/``seed`` come from the grid).
_PIPELINE_PARAMS = frozenset(
    {f.name for f in fields(PipelineConfig)} - {"dataset", "seed"} | {"fast"}
)

#: Search knobs that earlier builds also accepted under ``pipeline``.
_MOVED_TO_SEARCH = _FAULT_PARAMS | {
    "cache_size",
    "surrogate",
    "surrogate_candidates",
    "surrogate_prefilter",
    "halving_budgets",
}


def _canonical_json(payload: object) -> str:
    """Stable JSON serialization used for fingerprints and job identity."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class SearchSpec:
    """One search-algorithm configuration of the campaign grid.

    Attributes:
        algorithm: one of :data:`ALGORITHMS`.
        name: label used in job ids (defaults to the algorithm name; must be
            unique within a campaign).
        params: algorithm parameters — :class:`~repro.search.ga.GAConfig`
            fields for ``ga``, ``n_evaluations`` for ``random``, the three
            gene alphabets for ``grid``; ``random`` and ``grid`` also take
            the three fault-injection knobs.
    """

    algorithm: str
    name: str
    params: Tuple[Tuple[str, object], ...] = ()

    def param_dict(self) -> Dict[str, object]:
        """The search parameters as a plain dict."""
        return {key: value for key, value in self.params}

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "SearchSpec":
        """Validate and build one search entry from its spec mapping."""
        entry = dict(data)
        algorithm = str(entry.pop("algorithm", "")).strip().lower()
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"Unknown search algorithm '{algorithm}'. Valid: {ALGORITHMS}"
            )
        name = str(entry.pop("name", algorithm))
        if not _SEARCH_NAME_PATTERN.match(name):
            raise ValueError(
                f"Search name '{name}' is invalid: it becomes part of the "
                "job directory name, so only letters, digits, '.', '_' and "
                "'-' are allowed (and it must not start with a separator)"
            )
        allowed = _SEARCH_PARAMS[algorithm]
        unknown = set(entry) - allowed
        if unknown:
            raise ValueError(
                f"Unknown parameters {sorted(unknown)} for '{algorithm}' search "
                f"'{name}'. Valid: {sorted(allowed)}"
            )
        try:
            search_settings(algorithm, entry)
        except (TypeError, ValueError) as error:
            raise ValueError(f"Invalid '{algorithm}' search '{name}': {error}") from error
        params = tuple(
            (key, _freeze(value)) for key, value in sorted(entry.items())
        )
        return SearchSpec(algorithm=algorithm, name=name, params=params)

    def as_dict(self) -> Dict[str, object]:
        """Plain-data form (inverse of :meth:`from_dict`)."""
        doc: Dict[str, object] = {"algorithm": self.algorithm, "name": self.name}
        doc.update({key: _thaw(value) for key, value in self.params})
        return doc


def search_settings(
    algorithm: str,
    params: Mapping[str, object],
    seed: int = 0,
    pipeline_config: Optional[PipelineConfig] = None,
) -> Tuple[Optional[GAConfig], EvaluationSettings]:
    """The GA configuration (``ga`` only) and evaluation settings of a search.

    Jobs build their search through this, and :meth:`SearchSpec.from_dict`
    builds it once at load, so a bad value fails there rather than in
    every job. A ``random`` or ``grid`` search fine-tunes for
    ``pipeline_config``'s epochs (the settings default without one). A
    ``random`` budget and the ``grid`` gene alphabets go through the checks
    :func:`~repro.search.exhaustive.random_search` and
    :func:`~repro.search.exhaustive.grid_search` apply.
    """
    if algorithm == "ga":
        ga_config = GAConfig(**params, seed=seed)
        return ga_config, resolve_evaluation_settings(ga_config=ga_config)
    fault_knobs = {name: params[name] for name in FAULT_KNOBS if name in params}
    search_params = {name: value for name, value in params.items() if name not in FAULT_KNOBS}
    if algorithm == "grid":
        GenomeSpace(1, **search_params)
    elif "n_evaluations" in search_params:
        random_budget(search_params["n_evaluations"])  # type: ignore[arg-type]
    return None, resolve_evaluation_settings(pipeline_config, **fault_knobs)


def _freeze(value: object) -> object:
    """Recursively convert lists to tuples so spec entries are hashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def _thaw(value: object) -> object:
    """Inverse of :func:`_freeze` for JSON-friendly output."""
    if isinstance(value, tuple):
        return [_thaw(item) for item in value]
    return value


@dataclass(frozen=True)
class JobSpec:
    """One fully-resolved unit of campaign work.

    A job is (dataset, search algorithm + params, seed, pipeline overrides);
    its evaluation is a pure function of these fields, which is what makes
    killed campaigns resumable bit-identically. ``job_id`` is stable across
    processes and spec reloads.
    """

    job_id: str
    dataset: str
    algorithm: str
    search_name: str
    seed: int
    pipeline: Tuple[Tuple[str, object], ...] = ()
    search: Tuple[Tuple[str, object], ...] = ()

    def pipeline_overrides(self) -> Dict[str, object]:
        """The pipeline overrides as a plain dict."""
        return {key: value for key, value in self.pipeline}

    def search_params(self) -> Dict[str, object]:
        """The search parameters as a plain dict."""
        return {key: value for key, value in self.search}

    def pipeline_config(self) -> PipelineConfig:
        """Materialize this job's :class:`~repro.core.config.PipelineConfig`.

        ``fast: true`` starts from :func:`~repro.core.config.fast_config`
        and applies the remaining overrides on top; otherwise the overrides
        go straight onto a default ``PipelineConfig``.
        """
        overrides = self.pipeline_overrides()
        fast = bool(overrides.pop("fast", False))
        if fast:
            config = fast_config(self.dataset, seed=self.seed)
            return replace(config, **overrides) if overrides else config
        return PipelineConfig(dataset=self.dataset, seed=self.seed, **overrides)

    def as_dict(self) -> Dict[str, object]:
        """Plain-data form used in journals and job results."""
        return {
            "job_id": self.job_id,
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            "search_name": self.search_name,
            "seed": self.seed,
            "pipeline": {key: _thaw(value) for key, value in self.pipeline},
            "search": {key: _thaw(value) for key, value in self.search},
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "JobSpec":
        """Rebuild a job from :meth:`as_dict` output (used by pool workers)."""
        return JobSpec(
            job_id=str(data["job_id"]),
            dataset=str(data["dataset"]),
            algorithm=str(data["algorithm"]),
            search_name=str(data["search_name"]),
            seed=int(data["seed"]),  # type: ignore[arg-type]
            pipeline=tuple(
                (key, _freeze(value))
                for key, value in sorted(dict(data.get("pipeline", {})).items())
            ),
            search=tuple(
                (key, _freeze(value))
                for key, value in sorted(dict(data.get("search", {})).items())
            ),
        )


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative multi-dataset search campaign.

    Attributes:
        name: campaign label (used in reports).
        datasets: canonical dataset names (already resolved; ``"all"`` in
            the input expands to the paper's four).
        searches: the search-algorithm grid axis.
        seeds: the seed grid axis.
        pipeline: shared :class:`~repro.core.config.PipelineConfig`
            overrides (plus the ``fast`` pseudo-field).
    """

    name: str
    datasets: Tuple[str, ...]
    searches: Tuple[SearchSpec, ...]
    seeds: Tuple[int, ...] = (0,)
    pipeline: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not self.datasets:
            raise ValueError("Campaign needs at least one dataset")
        if not self.searches:
            raise ValueError("Campaign needs at least one search entry")
        if not self.seeds:
            raise ValueError("Campaign needs at least one seed")
        names = [search.name for search in self.searches]
        if len(set(names)) != len(names):
            raise ValueError(
                f"Search names must be unique within a campaign, got {names} "
                "(give duplicate algorithms distinct 'name' labels)"
            )

    # -- construction ------------------------------------------------------------

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "CampaignSpec":
        """Validate and build a campaign from its plain-data form."""
        entry = dict(data)
        name = str(entry.pop("name", "campaign"))
        datasets = resolve_dataset_names(entry.pop("datasets", None))  # type: ignore[arg-type]
        searches_data = entry.pop("searches", None)
        if not searches_data:
            raise ValueError("Campaign spec needs a non-empty 'searches' list")
        searches = tuple(SearchSpec.from_dict(item) for item in searches_data)  # type: ignore[union-attr]
        seeds_data = entry.pop("seeds", [0])
        if isinstance(seeds_data, (int, float)):
            seeds_data = [seeds_data]
        # De-duplicate (order-preserving) like datasets: duplicate seeds would
        # collide on job_id and run the same job twice.
        seeds = tuple(dict.fromkeys(int(seed) for seed in seeds_data))  # type: ignore[union-attr]
        pipeline_data = dict(entry.pop("pipeline", {}) or {})
        moved = sorted(set(pipeline_data) & _MOVED_TO_SEARCH)
        if moved:
            raise ValueError(
                f"Pipeline overrides {moved} are search settings: set them on "
                "the search entry instead (the fault knobs on any entry, the "
                "others on 'ga' entries)"
            )
        unknown = set(pipeline_data) - _PIPELINE_PARAMS
        if unknown:
            raise ValueError(
                f"Unknown pipeline overrides {sorted(unknown)}. "
                f"Valid: {sorted(_PIPELINE_PARAMS)}"
            )
        if entry:
            raise ValueError(
                f"Unknown campaign fields {sorted(entry)}. "
                "Valid: name, datasets, searches, seeds, pipeline"
            )
        pipeline = tuple(
            (key, _freeze(value)) for key, value in sorted(pipeline_data.items())
        )
        return CampaignSpec(
            name=name, datasets=datasets, searches=searches, seeds=seeds, pipeline=pipeline
        )

    def as_dict(self) -> Dict[str, object]:
        """Plain-data form (what ``spec.json`` in a campaign directory holds)."""
        return {
            "name": self.name,
            "datasets": list(self.datasets),
            "searches": [search.as_dict() for search in self.searches],
            "seeds": list(self.seeds),
            "pipeline": {key: _thaw(value) for key, value in self.pipeline},
        }

    # -- identity ----------------------------------------------------------------

    def fingerprint(self) -> str:
        """SHA-256 digest of the canonical spec (detects edited-spec resumes)."""
        return hashlib.sha256(_canonical_json(self.as_dict()).encode("utf-8")).hexdigest()

    # -- expansion ---------------------------------------------------------------

    def expand(self) -> List[JobSpec]:
        """The campaign's job list: datasets × searches × seeds, in grid order.

        Order is deterministic (the spec's own ordering), and ``job_id`` is a
        readable, stable key — the unit of resume and of shard assignment.
        """
        jobs: List[JobSpec] = []
        for dataset in self.datasets:
            for search in self.searches:
                for seed in self.seeds:
                    jobs.append(
                        JobSpec(
                            job_id=f"{dataset}-{search.name}-s{seed}",
                            dataset=dataset,
                            algorithm=search.algorithm,
                            search_name=search.name,
                            seed=seed,
                            pipeline=self.pipeline,
                            search=search.params,
                        )
                    )
        return jobs


def parse_shard(shard: Optional[str]) -> Optional[Tuple[int, int]]:
    """Parse an ``"i/n"`` shard selector into ``(index, count)``.

    Sharding splits a campaign's job list round-robin across ``n``
    cooperating runner processes (or machines): shard ``i`` runs jobs whose
    grid index is congruent to ``i`` modulo ``n``. Returns ``None`` for
    ``None`` input; raises ``ValueError`` on malformed selectors.
    """
    if shard is None:
        return None
    try:
        index_text, count_text = str(shard).split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError as error:
        raise ValueError(f"Shard must look like 'i/n', got '{shard}'") from error
    if count < 1 or not 0 <= index < count:
        raise ValueError(f"Shard index must satisfy 0 <= i < n, got '{shard}'")
    return index, count


def select_shard(jobs: Sequence[JobSpec], shard: Optional[Tuple[int, int]]) -> List[JobSpec]:
    """The subset of ``jobs`` owned by ``shard`` (all of them when ``None``)."""
    if shard is None:
        return list(jobs)
    index, count = shard
    return [job for position, job in enumerate(jobs) if position % count == index]


def load_spec(path: Union[str, Path]) -> CampaignSpec:
    """Load a campaign spec from a YAML or JSON file.

    ``.json`` files use the standard library; anything else is parsed as
    YAML when PyYAML is importable and as JSON otherwise (so a
    YAML-less environment still runs JSON campaigns — YAML is a superset
    of JSON, making ``.json`` content valid either way).
    """
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".json":
        data = json.loads(text)
    else:
        try:
            import yaml  # noqa: PLC0415 - optional dependency, gated import
        except ImportError:
            try:
                data = json.loads(text)
            except json.JSONDecodeError:
                raise RuntimeError(
                    f"Cannot parse '{path}': PyYAML is not installed and the "
                    "file is not valid JSON. Install pyyaml or use a JSON spec."
                ) from None
        else:
            data = yaml.safe_load(text)
    if not isinstance(data, Mapping):
        raise ValueError(f"Campaign spec '{path}' must be a mapping at top level")
    return CampaignSpec.from_dict(data)
