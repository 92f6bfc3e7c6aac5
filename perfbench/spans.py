"""Per-layer tracing from outside the program: wrap public functions, record spans.

A traced child installs :func:`install`, which replaces each layer's public
function (or method) with a wrapper that records a span — name, start, end,
thread and the enclosing wrapped span — and bumps the layer's counters.
Module-level functions are replaced in every ``repro`` module that holds a
reference to them, because callers look names up in their own module
(``repro.search.objectives.finetune_stacked``, not only
``repro.nn.stacked.finetune_stacked``). Nothing under ``src/`` changes.

The spans stay in memory; :meth:`Tracer.summary` reduces them once, at exit,
to per-function ``calls``/``busy_s``/``self_s`` and the counters.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]


@dataclass
class Span:
    """One wrapped call: ``parent`` indexes the enclosing span (same thread)."""

    name: str
    start: float
    end: float
    thread: int
    parent: Optional[int]


def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def layer_times(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """``{name: {calls, busy_s, self_s}}`` from a span list.

    ``self_s`` is each span's duration minus the part of it that its direct
    wrapped child spans cover. ``busy_s`` is, per thread, the union of the
    name's spans, so a function that re-enters itself is not counted twice.
    """
    children: Dict[int, List[Interval]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result: Dict[str, Dict[str, float]] = {}
    per_thread: Dict[Tuple[str, int], List[Interval]] = defaultdict(list)
    for index, span in enumerate(spans):
        entry = result.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        covered = union_length(
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(index, ())
            if end > span.start and start < span.end
        )
        entry["self_s"] += (span.end - span.start) - covered
        per_thread[(span.name, span.thread)].append((span.start, span.end))
    for (name, _thread), intervals in per_thread.items():
        result[name]["busy_s"] += union_length(intervals)
    return result


def top_level_covered(spans: Sequence[Span]) -> float:
    """Wall time covered by spans with no wrapped parent (union over threads)."""
    return union_length((s.start, s.end) for s in spans if s.parent is None)


class Tracer:
    """In-memory span and counter recorder shared by every wrapper."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.objects: Dict[str, object] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` (thread-safe)."""
        with self._lock:
            self.counters[name] += value

    def begin(self, name: str) -> int:
        """Open a span; returns its index for :meth:`end`."""
        stack = self._stack()
        span = Span(name, self.clock(), 0.0, threading.get_ident(), stack[-1] if stack else None)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the span opened as ``index``."""
        self.spans[index].end = self.clock()
        self._stack().pop()

    def wrap(self, function: Callable, name: str, hook: Optional[Callable] = None) -> Callable:
        """``function`` wrapped in a span; ``hook(tracer, args, kwargs, result, before)``
        runs after each call, with ``before`` from ``hook.before(args, kwargs)``."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            before = hook.before(args, kwargs) if hasattr(hook, "before") else None
            index = self.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end(index)
            if hook is not None:
                hook(self, args, kwargs, result, before)
            return result

        return wrapper

    def summary(self, wall_s: float) -> Dict[str, float]:
        """Flat per-layer metrics: ``F.calls``/``F.busy_s``/``F.self_s``, counters,
        and ``trace.unattributed_s`` (``wall_s`` minus top-level span cover)."""
        flat: Dict[str, float] = {}
        for name, entry in layer_times(self.spans).items():
            for key, value in entry.items():
                flat[f"{name}.{key}"] = value
        # "job." counters are per-job scratch for the surrogate ratio.
        flat.update((k, v) for k, v in self.counters.items() if not k.startswith("job."))
        flat["trace.unattributed_s"] = wall_s - top_level_covered(self.spans)
        return flat


# -- counter hooks ------------------------------------------------------------------------


def _argument(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _count_finetuned(tracer, args, kwargs, result, before):
    tracer.count("nn.genomes_finetuned", len(_argument(args, kwargs, 0, "models")))


def _count_trials(tracer, args, kwargs, result, before):
    configs = _argument(args, kwargs, 3, "configs")
    tracer.count("reliability.trials", sum(config.n_trials for config in configs))


def _count_evaluations(tracer, args, kwargs, result, before):
    evaluator, genomes = args[0], _argument(args, kwargs, 1, "genomes")
    fresh = evaluator.n_evaluations - before
    tracer.count("search.genomes_requested", len(genomes))
    tracer.count("search.fresh_evaluations", fresh)
    tracer.count("job.fresh_evaluations", fresh)


_count_evaluations.before = lambda args, kwargs: args[0].n_evaluations


def _count_candidates(tracer, args, kwargs, result, before):
    candidates = len(_argument(args, kwargs, 1, "candidates"))
    tracer.count("surrogate.candidates", candidates)
    tracer.count("job.candidates", candidates)


def _count_job(tracer, args, kwargs, result, before):
    # Surrogate efficiency counts the fresh evaluations of surrogate-assisted
    # jobs only; jobs run serially, so the per-job counters reset here.
    with tracer._lock:
        fresh = tracer.counters.pop("job.fresh_evaluations", 0.0)
        candidates = tracer.counters.pop("job.candidates", 0.0)
        if candidates:
            tracer.counters["surrogate.job_fresh_evaluations"] += fresh


def _count_loaded(tracer, args, kwargs, result, before):
    tracer.count("campaign.records_loaded", args[0].n_loaded)


def _shard_size(cache) -> int:
    try:
        return os.path.getsize(cache.path)
    except OSError:
        return 0


def _count_appended(tracer, args, kwargs, result, before):
    tracer.count("campaign.bytes_appended", _shard_size(args[0]) - before)


_count_appended.before = lambda args, kwargs: _shard_size(args[0])


def _keep_store(tracer, args, kwargs, result, before):
    tracer.objects.setdefault("store", args[0])


#: Every wrapped function: (metric name, module, attribute path, counter hook).
#: A dotted attribute path names a method, patched on its class.
LAYERS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("core.prepare", "repro.core.pipeline", "MinimizationPipeline.prepare", None),
    ("datasets.load_dataset", "repro.datasets.registry", "load_dataset", None),
    ("nn.train_classifier", "repro.nn.trainer", "train_classifier", None),
    ("nn.finetune_stacked", "repro.nn.stacked", "finetune_stacked", _count_finetuned),
    ("quantization.quantization_sweep", "repro.quantization.sweep", "quantization_sweep", None),
    ("pruning.pruning_sweep", "repro.pruning.sweep", "pruning_sweep", None),
    ("clustering.clustering_sweep", "repro.clustering.sweep", "clustering_sweep", None),
    ("clustering.kmeans_1d", "repro.clustering.kmeans", "kmeans_1d", None),
    ("bespoke.synthesize", "repro.bespoke.synthesis", "synthesize", None),
    ("bespoke.synthesize_cost_only", "repro.bespoke.synthesis", "synthesize_cost_only", None),
    ("bespoke.population_accuracy", "repro.bespoke.simulator", "population_accuracy", None),
    (
        "reliability.monte_carlo_population",
        "repro.reliability.monte_carlo",
        "monte_carlo_population",
        _count_trials,
    ),
    (
        "search.evaluate_population",
        "repro.search.evaluator",
        "SerialEvaluator.evaluate_population",
        _count_evaluations,
    ),
    ("search.nsga2_rank", "repro.search.nsga2", "nsga2_rank", None),
    ("search.select_survivors", "repro.search.nsga2", "select_survivors", None),
    ("surrogate.refit", "repro.surrogate.assist", "SurrogateAssistant.refit", None),
    ("surrogate.select", "repro.surrogate.assist", "SurrogateAssistant.select", _count_candidates),
    ("campaign.execute_job", "repro.campaign.runner", "execute_job", _count_job),
    (
        "campaign.cache_open",
        "repro.campaign.cache",
        "PersistentEvaluationCache.__init__",
        _count_loaded,
    ),
    (
        "campaign.cache_put",
        "repro.campaign.cache",
        "PersistentEvaluationCache.put",
        _count_appended,
    ),
    ("campaign.journal_append", "repro.campaign.journal", "CampaignJournal.append", None),
    (
        "campaign.write_job_artifacts",
        "repro.campaign.journal",
        "CampaignJournal.write_job_artifacts",
        None,
    ),
    ("campaign.write_report", "repro.campaign.report", "write_report", None),
    ("campaign.write_front_npz", "repro.campaign.columnar", "write_front_npz", None),
    ("serving.view", "repro.serving.store", "FrontStore.view", _keep_store),
    ("serving.front", "repro.serving.store", "FrontStore.front", None),
    ("serving.query_run", "repro.serving.query", "QueryEngine.run", None),
)

#: The span the child records by hand around ``import repro.cli``.
IMPORT_SPAN = "core.import"

#: Every span name the benchmark reports, in report order.
SPAN_NAMES: Tuple[str, ...] = (IMPORT_SPAN,) + tuple(layer[0] for layer in LAYERS)


def install(tracer: Tracer) -> None:
    """Wrap every :data:`LAYERS` entry, at every ``repro`` module that holds it."""
    for name, module_name, attribute, hook in LAYERS:
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name)
            setattr(owner, method, tracer.wrap(owner.__dict__[method], name, hook))
            continue
        original = getattr(module, attribute)
        wrapper = tracer.wrap(original, name, hook)
        for loaded_name, loaded in list(sys.modules.items()):
            if not (loaded_name == "repro" or loaded_name.startswith("repro.")) or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
