"""One cold run of one workload, in a fresh interpreter.

``run.py`` launches this script once per iteration, so every run pays
interpreter start and imports as a user of the CLI does. It calls the same
public entry points as the CLI verb, writes its timestamps
(``time.monotonic()``, the clock the parent launched it on) and what the
parent needs to check its outputs to ``--result`` as JSON, and exits.

With ``--trace`` it first wraps every layer (see ``spans.py``) and adds the
per-layer summary to the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import workloads
from spans import IMPORT_SPAN, Tracer, install


class Hooks:
    """Untraced instrumentation every run carries: when ``prepare`` first
    returned, and how long each genome evaluation request waited."""

    def __init__(self) -> None:
        self.ready = None
        self.requests = []  # (genomes requested, seconds) per evaluate_population call

    def install(self) -> None:
        from repro.core.pipeline import MinimizationPipeline
        from repro.search.evaluator import SerialEvaluator

        prepare = MinimizationPipeline.prepare
        evaluate = SerialEvaluator.evaluate_population

        def timed_prepare(pipeline):
            result = prepare(pipeline)
            if self.ready is None:
                self.ready = time.monotonic()
            return result

        def timed_evaluate(evaluator, genomes):
            started = time.perf_counter()
            points = evaluate(evaluator, genomes)
            self.requests.append((len(genomes), time.perf_counter() - started))
            return points

        MinimizationPipeline.prepare = timed_prepare
        SerialEvaluator.evaluate_population = timed_evaluate

    def take_requests(self):
        requests, self.requests = self.requests, []
        return requests


def figure2(args, hooks: Hooks) -> dict:
    """``repro figure2 --dataset whitewine --population P --generations G``, with the
    baseline (data split, classifier) from the fixed pipeline seed and the GA from
    ``--seed``."""
    from repro.core.config import PipelineConfig
    from repro.experiments import run_figure2
    from repro.search import GAConfig

    dataset = workloads.FIGURE2_DATASET
    config = PipelineConfig(dataset=dataset, seed=workloads.FIGURE2_PIPELINE_SEED, n_workers=1)
    ga_config = GAConfig(
        population_size=workloads.FIGURE2_POPULATION,
        n_generations=workloads.FIGURE2_GENERATIONS,
        finetune_epochs=workloads.FIGURE2_FINETUNE_EPOCHS,
        seed=args.seed,
        n_workers=1,
    )
    result = run_figure2(dataset, config=config, ga_config=ga_config)
    result.format_rows()
    done = time.monotonic()
    return {
        "ready": hooks.ready,
        "done": done,
        "requests": hooks.take_requests(),
        "baseline": result.sweep.baseline.as_dict(),
        "front": [point.as_dict() for point in result.ga_result.front],
        "gain_5pct": result.combined_gain,
    }


def _jobs(summary) -> list:
    return [
        {"job_id": o.job_id, "status": o.status, "n_evaluations": o.n_evaluations, "error": o.error}
        for o in summary.outcomes
    ]


def campaign(args, hooks: Hooks) -> dict:
    """``repro campaign run`` + ``campaign report``, then resumes over its cache.

    Each resume reruns the spec into a fresh directory that holds only the
    cold run's cache shards, so every evaluation replays from disk.
    """
    from repro.campaign import CampaignRunner, build_report, format_report, load_spec, write_report

    workdir = Path(args.workdir)
    spec = load_spec(workdir / "spec.json")
    runner = CampaignRunner(spec, workdir / "cold")
    ready = time.monotonic()
    cold = runner.run()
    report = build_report(workdir / "cold")
    format_report(report)
    write_report(workdir / "cold", report)
    cold_done = time.monotonic()
    requests = hooks.take_requests()

    resumes = []
    for index in range(workloads.CAMPAIGN_RESUMES):
        directory = workdir / f"resume-{index}"
        shutil.copytree(workdir / "cold" / "cache", directory / "cache")
        started = time.monotonic()
        resumed = CampaignRunner(spec, directory).run()
        report = build_report(directory)
        format_report(report)
        write_report(directory, report)
        resumes.append({"seconds": time.monotonic() - started, "jobs": _jobs(resumed)})
    return {
        "ready": ready,
        "done": cold_done,
        "requests": requests,
        "jobs": _jobs(cold),
        "resumes": resumes,
    }


def serve(args, hooks: Hooks) -> dict:
    """``repro serve --campaign DIR --port 0 --cache-size K`` until SIGINT."""
    from repro.cli import main

    main(["serve", "--campaign", args.campaign, "--port", "0",
          "--cache-size", str(workloads.SERVE_CACHE_SIZE)])
    return {}


WORKLOADS = {"figure2": figure2, "campaign": campaign, "serve": serve}


def peak_rss_mb() -> float:
    """This process's own peak resident set size.

    Not ``ru_maxrss``: on Linux that starts from the parent's RSS at fork,
    so a large parent would be reported as the child's peak.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def serving_counters(tracer: Tracer) -> dict:
    """The store's own cache statistics, read from the instance the wrappers saw."""
    store = tracer.objects.get("store")
    if store is None:
        return {}
    stats = store.stats()
    lookups = stats["hits"] + stats["misses"]
    return {
        "serving.hits": stats["hits"],
        "serving.misses": stats["misses"],
        "serving.npz_loads": stats["npz_loads"],
        "serving.json_loads": stats["json_loads"],
        "serving.evictions": stats["evictions"],
        "serving.hit_ratio": stats["hits"] / lookups if lookups else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workdir")
    parser.add_argument("--campaign")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    started = time.perf_counter()
    if tracer is not None:
        span = tracer.begin(IMPORT_SPAN)
    import repro.cli  # noqa: F401 - the import every CLI verb pays

    if tracer is not None:
        tracer.end(span)
    hooks = Hooks()
    hooks.install()
    if tracer is not None:
        install(tracer)

    result = WORKLOADS[args.workload](args, hooks)
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        summary = tracer.summary(time.perf_counter() - started)
        summary.update(serving_counters(tracer))
        result["trace"] = summary
    path = Path(args.result)
    path.with_suffix(".tmp").write_text(json.dumps(result))
    os.replace(path.with_suffix(".tmp"), path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
