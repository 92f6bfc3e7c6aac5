"""Command-line interface for the reproduction.

Installed as the ``repro`` console script (see ``pyproject.toml``); every
experiment of the paper can be run without writing Python:

* ``repro baseline --dataset whitewine`` — train and synthesize the
  un-minimized bespoke baseline of one (or all) datasets.
* ``repro figure1 --dataset seeds --fast`` — standalone-technique sweeps
  (Figure 1 panels), optionally exported to a results directory.
* ``repro figure2 --dataset whitewine`` — the hardware-aware GA (Figure 2).
* ``repro ablations`` — the DESIGN.md §7 ablation studies.
* ``repro synth --dataset seeds --weight-bits 4 --verilog out.v`` — train,
  quantize, synthesize and optionally export structural Verilog plus a
  functional-verification verdict from the fixed-point simulator.
* ``repro campaign run|resume|status|report`` — declarative multi-dataset
  search campaigns with journaling and kill-safe resume (see
  ``docs/campaigns.md``).
* ``repro serve --campaign out/`` — HTTP design-space query service over
  campaign report fronts (see ``docs/serving.md``).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .analysis import export_sweep, gains_table, sweep_plot, sweep_table
from .bespoke import BespokeConfig, FixedPointSimulator, export_verilog, synthesize
from .core import (
    MinimizationPipeline,
    PipelineConfig,
    average_area_gain,
    fast_config,
    profiling,
)
from .datasets import resolve_dataset_names
from .experiments import (
    PAPER_HEADLINE_GAINS,
    baseline_for,
    run_all_ablations,
    run_figure1_panel,
    run_figure2,
)
from .quantization import QATConfig, quantize_aware_train
from .search import GAConfig


def _pipeline_config(dataset: str, fast: bool, seed: int) -> PipelineConfig:
    if fast:
        return fast_config(dataset, seed=seed)
    return PipelineConfig(dataset=dataset, seed=seed)


def _cache_size_argument(value: str) -> int:
    size = int(value)
    if size < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {size}")
    return size


def _workers_argument(value: str) -> int:
    workers = int(value)
    if workers < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (1 = serial, 0 = all cores), got {workers}"
        )
    return workers


def _fault_rate_argument(value: str) -> float:
    rate = float(value)
    if not 0.0 <= rate <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {rate}")
    return rate


def _non_negative_argument(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {number}")
    return number


def _surrogate_prefilter_argument(value: str) -> float:
    fraction = float(value)
    if not 0.0 < fraction <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {fraction}")
    return fraction


def _surrogate_candidates_argument(value: str) -> int:
    multiplier = int(value)
    if multiplier < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {multiplier}")
    return multiplier


def _halving_budgets_argument(value: str) -> Tuple[int, ...]:
    """Comma-separated ascending epoch budgets, e.g. ``1,2,4``."""
    try:
        budgets = tuple(int(part) for part in value.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got '{value}'")
    if not budgets or any(b < 1 for b in budgets):
        raise argparse.ArgumentTypeError(f"budgets must be positive integers, got '{value}'")
    if any(a >= b for a, b in zip(budgets, budgets[1:])):
        raise argparse.ArgumentTypeError(f"budgets must be strictly increasing, got '{value}'")
    return budgets


def _datasets_argument(value: Optional[str]) -> List[str]:
    try:
        return list(resolve_dataset_names(value))
    except KeyError as error:
        # Clean two-line exit instead of a KeyError traceback.
        raise SystemExit(f"error: {error.args[0]}") from None


# -- sub-command implementations -----------------------------------------------------


def _cmd_baseline(args: argparse.Namespace) -> int:
    for dataset in _datasets_argument(args.dataset):
        row = baseline_for(
            dataset,
            config=_pipeline_config(dataset, args.fast, args.seed),
        )
        print(row.format())
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    gains_by_dataset = {}
    sweeps = []
    for dataset in _datasets_argument(args.dataset):
        config = _pipeline_config(dataset, args.fast, args.seed)
        panel = run_figure1_panel(dataset, config=config)
        gains_by_dataset[dataset] = panel.area_gains
        sweeps.append(panel.sweep)
        print()
        print(sweep_table(panel.sweep, pareto_only=True))
        if args.plot:
            print()
            print(sweep_plot(panel.sweep))
        if args.output:
            paths = export_sweep(panel.sweep, args.output)
            print(f"\nexported {dataset} artefacts to {Path(args.output).resolve()}: "
                  f"{', '.join(sorted(p.name for p in paths.values()))}")
    # The paper's headline gains are averages over its datasets too.
    techniques = {technique for gains in gains_by_dataset.values() for technique in gains}
    averages = {
        technique: average_area_gain(sweeps, technique, config.max_accuracy_loss)
        for technique in techniques
    }
    print()
    print(gains_table(
        gains_by_dataset, paper_values=PAPER_HEADLINE_GAINS, average_values=averages
    ))
    return 0


def _cmd_figure2(args: argparse.Namespace) -> int:
    config = _pipeline_config(args.dataset, args.fast, args.seed)
    ga_config = GAConfig(
        population_size=args.population,
        n_generations=args.generations,
        finetune_epochs=args.finetune_epochs,
        seed=args.seed,
        n_workers=args.workers,
        cache_size=args.cache_size,
        fault_rate=args.fault_rate,
        n_fault_trials=args.fault_trials,
        fault_model=args.fault_model,
        surrogate=args.surrogate,
        surrogate_candidates=args.surrogate_candidates,
        surrogate_prefilter=args.surrogate_prefilter,
        halving_budgets=args.halving_budgets,
    )
    result = run_figure2(args.dataset, config=config, ga_config=ga_config)
    for row in result.format_rows():
        print(row)
    if args.plot:
        print()
        print(sweep_plot(result.sweep))
    if args.output:
        export_sweep(result.sweep, args.output)
        print(f"\nexported artefacts to {Path(args.output).resolve()}")
    return 0


def _cmd_ablations(args: argparse.Namespace) -> int:
    for result in run_all_ablations(args.dataset, fast=args.fast):
        print()
        for row in result.format_rows():
            print(row)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    config = _pipeline_config(args.dataset, args.fast, args.seed)
    pipeline = MinimizationPipeline(config)
    prepared = pipeline.prepare()
    model = prepared.baseline_model.clone()

    weight_bits = args.weight_bits
    if weight_bits is not None and weight_bits != config.baseline_weight_bits:
        quantize_aware_train(
            model,
            prepared.data,
            QATConfig(weight_bits=weight_bits, epochs=args.finetune_epochs),
            seed=args.seed,
        )
    else:
        weight_bits = config.baseline_weight_bits

    bespoke_config = BespokeConfig(input_bits=config.input_bits, weight_bits=weight_bits)
    report = synthesize(model, config=bespoke_config, name=f"{args.dataset}_w{weight_bits}")
    baseline_report = prepared.baseline_point.report
    print(report.format_summary(baseline_report))
    accuracy = model.evaluate_accuracy(
        prepared.data.test.features, prepared.data.test.labels
    )
    print(f"test accuracy     : {accuracy:.3f} (baseline {prepared.baseline_accuracy:.3f})")

    simulator = FixedPointSimulator(model, bespoke_config)
    agreement = simulator.agreement_with_model(model, prepared.data.test.features)
    print(f"circuit/model agreement (fixed-point simulation): {agreement:.3f}")

    if args.verilog:
        source = export_verilog(model, bespoke_config, module_name=f"{args.dataset}_mlp")
        Path(args.verilog).write_text(source)
        print(f"structural Verilog written to {Path(args.verilog).resolve()}")
    return 0


# -- campaign sub-commands --------------------------------------------------------------


def _print_run_summary(summary) -> int:
    for outcome in summary.outcomes:
        if outcome.status == "completed":
            print(
                f"[completed] {outcome.job_id}  "
                f"({outcome.n_evaluations} evaluations, front {outcome.front_size}, "
                f"{outcome.wall_s:.1f}s)"
            )
        else:
            print(f"[   failed] {outcome.job_id}  {outcome.error}")
    print(
        f"{summary.completed_before + summary.completed}/{summary.total_jobs} jobs "
        f"completed, {summary.failed} failed this run, {summary.remaining} remaining"
    )
    return 0 if summary.failed == 0 else 1


def _run_campaign(spec, args: argparse.Namespace) -> int:
    """Construct and drain a campaign runner, reporting expected errors cleanly."""
    from .campaign import CampaignRunner

    try:
        runner = CampaignRunner(
            spec,
            args.out,
            max_workers=args.max_workers,
            use_cache=not args.no_cache,
            shard=args.shard,
        )
        summary = runner.run(max_jobs=args.max_jobs)
    except ValueError as error:  # bad shard selector, spec fingerprint mismatch
        print(f"error: {error}")
        return 1
    return _print_run_summary(summary)


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from .campaign import load_spec

    try:
        spec = load_spec(args.spec)
    except FileNotFoundError:
        print(f"error: campaign spec not found: {args.spec}")
        return 1
    except (ValueError, KeyError, RuntimeError) as error:  # invalid spec / no YAML
        print(f"error: invalid campaign spec '{args.spec}': {error}")
        return 1
    return _run_campaign(spec, args)


def _cmd_campaign_resume(args: argparse.Namespace) -> int:
    from .campaign import CampaignSpec, read_json
    from .campaign.journal import CampaignJournal

    spec_path = CampaignJournal(args.out).spec_path
    if not spec_path.exists():
        print(f"no campaign found at {Path(args.out).resolve()} (missing spec.json)")
        return 1
    spec = CampaignSpec.from_dict(read_json(spec_path))
    return _run_campaign(spec, args)


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from .campaign import campaign_status, format_status

    try:
        status = campaign_status(args.out)
    except FileNotFoundError as error:
        print(error)
        return 1
    print(format_status(status))
    return 0


def _retry_policy_from_args(args: argparse.Namespace):
    """Build a RetryPolicy from the CLI's ``--max-attempts`` (None = default)."""
    from .campaign import RetryPolicy

    if getattr(args, "max_attempts", None) is None:
        return None
    return RetryPolicy(max_attempts=max(1, int(args.max_attempts)))


def _cmd_campaign_coordinate(args: argparse.Namespace) -> int:
    from .campaign import FabricCoordinator, load_spec

    try:
        spec = load_spec(args.spec)
    except FileNotFoundError:
        print(f"error: campaign spec not found: {args.spec}")
        return 1
    except (ValueError, KeyError, RuntimeError) as error:  # invalid spec / no YAML
        print(f"error: invalid campaign spec '{args.spec}': {error}")
        return 1
    try:
        coordinator = FabricCoordinator(
            spec,
            args.out,
            lease_ttl=args.lease_ttl,
            worker_timeout=args.worker_timeout,
            max_requeues=args.max_requeues,
            use_cache=not args.no_cache,
            retry=_retry_policy_from_args(args),
        )
        summary = coordinator.run(
            poll_interval=args.poll_interval,
            max_wall_s=args.max_wall,
            serial_fallback=not args.no_serial_fallback,
        )
    except ValueError as error:  # spec fingerprint mismatch, bad bounds
        print(f"error: {error}")
        return 1
    status = summary.status
    print(
        f"{status.completed}/{status.total} jobs completed, "
        f"{status.failed} failed, {status.quarantined} quarantined "
        f"({summary.requeues} requeues"
        + (", serial fallback engaged" if summary.serial_fallback else "")
        + ")"
    )
    return 0 if summary.ok else 1


def _cmd_campaign_work(args: argparse.Namespace) -> int:
    from .campaign import FabricWorker
    from .campaign.fabric import FabricLayout

    out = Path(args.out)
    fabric_dir = FabricLayout(out).root
    if not fabric_dir.is_dir():
        # A worker may start before its coordinator has laid out the campaign.
        print(f"waiting up to {args.max_idle:g} s for {fabric_dir.resolve()}", flush=True)
        deadline = time.monotonic() + args.max_idle
        while not fabric_dir.is_dir():
            if time.monotonic() >= deadline:
                print(f"error: campaign fabric not found: {fabric_dir.resolve()}")
                return 1
            time.sleep(args.poll_interval)
    worker = FabricWorker(
        out,
        worker_id=args.worker_id,
        lease_ttl=args.lease_ttl,
        use_cache=not args.no_cache,
        retry=_retry_policy_from_args(args),
    )
    summary = worker.run(
        poll_interval=args.poll_interval,
        max_idle_s=args.max_idle,
        max_jobs=args.max_jobs,
    )
    print(
        f"worker {summary.worker_id}: {summary.completed} completed, "
        f"{summary.failed} failed"
    )
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from .campaign import build_report, format_report, write_report

    try:
        report = build_report(args.out)
    except FileNotFoundError:
        print(f"no campaign found at {Path(args.out).resolve()} (missing spec.json)")
        return 1
    print(format_report(report))
    paths = write_report(args.out, report)
    print(f"\nreport artefacts written to {Path(args.out, 'report').resolve()}: "
          f"{', '.join(sorted(paths))}")
    return 0


# -- serve ------------------------------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serving import serve

    campaigns = [Path(c) for c in args.campaign]
    missing = [c for c in campaigns if not c.is_dir()]
    if missing:
        print(f"error: campaign directory not found: {missing[0].resolve()}")
        return 1
    try:
        serve(
            campaigns,
            host=args.host,
            port=args.port,
            max_entries=args.cache_size,
            enqueue_misses=args.enqueue_misses,
            refresh_seconds=args.refresh,
            refresh_reports=args.refresh_reports,
        )
    except ValueError as error:  # no report dirs / bad cache bound
        print(f"error: {error}")
        return 1
    except OSError as error:  # port in use, bind failure
        print(f"error: cannot bind {args.host}:{args.port}: {error}")
        return 1
    return 0


# -- argument parsing -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hardware-aware neural minimization for printed MLPs (DATE 2023 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser, default_dataset: Optional[str]) -> None:
        if default_dataset is None:
            sub.add_argument("--dataset", default="all",
                             help="dataset name or 'all' (default: all)")
        else:
            sub.add_argument("--dataset", default=default_dataset)
        sub.add_argument("--fast", action="store_true",
                         help="reduced-cost settings (smaller data, fewer epochs)")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--profile", action="store_true",
                         help="print a stage-timing breakdown after the run: "
                              "the search stages (ga_selection / ga_sort / "
                              "ga_evaluate, plus surrogate_fit / "
                              "surrogate_rank / halving when --surrogate is "
                              "on) plus the per-genome stages "
                              "(evaluate_genome, finetune, synthesize, ...); "
                              "profiles the driver process only, so run "
                              "figure2 with --workers 1 for the evaluation "
                              "breakdown")

    baseline = subparsers.add_parser("baseline", help="train + synthesize the bespoke baselines")
    add_common(baseline, None)
    baseline.set_defaults(func=_cmd_baseline)

    figure1 = subparsers.add_parser("figure1", help="standalone-technique sweeps (Figure 1)")
    add_common(figure1, None)
    figure1.add_argument("--plot", action="store_true", help="print ASCII accuracy/area plots")
    figure1.add_argument("--output", help="directory to export JSON/CSV/markdown artefacts")
    figure1.set_defaults(func=_cmd_figure1)

    figure2 = subparsers.add_parser("figure2", help="hardware-aware GA (Figure 2)")
    add_common(figure2, "whitewine")
    figure2.add_argument("--workers", type=_workers_argument, default=1,
                         help="worker processes for the GA's fitness "
                              "evaluation (1 = serial, 0 = all cores); "
                              "results are bit-identical at any worker count")
    figure2.add_argument("--population", type=int, default=16)
    figure2.add_argument("--generations", type=int, default=8)
    figure2.add_argument("--finetune-epochs", type=int, default=6)
    figure2.add_argument("--cache-size", type=_cache_size_argument,
                         default=GAConfig.cache_size,
                         help="LRU bound on the genome evaluation cache "
                              "(default: unbounded). Bounding trades "
                              "occasional re-evaluation of evicted genomes "
                              "for a memory ceiling on long searches")
    figure2.add_argument("--fault-rate", type=_fault_rate_argument,
                         default=GAConfig.fault_rate,
                         help="enable robustness-aware search: fraction of "
                              "hard-wired connections hit per Monte-Carlo "
                              "fault-injection trial (combine with "
                              "--fault-trials; adds fault tolerance as a "
                              "third NSGA-II objective and "
                              "robust_accuracy/accuracy_std per design)")
    figure2.add_argument("--fault-trials", type=_non_negative_argument,
                         default=GAConfig.n_fault_trials,
                         help="Monte-Carlo trials per design point "
                              "(default 0 = robustness off)")
    figure2.add_argument("--fault-model", default=GAConfig.fault_model,
                         choices=["open", "short", "level_shift"],
                         help="defect mechanism injected per trial "
                              "(default: open)")
    figure2.add_argument("--surrogate", default=GAConfig.surrogate,
                         choices=["ridge", "mlp"],
                         help="enable surrogate-assisted search: an "
                              "online-trained predictor prefilters offspring "
                              "so only promising genomes get real "
                              "evaluations (fronts still contain only "
                              "measured points; off by default — off runs "
                              "are byte-identical to builds without the "
                              "surrogate)")
    figure2.add_argument("--surrogate-candidates",
                         type=_surrogate_candidates_argument,
                         default=GAConfig.surrogate_candidates,
                         help="candidate-pool multiplier: the surrogate "
                              "scores this many times --population offspring "
                              "per generation (default 4)")
    figure2.add_argument("--surrogate-prefilter",
                         type=_surrogate_prefilter_argument,
                         default=GAConfig.surrogate_prefilter,
                         help="fraction of the population size evaluated "
                              "for real per generation, in (0, 1] "
                              "(default 0.25)")
    figure2.add_argument("--halving-budgets",
                         type=_halving_budgets_argument,
                         default=GAConfig.halving_budgets,
                         metavar="E1,E2,...",
                         help="successive-halving rungs: ascending short "
                              "fine-tuning budgets (epochs) racing surrogate "
                              "survivors before full evaluation, e.g. '1,2' "
                              "(default: no halving)")
    figure2.add_argument("--plot", action="store_true")
    figure2.add_argument("--output", help="directory to export artefacts")
    figure2.set_defaults(func=_cmd_figure2)

    ablations = subparsers.add_parser("ablations", help="DESIGN.md section 7 ablation studies")
    add_common(ablations, "whitewine")
    ablations.set_defaults(func=_cmd_ablations)

    synth = subparsers.add_parser(
        "synth", help="train, (optionally) quantize, synthesize and export one classifier"
    )
    add_common(synth, "seeds")
    synth.add_argument("--weight-bits", type=int, default=None,
                       help="quantize to this weight bit-width with QAT before synthesis")
    synth.add_argument("--finetune-epochs", type=int, default=15)
    synth.add_argument("--verilog", help="write structural Verilog to this path")
    synth.set_defaults(func=_cmd_synth)

    campaign = subparsers.add_parser(
        "campaign",
        help="declarative multi-dataset search campaigns "
             "(run/resume/coordinate/work/status/report)",
        description="Resumable multi-dataset search campaigns: a YAML/JSON "
                    "spec expands into {dataset x search x seed} jobs whose "
                    "state is journaled so a killed campaign resumes "
                    "bit-identically. Single host: run/resume. Multi-worker "
                    "fabric: coordinate + work. See docs/campaigns.md and "
                    "docs/fabric.md.",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    def add_campaign_run_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--out", required=True,
                         help="campaign directory (journal, cache, job artefacts)")
        sub.add_argument("--max-workers", type=int, default=1,
                         help="jobs to run concurrently (each job may also "
                              "fan its evaluations out via the spec's "
                              "pipeline.n_workers)")
        sub.add_argument("--max-jobs", type=_non_negative_argument, default=None,
                         help="stop after this many pending jobs (the rest "
                              "stay pending for a later resume)")
        sub.add_argument("--shard", default=None,
                         help="'i/n': run only this runner's share of the "
                              "job grid (round-robin split across n "
                              "cooperating runners)")
        sub.add_argument("--no-cache", action="store_true",
                         help="disable the persistent on-disk evaluation "
                              "cache (mid-job resume then re-evaluates "
                              "from scratch; results are unchanged)")

    campaign_run = campaign_sub.add_parser("run", help="run a campaign spec")
    campaign_run.add_argument("--spec", required=True,
                              help="campaign spec file (YAML or JSON)")
    add_campaign_run_args(campaign_run)
    campaign_run.set_defaults(func=_cmd_campaign_run)

    campaign_resume = campaign_sub.add_parser(
        "resume", help="resume a (killed or partial) campaign directory"
    )
    add_campaign_run_args(campaign_resume)
    campaign_resume.set_defaults(func=_cmd_campaign_resume)

    campaign_coordinate = campaign_sub.add_parser(
        "coordinate",
        help="coordinate a campaign over the multi-worker fabric "
             "(publish jobs, merge worker journals, requeue expired leases)",
        description="Publish the spec's job grid to <out>/fabric/queue and "
                    "supervise elastic `repro campaign work` processes: merge "
                    "their journals into the manifest, requeue jobs whose "
                    "lease expired, quarantine poison jobs, and fall back to "
                    "serial in-process execution when no workers show up. "
                    "See docs/fabric.md.",
    )
    campaign_coordinate.add_argument("--spec", required=True,
                                     help="campaign spec file (YAML or JSON)")
    campaign_coordinate.add_argument("--out", required=True, help="campaign directory")
    campaign_coordinate.add_argument("--lease-ttl", type=float, default=30.0,
                                     help="lease lifetime in seconds; a job whose "
                                          "lease is this stale is requeued")
    campaign_coordinate.add_argument("--worker-timeout", type=float, default=10.0,
                                     help="seconds to wait for a worker heartbeat "
                                          "before degrading to serial execution")
    campaign_coordinate.add_argument("--max-requeues", type=int, default=2,
                                     help="requeue cap per job before quarantine")
    campaign_coordinate.add_argument("--poll-interval", type=float, default=0.2,
                                     help="coordination pass interval in seconds")
    campaign_coordinate.add_argument("--max-wall", type=float, default=None,
                                     help="optional wall-clock bound in seconds")
    campaign_coordinate.add_argument("--max-attempts", type=int, default=None,
                                     help="retry budget for transient job failures "
                                          "(inline fallback worker)")
    campaign_coordinate.add_argument("--no-serial-fallback", action="store_true",
                                     help="never execute jobs in-process; wait for "
                                          "workers indefinitely")
    campaign_coordinate.add_argument("--no-cache", action="store_true",
                                     help="disable the persistent evaluation cache")
    campaign_coordinate.set_defaults(func=_cmd_campaign_coordinate)

    campaign_work = campaign_sub.add_parser(
        "work",
        help="join a coordinated campaign as an elastic worker",
        description="Lease jobs from <out>/fabric/queue, execute them, "
                    "heartbeat the lease, and journal results for the "
                    "coordinator to merge. Any number of workers may join or "
                    "leave at any time. See docs/fabric.md.",
    )
    campaign_work.add_argument("--out", required=True, help="campaign directory")
    campaign_work.add_argument("--worker-id", default=None,
                               help="stable worker identity (default: w<pid>)")
    campaign_work.add_argument("--lease-ttl", type=float, default=30.0,
                               help="lease lifetime in seconds (must match the "
                                    "coordinator's)")
    campaign_work.add_argument("--poll-interval", type=float, default=0.5,
                               help="idle poll interval in seconds")
    campaign_work.add_argument("--max-idle", type=float, default=300.0,
                               help="exit after this many idle seconds (also how "
                                    "long to wait for the coordinator to create "
                                    "<out>/fabric)")
    campaign_work.add_argument("--max-jobs", type=_non_negative_argument, default=None,
                               help="stop after executing this many jobs")
    campaign_work.add_argument("--max-attempts", type=int, default=None,
                               help="retry budget for transient job failures")
    campaign_work.add_argument("--no-cache", action="store_true",
                               help="disable the persistent evaluation cache")
    campaign_work.set_defaults(func=_cmd_campaign_work)

    campaign_status_cmd = campaign_sub.add_parser(
        "status", help="show per-job completion state of a campaign directory"
    )
    campaign_status_cmd.add_argument("--out", required=True, help="campaign directory")
    campaign_status_cmd.set_defaults(func=_cmd_campaign_status)

    campaign_report = campaign_sub.add_parser(
        "report", help="aggregate completed jobs into combined per-dataset fronts"
    )
    campaign_report.add_argument("--out", required=True, help="campaign directory")
    campaign_report.set_defaults(func=_cmd_campaign_report)

    serve_cmd = subparsers.add_parser(
        "serve",
        help="HTTP design-space query service over campaign report fronts",
        description="Index one or more campaign report directories and "
                    "answer constraint/top-k/nearest queries over their "
                    "Pareto fronts via a threaded stdlib HTTP API "
                    "(GET /datasets, GET /fronts/<ds>, POST /query, "
                    "GET /healthz, GET /metrics). See docs/serving.md.",
    )
    serve_cmd.add_argument("--campaign", action="append", required=True,
                           help="campaign directory to index (repeat for a "
                                "multi-campaign union store)")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8000)
    serve_cmd.add_argument("--cache-size", type=_cache_size_argument, default=None,
                           help="LRU bound on deserialized front views "
                                "(default: unbounded; mirrors the evaluator "
                                "cache's bound semantics)")
    serve_cmd.add_argument("--enqueue-misses", action="store_true",
                           help="publish a campaign job into the first "
                                "campaign's fabric queue when a query misses "
                                "a dataset (one entry per distinct miss)")
    serve_cmd.add_argument("--refresh", type=float, default=None,
                           help="re-index interval in seconds (default: no "
                                "periodic refresh; views still revalidate "
                                "against the file's stat on every access)")
    serve_cmd.add_argument("--refresh-reports", action="store_true",
                           help="during periodic --refresh, rebuild campaign "
                                "reports that lag their completed jobs — "
                                "closes the miss loop: enqueued jobs drained "
                                "by 'repro campaign work' get folded into the "
                                "served fronts")
    serve_cmd.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "profile", False):
        profiling.reset()
        profiling.enable(True)
        try:
            exit_code = int(args.func(args))
        finally:
            profiling.enable(False)
        print()
        print(profiling.format_report())
        return exit_code
    return int(args.func(args))


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
