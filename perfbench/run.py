"""The repository's benchmark: three workloads, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figure2|campaign|serve \\
        --seed N --seconds S --trace 0|1

Each run launches fresh child interpreters (``child.py``) that call the same
public entry points as the CLI verb, so set-up includes interpreter start
and imports. The workload seed is an argument of this script; the program
only receives the inputs generated from it. ``--trace 0`` prints the
end-to-end metrics, measured untraced; ``--trace 1`` runs one untraced and
one traced repetition and prints the per-layer metrics. The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See ``README.md``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import http.client
import itertools
import json
import math
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import benchstats
import serveload
from spans import SPAN_NAMES
from workloads import (
    CAMPAIGN_DATASETS,
    CAMPAIGN_FAULT_RATES,
    CAMPAIGN_GA,
    CAMPAIGN_RESUMES,
    CAMPAIGN_SEEDS,
    FIGURE2_SEARCHES,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Scratch space inside the checkout: per-run work directories, plus the
#: front digests that make "identical across every run of a seed" checkable.
WORK = ROOT / ".perfbench"

#: Children run single-threaded BLAS: BLAS thread pools add run-to-run
#: jitter on a small shared host.
BLAS_THREADS = "1"
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    "OMP_NUM_THREADS": BLAS_THREADS,
    "MKL_NUM_THREADS": BLAS_THREADS,
    "PYTHONHASHSEED": "0",
}

#: Fewest whole fresh-process runs (iterations) per benchmark run: every
#: figure2 search seed once; three for the others, so medians have a middle.
#: Each iteration does fixed work and every timing is a median over them, so
#: a slow spell of the shared host moves a minority of the samples only.
MIN_ITERATIONS = {"figure2": FIGURE2_SEARCHES, "campaign": 3, "serve": 3}
#: Fewest latency samples a figure2 or campaign run needs: the median must
#: have ten beyond it.
MIN_LATENCY_SAMPLES = 2 * benchstats.TAIL_SAMPLES + 1
#: serve, per server: untimed warm-up requests, then timed ones (p99 needs
#: 1000 to have ten beyond it), over 2 keep-alive connections, as many as
#: the host has vCPUs.
SERVE_WARMUP = 200
SERVE_TIMED_REQUESTS = 1000
SERVE_CONNECTIONS = 2
#: No run goes on past this, whatever ``--seconds`` says.
HARD_CAP_S = 150.0

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("resume_s", "s"),
    ("req_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("front_hv", "hv"),
    ("gain_5pct", "x"),
)


class Run:
    """Operations attempted and failed, and why each failure happened."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.children: List[subprocess.Popen] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def fail(self, problem: str, operations: int = 1) -> None:
        self.failed += operations
        self.problems.append(problem)


# -- child processes ---------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    source = str(ROOT / "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(
    run: Run, seed: int, result: Path, trace: bool, *extra: str, **popen
) -> Tuple[subprocess.Popen, float]:
    command = [sys.executable, "-u", str(BENCH / "child.py"), run.workload,
               "--seed", str(seed), "--result", str(result), *extra]
    if trace:
        command.append("--trace")
    result.unlink(missing_ok=True)
    launched = time.monotonic()
    process = subprocess.Popen(command, cwd=ROOT, env=child_env(), **popen)
    run.children.append(process)
    return process, launched


def read_result(
    process: subprocess.Popen, result: Path, run: Run, timeout: float
) -> Optional[dict]:
    """Wait for a child; its result document, or ``None`` (recorded as a problem)."""
    try:
        code = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        run.problems.append(f"{run.workload} child timed out")
        return None
    if code != 0 or not result.exists():
        run.problems.append(f"{run.workload} child exited with {code}")
        return None
    return json.loads(result.read_text())


def remaining(run: Run) -> float:
    return max(5.0, HARD_CAP_S - run.elapsed())


def call_latencies(samples: List[dict]) -> List[float]:
    """One latency sample per ``evaluate_population`` call.

    The genomes of one call all wait for the same reply, so the call, not
    the genome, is the independent sample.
    """
    return [seconds for sample in samples for _, seconds in sample["requests"]]


def tail_latencies(run: Run, latencies: List[float]) -> Dict[str, float]:
    """``p50_ms`` and ``p99_ms`` (nearest rank, ten samples beyond each).

    figure2 and campaign runs make tens of evaluation calls, not the 1000
    p99 needs: there ``p99_ms`` is the deepest tail that ten calls lie
    beyond, and the output says which percentile that is.
    """
    p50 = benchstats.percentile(latencies, 0.50)
    p99 = benchstats.percentile(latencies, 0.99)
    if p99 is None and run.workload != "serve":
        deepest = benchstats.deepest_percentile(latencies)
        if deepest is not None:
            p99, reached = deepest
            print(f"p99_ms: {len(latencies)} calls carry no p99; reporting p{100 * reached:.0f}")
    tails = {}
    for name, value in (("p50_ms", p50), ("p99_ms", p99)):
        if value is None:
            run.fail(f"{name}: {len(latencies)} samples leave fewer than "
                     f"{benchstats.TAIL_SAMPLES} beyond it")
            value = math.nan
        tails[name] = value * 1e3
    return tails


def request_rate(samples: List[dict]) -> float:
    """Median over runs of genome requests per second after set-up."""
    return statistics.median(
        sum(n for n, _ in s["requests"]) / (s["done"] - s["ready"]) for s in samples
    )


def code_version() -> str:
    """Hash of the program's and the benchmark's sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")) + sorted(BENCH.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_digest(run: Run, key: str, digest: str) -> None:
    """A seed's output must match every earlier run of that seed on the same code.

    Digests are keyed by :func:`code_version` too, so a change to the program
    that legitimately moves the fronts starts a fresh record.
    """
    path = WORK / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if known.setdefault(f"{code_version()}/{key}", digest) != digest:
        run.fail(f"{key}: output differs from an earlier run of the same seed")
    path.write_text(json.dumps(known, indent=1, sort_keys=True))


def hypervolume_of(points: List[dict], baseline: dict, robust: bool) -> float:
    return benchstats.front_hypervolume(benchstats.objectives(points, baseline, robust))


# -- figure2 -----------------------------------------------------------------------------


def figure2_seed(run: Run, index: int) -> int:
    return FIGURE2_SEARCHES * run.seed + index % FIGURE2_SEARCHES


def figure2_iteration(run: Run, trace: bool, scratch: Path, index: int) -> Optional[dict]:
    result_path = scratch / f"figure2-{index}.json"
    seed = figure2_seed(run, index)
    process, launched = launch(run, seed, result_path, trace)
    run.attempted += 1
    result = read_result(process, result_path, run, remaining(run))
    if result is None:
        run.fail("figure2 search did not finish")
        return None
    front = result["front"]
    criteria = [(p["accuracy"], -p["area"]) for p in front]
    if not front or benchstats.dominated_pairs(criteria):
        run.fail("figure2 combined front is empty or has a dominated point")
    if result["gain_5pct"] is None or result["gain_5pct"] < 1.0:
        run.fail(f"figure2 gain at 5 % loss is {result['gain_5pct']}")
    result["digest"] = hashlib.sha256(json.dumps(front, sort_keys=True).encode()).hexdigest()
    result["launched"] = launched
    result["seed"] = seed
    return result


def figure2_metrics(run: Run, samples: List[dict]) -> Dict[str, float]:
    searches = {}
    for sample in samples:
        first = searches.setdefault(sample["seed"], sample)
        if sample["digest"] != first["digest"]:
            run.fail(f"figure2 front of search seed {sample['seed']} differs between its runs")
    for seed, sample in searches.items():
        check_digest(run, f"figure2/{seed}", sample["digest"])
    walls = [s["done"] - s["launched"] for s in samples]
    return {
        "setup_s": statistics.median(s["ready"] - s["launched"] for s in samples),
        "wall_s": statistics.median(walls),
        # figure2 keeps nothing on disk: resuming it is a full rerun.
        "resume_s": statistics.median(walls[1:]),
        "req_per_s": request_rate(samples),
        **tail_latencies(run, call_latencies(samples)),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "front_hv": statistics.fmean(
            hypervolume_of(s["front"], s["baseline"], robust=False) for s in searches.values()
        ),
        "gain_5pct": statistics.fmean(s["gain_5pct"] for s in searches.values()),
    }


# -- campaign ----------------------------------------------------------------------------


def campaign_spec(seed: int) -> dict:
    fault_rate = round(random.Random(seed).uniform(*CAMPAIGN_FAULT_RATES), 4)
    ga = dict(CAMPAIGN_GA, fault_rate=fault_rate)
    return {
        "name": f"perfbench-{seed}",
        "datasets": list(CAMPAIGN_DATASETS),
        "seeds": list(CAMPAIGN_SEEDS),
        "searches": [
            {"algorithm": "ga", "name": "ga", **ga},
            {"algorithm": "ga", "name": "ga-ridge", "surrogate": "ridge", **ga},
        ],
    }


def campaign_iteration(run: Run, trace: bool, scratch: Path, index: int) -> Optional[dict]:
    workdir = scratch / f"campaign-{index}"
    workdir.mkdir(parents=True)
    (workdir / "spec.json").write_text(json.dumps(campaign_spec(run.seed), indent=2))
    result_path = workdir / "result.json"
    process, launched = launch(run, run.seed, result_path, trace, "--workdir", str(workdir))
    n_jobs = (1 + CAMPAIGN_RESUMES) * 2 * len(CAMPAIGN_DATASETS) * len(CAMPAIGN_SEEDS)
    run.attempted += n_jobs
    result = read_result(process, result_path, run, remaining(run))
    if result is None:
        run.fail("campaign did not finish", n_jobs)
        return None
    resumed_jobs = [job for resume in result["resumes"] for job in resume["jobs"]]
    for job in result["jobs"] + resumed_jobs:
        if job["status"] != "completed":
            run.fail(f"campaign job {job['job_id']} failed: {job['error']}")
    fresh = sum(job["n_evaluations"] for job in resumed_jobs)
    if fresh:
        run.fail(f"campaign resumes made {fresh} fresh evaluations, expected 0")
    digest = hashlib.sha256()
    for dataset in CAMPAIGN_DATASETS:
        name = f"front_{dataset}.json"
        path = workdir / "cold" / "report" / name
        if not path.exists():
            run.fail(f"the cold campaign report has no {name}")
            continue
        cold = path.read_bytes()
        for resume in range(CAMPAIGN_RESUMES):
            path = workdir / f"resume-{resume}" / "report" / name
            if not path.exists() or path.read_bytes() != cold:
                run.fail(f"campaign resume {resume} {name} is missing or not the cold run's")
        digest.update(cold)
    # Each job's front is scored against its own seed's baseline: the
    # report's per-dataset union mixes seeds, so it has no shared baseline.
    fronts = [json.loads(path.read_text())
              for path in sorted((workdir / "cold" / "jobs").glob("*/front.json"))]
    result.update(launched=launched, fronts=fronts, digest=digest.hexdigest())
    shutil.rmtree(workdir)
    return result


def campaign_metrics(run: Run, samples: List[dict]) -> Dict[str, float]:
    first = samples[0]
    for sample in samples:
        if sample["digest"] != first["digest"]:
            run.fail("campaign report differs between runs of one seed")
    check_digest(run, f"campaign/{run.seed}", first["digest"])
    fronts = first["fronts"]
    gains = [f["best_gain_within_loss_budget"] for f in fronts]
    if None in gains:
        run.fail("a campaign job found no design within the 5 % loss budget")
    return {
        "setup_s": statistics.median(s["ready"] - s["launched"] for s in samples),
        "wall_s": statistics.median(s["done"] - s["launched"] for s in samples),
        "resume_s": statistics.median(r["seconds"] for s in samples for r in s["resumes"]),
        "req_per_s": request_rate(samples),
        **tail_latencies(run, call_latencies(samples)),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "front_hv": sum(hypervolume_of(f["front"], f["baseline"], robust=True) for f in fronts),
        "gain_5pct": statistics.fmean(g for g in gains if g is not None),
    }


# -- serve -------------------------------------------------------------------------------


class Server:
    """One ``repro serve`` child: launched, waited for, stopped with SIGINT."""

    def __init__(self, run: Run, campaign: Path, trace: bool, scratch: Path, index: int) -> None:
        self.run = run
        self.result_path = scratch / f"server-{index}.json"
        self.process, self.launched = launch(
            run, run.seed, self.result_path, trace, "--campaign", str(campaign),
            stdout=subprocess.PIPE, text=True,
        )
        self.port = self._read_port()
        self.ready = self._wait_healthy()

    def _read_port(self) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            readable, _, _ = select.select([self.process.stdout], [], [], 1.0)
            if not readable:
                continue
            line = self.process.stdout.readline()
            if not line:
                break
            if line.startswith("serving ") and " on http://" in line:
                return int(line.rsplit(":", 1)[1])
        self.process.kill()
        self.process.wait()
        raise RuntimeError("repro serve did not report its port")

    def _wait_healthy(self) -> float:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            status, _ = self.get("/healthz")
            if status == 200:
                return time.monotonic()
            time.sleep(0.002)
        raise RuntimeError("repro serve never answered /healthz")

    def get(self, path: str) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        except OSError:
            return 0, b""
        finally:
            connection.close()

    def stop(self) -> Optional[dict]:
        self.process.send_signal(signal.SIGINT)
        result = read_result(self.process, self.result_path, self.run, 30.0)
        self.process.stdout.close()
        return result


def sweep_fronts(run: Run, server: Server, campaign: Path) -> None:
    """Fetch every front once; each must equal its report file byte for byte."""
    for path in sorted((campaign / "report").glob("front_*.json")):
        dataset = path.stem[len("front_"):]
        run.attempted += 1
        status, body = server.get(f"/fronts/{dataset}")
        if status != 200 or body != path.read_bytes():
            run.fail(f"GET /fronts/{dataset}: status {status}, or its bytes differ")


def record_load(run: Run, load) -> None:
    run.attempted += len(load.latencies)
    if load.failures:
        run.fail(f"{len(load.failures)} serve requests failed, first: {load.failures[0]}",
                 len(load.failures))


def serve_iteration(
    run: Run, trace: bool, scratch: Path, index: int, fronts: Dict[str, serveload.Front]
) -> Optional[dict]:
    """Start a server, fetch every front once (all cold loads), warm it up,
    time a fixed number of requests, stop it."""
    campaign = scratch / "campaign"
    server = Server(run, campaign, trace, scratch, index)
    sweep_fronts(run, server, campaign)
    swept = time.monotonic()
    record_load(run, serveload.run_load(server.port, run.seed, 0, fronts, SERVE_CONNECTIONS,
                                        total=SERVE_WARMUP))
    began = time.monotonic()
    load = serveload.run_load(server.port, run.seed, 1, fronts, SERVE_CONNECTIONS,
                              total=SERVE_TIMED_REQUESTS)
    done = time.monotonic()
    record_load(run, load)
    status, body = server.get("/metrics") if trace else (0, b"")
    result = server.stop()
    if result is None:
        run.fail("repro serve did not stop cleanly")
        return None
    if trace and status == 200:
        server_metrics = json.loads(body)
        result["trace"].update({
            "serving.not_modified": server_metrics["responses"].get("3xx", 0),
            "serving.server_p50_ms": server_metrics["latency"]["p50_ms"],
            "serving.server_p99_ms": server_metrics["latency"]["p99_ms"],
        })
    result.update(launched=server.launched, ready=server.ready, swept=swept, began=began,
                  done=done, latencies=load.latencies)
    return result


def serve_front_metrics(campaign: Path) -> Dict[str, float]:
    """Over the served fronts, read from the report files every sweep matched."""
    from repro.core.pareto import best_area_gain_at_loss
    from repro.core.results import DesignPoint

    documents = [json.loads(p.read_bytes()) for p in (campaign / "report").glob("front_*.json")]
    if not documents:
        return {}
    hv = gains = 0.0
    for document in documents:
        # Accuracy and area only: the exact 3-D volume of a 1000-row front
        # takes seconds.
        hv += hypervolume_of(document["front"], document["baseline"], robust=False)
        best = best_area_gain_at_loss(
            [DesignPoint(**p) for p in document["front"]], DesignPoint(**document["baseline"]), 0.05
        )
        gains += best.area_gain
    return {"front_hv": hv, "gain_5pct": gains / len(documents)}


def serve_metrics(run: Run, samples: List[dict], scratch: Path) -> Dict[str, float]:
    """Medians over servers; p50/p99 are each server's own, over its timed requests."""
    tails = [tail_latencies(run, s["latencies"]) for s in samples]
    metrics = {
        "setup_s": statistics.median(s["ready"] - s["launched"] for s in samples),
        "wall_s": statistics.median(s["done"] - s["launched"] for s in samples),
        "resume_s": statistics.median(s["swept"] - s["launched"] for s in samples),
        "req_per_s": statistics.median(
            len(s["latencies"]) / (s["done"] - s["began"]) for s in samples
        ),
        "p50_ms": statistics.median(t["p50_ms"] for t in tails),
        "p99_ms": statistics.median(t["p99_ms"] for t in tails),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    metrics.update(serve_front_metrics(scratch / "campaign"))
    return metrics


# -- trace 0: end-to-end -----------------------------------------------------------------


def iteration_for(run: Run, scratch: Path):
    """The workload's iteration function; for serve, after generating its campaign."""
    if run.workload == "serve":
        # The client and the server run on one vCPU. Spread over two, every
        # request wakes the other vCPU, and whenever the host preempts one
        # of them the whole closed loop waits. Over 21 interleaved servers on
        # a 2-vCPU VM, a server on two vCPUs saw 16-339 jiffies of steal, one
        # on a single vCPU 2-51, and the single vCPU served 9 % more requests
        # per second, with less spread.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        fronts = serveload.generate_campaign(scratch / "campaign", run.seed)
        return functools.partial(serve_iteration, fronts=fronts)
    return {"figure2": figure2_iteration, "campaign": campaign_iteration}[run.workload]


def repeat(run: Run, iteration, scratch: Path) -> List[dict]:
    """Whole fresh-process runs until ``--seconds`` is spent (and enough samples).

    Another run starts only if it is expected to end within half a run of
    ``--seconds``, so a run measures about ``--seconds`` whatever its length.
    """
    samples: List[dict] = []
    for index in itertools.count():
        began = time.monotonic()
        sample = iteration(run, False, scratch, index)
        if sample is not None:
            samples.append(sample)
        last = time.monotonic() - began
        timed = sum(len(s["requests"]) for s in samples if "requests" in s)
        enough = len(samples) >= MIN_ITERATIONS[run.workload] and (
            run.workload == "serve" or timed >= MIN_LATENCY_SAMPLES
        )
        if enough and run.elapsed() + last / 2 > run.seconds:
            return samples
        if run.elapsed() + last > HARD_CAP_S:
            return samples


def end_to_end(run: Run, scratch: Path) -> Dict[str, float]:
    samples = repeat(run, iteration_for(run, scratch), scratch)
    if len(samples) < MIN_ITERATIONS[run.workload]:
        run.fail(f"only {len(samples)} {run.workload} runs finished")
        return {}
    print(f"iterations: {len(samples)}")
    if run.workload == "serve":
        return serve_metrics(run, samples, scratch)
    reduce = {"figure2": figure2_metrics, "campaign": campaign_metrics}
    return reduce[run.workload](run, samples)


# -- trace 1: per layer ------------------------------------------------------------------

#: Wrappers that must fire on a workload (the table's "on" column).
FIRES: Dict[str, Tuple[str, ...]] = {
    "figure2": (
        "core.import", "core.prepare", "datasets.load_dataset", "nn.train_classifier",
        "nn.finetune_stacked", "quantization.quantization_sweep", "pruning.pruning_sweep",
        "clustering.clustering_sweep", "clustering.kmeans_1d", "bespoke.synthesize",
        "bespoke.synthesize_cost_only", "search.evaluate_population", "search.nsga2_rank",
        "search.select_survivors",
    ),
    "campaign": (
        "core.import", "nn.train_classifier", "nn.finetune_stacked",
        "reliability.monte_carlo_population", "search.evaluate_population",
        "search.nsga2_rank", "search.select_survivors", "surrogate.refit", "surrogate.select",
        "campaign.execute_job", "campaign.cache_open", "campaign.cache_put",
        "campaign.journal_append", "campaign.write_job_artifacts", "campaign.write_report",
        "campaign.write_front_npz",
    ),
    "serve": ("core.import", "serving.view", "serving.front", "serving.query_run"),
}
#: Layers a workload bypasses: their wrappers must not fire at all.
BYPASSES: Dict[str, Tuple[str, ...]] = {
    "figure2": ("surrogate.", "campaign.", "serving."),
    "campaign": (),
    "serve": ("nn.finetune_stacked",),
}


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = []
    for span in SPAN_NAMES:
        names += [(f"{span}.calls", "count"), (f"{span}.busy_s", "s"), (f"{span}.self_s", "s")]
    names += [
        ("nn.genomes_finetuned", "count"),
        ("reliability.trials", "count"),
        ("search.genomes_requested", "count"),
        ("search.fresh_evaluations", "count"),
        ("search.cache_hit_ratio", "ratio"),
        ("surrogate.candidates", "count"),
        ("surrogate.real_eval_ratio", "ratio"),
        ("campaign.records_loaded", "count"),
        ("campaign.bytes_appended", "bytes"),
        ("serving.hits", "count"),
        ("serving.misses", "count"),
        ("serving.npz_loads", "count"),
        ("serving.json_loads", "count"),
        ("serving.evictions", "count"),
        ("serving.hit_ratio", "ratio"),
        ("serving.not_modified", "count"),
        ("serving.server_p50_ms", "ms"),
        ("serving.server_p99_ms", "ms"),
        ("trace.overhead_frac", "ratio"),
        ("trace.unattributed_s", "s"),
    ]
    return names


def check_liveness(run: Run, trace: Dict[str, float]) -> None:
    calls = {k[: -len(".calls")]: v for k, v in trace.items() if k.endswith(".calls")}
    for name in FIRES[run.workload]:
        if not calls.get(name):
            run.fail(f"wrapper {name} never fired on {run.workload}")
    for name, count in calls.items():
        if count and name.startswith(BYPASSES[run.workload]):
            run.fail(f"wrapper {name} fired {count:g} times on {run.workload}, which bypasses it")


def traced_repeat(run: Run, scratch: Path) -> Tuple[Dict[str, float], float]:
    """One untraced and one traced iteration: the trace, and its overhead."""
    iteration = iteration_for(run, scratch)
    walls, trace = [], {}
    for traced in (False, True):
        sample = iteration(run, traced, scratch, 0)
        if sample is None:
            return {}, math.nan
        walls.append(sample["done"] - sample["launched"])
        trace = sample.get("trace", trace)
    return trace, walls[1] / walls[0] - 1.0


def per_layer(run: Run, scratch: Path) -> Dict[str, float]:
    trace, overhead = traced_repeat(run, scratch)
    if not trace:
        run.fail("the traced run did not finish")
    check_liveness(run, trace)
    requested = trace.get("search.genomes_requested", 0.0)
    candidates = trace.get("surrogate.candidates", 0.0)
    trace["search.cache_hit_ratio"] = (
        1.0 - trace.get("search.fresh_evaluations", 0.0) / requested if requested else 0.0
    )
    trace["surrogate.real_eval_ratio"] = (
        trace.get("surrogate.job_fresh_evaluations", 0.0) / candidates if candidates else 0.0
    )
    trace["trace.overhead_frac"] = overhead
    return {name: float(trace.get(name) or 0.0) for name, _ in per_layer_names()}


# -- report ------------------------------------------------------------------------------


def environment(run: Run) -> Dict[str, object]:
    import numpy

    return {
        "workload": run.workload,
        "workload_seed": run.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("figure2", "campaign", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    # SIGTERM unwinds like an exception, so no child outlives this process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args.workload, args.seed, args.seconds)
    scratch = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    units = dict(per_layer_names() if args.trace else END_TO_END)
    try:
        values = per_layer(run, scratch) if args.trace else end_to_end(run, scratch)
    except Exception as error:  # the result line is printed whatever went wrong
        run.fail(f"{type(error).__name__}: {error}")
        values = {}
    finally:
        for child in run.children:
            if child.poll() is None:
                child.kill()
                child.wait()
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"env {json.dumps(environment(run), sort_keys=True)}")
    metrics, unmeasured = {}, []
    for name, unit in units.items():
        value = values.get(name, math.nan)
        if not math.isfinite(value):
            # Not an operation of its own: the run is wrong, not one more op.
            unmeasured.append(name)
            run.problems.append(f"{name} was not measured")
            value = -1.0
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<40} {value:>16.6f} {unit}")
    for problem in run.problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": run.failed == 0 and not unmeasured,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
