"""Shared configuration helpers for the benchmark harness.

See ``benchmarks/conftest.py`` for the fixtures; this module holds the plain
functions/constants the benchmark files import directly.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path

from repro.core import PipelineConfig

#: Machine-readable perf record tracked across PRs (see docs/performance.md).
BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_evaluation.json"

#: Append-only perf trajectory, one entry per git commit that ran benchmarks.
BENCH_HISTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_history.json"

#: Set REPRO_FULL_BENCH=1 to run the paper-faithful (slower) settings.
FULL = os.environ.get("REPRO_FULL_BENCH", "0") == "1"

#: Set REPRO_BENCH_SMOKE=1 for the minimal CI configuration: tiny data and
#: search budgets, just enough signal to catch gross perf/quality regressions.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"

#: Worker processes for search benchmarks (REPRO_BENCH_WORKERS, default serial).
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))


def _bench_mode() -> str:
    return "full" if FULL else ("smoke" if SMOKE else "default")


def _git_commit() -> str:
    """Short hash of HEAD, or ``"unknown"`` outside a git checkout."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=BENCH_JSON_PATH.parent,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if result.returncode != 0:
        return "unknown"
    return result.stdout.strip() or "unknown"


def _append_history(section: str, payload: dict) -> None:
    """Append/merge one section into the commit-keyed ``BENCH_history.json``.

    The history is an append-only trajectory: one entry per git commit (in
    run order), each accumulating the sections measured while that commit
    was checked out. ``BENCH_evaluation.json`` always reflects the *latest*
    numbers; the history is what makes regressions and wins visible across
    PRs.
    """
    history: dict = {}
    if BENCH_HISTORY_PATH.exists():
        try:
            history = json.loads(BENCH_HISTORY_PATH.read_text())
        except json.JSONDecodeError:
            history = {}
    entries = history.setdefault("entries", [])
    commit = _git_commit()
    now = round(time.time(), 3)
    entry = entries[-1] if entries and entries[-1].get("commit") == commit else None
    if entry is None:
        entry = {"commit": commit, "first_unix": now, "sections": {}}
        entries.append(entry)
    entry["last_unix"] = now
    # Provenance is per section, not per entry: different benchmarks at the
    # same commit may run under different modes/worker counts, and the
    # trajectory must not mislabel one run's numbers with another's setup.
    entry.setdefault("sections", {})[section] = {
        "payload": payload,
        "mode": _bench_mode(),
        "workers": WORKERS,
        "python": platform.python_version(),
        "unix": now,
    }
    BENCH_HISTORY_PATH.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")


def record_bench(section: str, payload: dict) -> None:
    """Record one section of perf numbers.

    Two artifacts are written at the repo root:

    * ``BENCH_evaluation.json`` — the machine-readable *current* numbers:
      per-genome evaluation latency, synthesis latency, trainer throughput,
      generation throughput and the figure2 smoke wall-clock, refreshed by
      whichever benchmark ran last (sections are merged, not clobbered).
      CI uploads it as an artifact and enforces a regression floor on it.
    * ``BENCH_history.json`` — the append-only trajectory of those numbers
      keyed by git commit, so the perf history of the repo is preserved
      instead of being overwritten on every run.
    """
    data: dict = {}
    if BENCH_JSON_PATH.exists():
        try:
            data = json.loads(BENCH_JSON_PATH.read_text())
        except json.JSONDecodeError:
            data = {}
    meta = data.setdefault("meta", {})
    meta.update(
        {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "updated_unix": round(time.time(), 3),
            "mode": _bench_mode(),
            "workers": WORKERS,
        }
    )
    data[section] = payload
    BENCH_JSON_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    _append_history(section, payload)


def timed(fn, repeats: int, warmup: int = 1) -> dict:
    """Best/mean wall-clock of ``fn()`` over ``repeats`` runs (seconds)."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return {
        "best_s": min(samples),
        "mean_s": sum(samples) / len(samples),
        "repeats": repeats,
    }


def bench_config(dataset: str) -> PipelineConfig:
    """Pipeline configuration used by the benchmark harness for one dataset."""
    if FULL:
        return PipelineConfig(dataset=dataset, n_workers=WORKERS)
    if SMOKE:
        return PipelineConfig(
            dataset=dataset,
            seed=0,
            train_epochs=25,
            finetune_epochs=4,
            bit_range=(2, 4, 6),
            sparsity_range=(0.3, 0.5),
            cluster_range=(2, 4),
            n_samples=None if dataset == "seeds" else 500,
            n_workers=WORKERS,
        )
    return PipelineConfig(
        dataset=dataset,
        seed=0,
        finetune_epochs=8,
        bit_range=(2, 3, 4, 5, 6, 7),
        sparsity_range=(0.2, 0.3, 0.4, 0.5, 0.6),
        cluster_range=(2, 3, 4, 6, 8),
        n_samples=None if dataset == "seeds" else 1200,
        n_workers=WORKERS,
    )
