"""Tests for the benchmark's own arithmetic and wiring.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import benchstats
import run
from spans import Span, Tracer, layer_times, top_level_covered, union_length

ROOT = Path(__file__).resolve().parent.parent


# -- percentiles under the ten-samples-beyond rule -----------------------------------------


def test_p99_needs_a_thousand_samples():
    values = [float(v) for v in range(1, 1001)]
    assert benchstats.percentile(values, 0.99) == 990.0  # ten samples lie beyond 990
    assert benchstats.percentile(values[:-1], 0.99) is None  # 999 samples: only nine


def test_median_needs_ten_beyond():
    assert benchstats.percentile([float(v) for v in range(20)], 0.5) == 9.0
    assert benchstats.percentile([float(v) for v in range(19)], 0.5) is None


def test_percentile_ignores_sample_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
    assert benchstats.percentile(values, 0.5) == 3.0


def test_infinite_latency_of_a_failed_request_lands_in_the_tail():
    values = [1.0] * 989 + [float("inf")] * 11
    assert benchstats.percentile(values, 0.99) == float("inf")


def test_deepest_percentile_keeps_ten_beyond():
    values = [float(v) for v in range(1, 41)]  # 40 calls: too few for p99
    assert benchstats.percentile(values, 0.99) is None
    assert benchstats.deepest_percentile(values) == (30.0, 0.75)  # 31..40 lie beyond
    assert benchstats.deepest_percentile(values[:11]) == (1.0, 1 / 11)
    assert benchstats.deepest_percentile(values[:10]) is None


def test_call_latencies_take_one_sample_per_call():
    samples = [{"requests": [[64, 0.5], [60, 0.4]]}, {"requests": [[64, 0.6]]}]
    assert run.call_latencies(samples) == [0.5, 0.4, 0.6]


# -- self time over nested and repeated spans ----------------------------------------------


def spans_of(*rows):
    return [Span(name, start, end, thread, parent) for name, start, end, thread, parent in rows]


def test_self_time_subtracts_direct_children_only():
    spans = spans_of(
        ("a", 0.0, 10.0, 1, None),
        ("b", 1.0, 4.0, 1, 0),
        ("c", 5.0, 7.0, 1, 0),
        ("d", 5.5, 6.0, 1, 2),
    )
    times = layer_times(spans)
    assert times["a"]["self_s"] == pytest.approx(5.0)
    assert times["c"]["self_s"] == pytest.approx(1.5)
    assert times["d"]["self_s"] == pytest.approx(0.5)
    assert times["a"]["busy_s"] == pytest.approx(10.0)


def test_repeated_and_reentrant_spans():
    spans = spans_of(
        ("a", 0.0, 10.0, 1, None),
        ("a", 2.0, 5.0, 1, 0),  # re-enters itself
        ("a", 20.0, 21.0, 1, None),  # called again later
    )
    times = layer_times(spans)["a"]
    assert times["calls"] == 3
    assert times["busy_s"] == pytest.approx(11.0)  # the nested call is not counted twice
    assert times["self_s"] == pytest.approx(7.0 + 3.0 + 1.0)


def test_busy_time_adds_across_threads():
    spans = spans_of(("v", 0.0, 2.0, 1, None), ("v", 1.0, 3.0, 2, None))
    assert layer_times(spans)["v"]["busy_s"] == pytest.approx(4.0)
    assert top_level_covered(spans) == pytest.approx(3.0)


def test_union_length_merges_overlaps():
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_tracer_records_nesting_and_unattributed_time():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 6.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    outer()  # outer spans 0..4, inner 1..2
    summary = tracer.summary(wall_s=10.0)
    assert summary["outer.calls"] == 1
    assert summary["outer.self_s"] == pytest.approx(3.0)
    assert summary["inner.busy_s"] == pytest.approx(1.0)
    assert summary["trace.unattributed_s"] == pytest.approx(10.0 - 4.0)


# -- fronts --------------------------------------------------------------------------------


def test_hypervolume_reference_point():
    assert benchstats.front_hypervolume([(0.0, 0.0)]) == pytest.approx(1.0)
    assert benchstats.front_hypervolume([(0.5, 0.5)]) == pytest.approx(0.25)
    assert benchstats.front_hypervolume([(1.0, 0.2)]) == 0.0  # on the reference: no volume
    assert benchstats.front_hypervolume([(0.0, 0.0, 0.5)]) == pytest.approx(0.5)
    assert benchstats.HV_REFERENCE_2D == (1.0, 1.0)
    assert benchstats.HV_REFERENCE_3D == (1.0, 1.0, 1.0)


def test_objectives_match_the_search():
    from repro.core.results import DesignPoint
    from repro.search.objectives import objectives_of

    baseline = DesignPoint("baseline", accuracy=0.8, area=10.0)
    points = [
        DesignPoint("combined", accuracy=0.7, area=2.0, robust_accuracy=0.6),
        DesignPoint("combined", accuracy=0.9, area=12.0, robust_accuracy=0.85),
    ]
    for robust in (False, True):
        ours = benchstats.objectives([p.as_dict() for p in points], baseline.as_dict(), robust)
        assert ours == [objectives_of(p, baseline, robust=robust) for p in points]


def test_dominated_pairs():
    assert benchstats.dominated_pairs([(0.9, -2.0), (0.8, -3.0), (0.95, -5.0)]) == [(0, 1)]


# -- wiring --------------------------------------------------------------------------------


def test_benchmark_json_lists_what_run_reports():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in document["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in document["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in document["workloads"]] == list(run.FIRES)


def test_liveness_flags_silent_and_bypassed_wrappers():
    names = run.per_layer_names()
    trace = {name: 0.0 for name, _ in names}
    trace.update({f"{name}.calls": 1.0 for name in run.FIRES["figure2"]})
    ok = run.Run("figure2", 0, 1.0)
    run.check_liveness(ok, trace)
    assert ok.failed == 0
    trace["serving.view.calls"] = 3.0
    trace["search.nsga2_rank.calls"] = 0.0
    bad = run.Run("figure2", 0, 1.0)
    run.check_liveness(bad, trace)
    assert bad.failed == 2


def test_install_patches_every_lookup_site():
    script = """
import repro.cli, repro.nn.stacked, repro.search.objectives, repro.core.pipeline
from spans import Tracer, install
original = repro.nn.stacked.finetune_stacked
install(Tracer())
wrapped = repro.search.objectives.finetune_stacked
assert wrapped is not original and wrapped.__wrapped__ is original
assert repro.core.pipeline.train_classifier.__wrapped__.__module__ == "repro.nn.trainer"
assert repro.core.pipeline.MinimizationPipeline.prepare.__wrapped__.__name__ == "prepare"
"""
    env = dict(run.child_env())
    subprocess.run(
        [sys.executable, "-c", script], cwd=Path(__file__).parent, env=env, check=True, timeout=120
    )


def test_digests_compare_only_runs_of_the_same_code(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "code_version", lambda: "parent")
    first = run.Run("figure2", 0, 1.0)
    run.check_digest(first, "figure2/0", "aaa")
    run.check_digest(first, "figure2/0", "bbb")
    assert first.failed == 1
    monkeypatch.setattr(run, "code_version", lambda: "change")
    other = run.Run("figure2", 0, 1.0)
    run.check_digest(other, "figure2/0", "bbb")
    assert other.failed == 0


def test_an_unexpected_error_still_prints_a_failed_result(tmp_path, monkeypatch, capsys):
    def broken(run_, scratch):
        run_.attempted += 1
        raise ZeroDivisionError("no fronts served")

    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "end_to_end", broken)
    assert run.main(["--workload", "serve", "--seed", "1", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["attempted"] == 1 and result["failed"] == 1
