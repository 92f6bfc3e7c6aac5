"""Unit tests for repro.core.profiling, the stage timer behind ``--profile``."""

import pytest

from repro.core import profiling


@pytest.fixture(autouse=True)
def isolated_profiler():
    """Run each test on an empty, disabled registry and restore it after."""
    was_enabled = profiling.is_enabled()
    saved = {name: list(record) for name, record in profiling._records.items()}
    profiling.enable(False)
    profiling.reset()
    yield
    profiling.enable(was_enabled)
    profiling.reset()
    profiling._records.update(saved)


def test_disabled_stage_records_nothing():
    with profiling.stage("work"):
        pass
    assert profiling.summary() == {}


def test_enable_toggles_is_enabled():
    profiling.enable()
    assert profiling.is_enabled()
    profiling.enable(False)
    assert not profiling.is_enabled()


def test_enabled_stage_counts_calls_and_time():
    profiling.enable()
    for _ in range(3):
        with profiling.stage("work"):
            pass
    record = profiling.summary()["work"]
    assert record["calls"] == 3
    assert record["total_s"] >= 0.0
    assert record["mean_ms"] == pytest.approx(record["total_s"] / 3 * 1e3)


def test_nested_stages_are_inclusive():
    profiling.enable()
    with profiling.stage("outer"):
        with profiling.stage("inner"):
            sum(range(10_000))
    summary = profiling.summary()
    assert summary["outer"]["calls"] == summary["inner"]["calls"] == 1
    assert summary["outer"]["total_s"] >= summary["inner"]["total_s"]


def test_stage_records_and_reraises_on_error():
    profiling.enable()
    with pytest.raises(RuntimeError, match="boom"):
        with profiling.stage("failing"):
            raise RuntimeError("boom")
    assert profiling.summary()["failing"]["calls"] == 1


def test_reset_clears_the_registry():
    profiling.enable()
    with profiling.stage("work"):
        pass
    profiling.reset()
    assert profiling.summary() == {}


def test_report_without_stages_says_so():
    assert profiling.format_report().startswith("profile: no stages recorded")


def test_report_rows_sorted_by_total_time():
    profiling._records.update({"fast": [0.5, 2], "slow": [2.0, 4], "mid": [1.0, 1]})
    lines = profiling.format_report().splitlines()
    assert lines[0].split() == ["stage", "calls", "total", "s", "mean", "ms"]
    assert [line.split()[0] for line in lines[1:]] == ["slow", "mid", "fast"]
    assert lines[1].split()[1:] == ["4", "2.000", "500.00"]


def test_report_unsorted_keeps_first_recorded_order():
    profiling._records.update({"fast": [0.5, 2], "slow": [2.0, 4]})
    lines = profiling.format_report(sort_by_total=False).splitlines()
    assert [line.split()[0] for line in lines[1:]] == ["fast", "slow"]
