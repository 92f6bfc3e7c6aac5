"""FrontStore: golden byte-identity, LRU bounds, invalidation, corruption.

The golden tests pin the serving contract at the byte level: a
single-campaign store serves ``report/front_<ds>.json`` exactly as the
report writer laid it down — robustness-on and robustness-off documents
alike. The corruption regressions reuse the chaos harness's torn-write
helpers (:func:`chaos.corrupt_record` / :func:`chaos.truncate_tail`) to
prove externally-damaged fronts are skipped, not served or fatal.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.campaign.fabric.chaos import corrupt_record, truncate_tail
from repro.campaign.journal import REPORT_DIR, write_json_atomic
from repro.campaign.report import pareto_front
from repro.core.results import DesignPoint
from repro.core.lru import LRUCache
from repro.serving import FrontStore, UnknownDatasetError
from repro.serving.store import build_columns

BASELINE = {
    "technique": "baseline",
    "accuracy": 0.9,
    "area": 10.0,
    "power": 5.0,
    "delay": 1.0,
    "parameters": {},
}


def robust_row(accuracy, area, robust_accuracy=0.8, **extra):
    """A 3-objective front row (robust columns present)."""
    row = {
        "technique": "combined",
        "accuracy": accuracy,
        "area": area,
        "power": area / 2.0,
        "delay": area / 4.0,
        "parameters": {"weight_bits": 4},
        "robust_accuracy": robust_accuracy,
        "accuracy_std": 0.01,
    }
    row.update(extra)
    return row


def plain_row(accuracy, area, **extra):
    """A 2-objective front row (robustness-off campaign)."""
    row = {
        "technique": "combined",
        "accuracy": accuracy,
        "area": area,
        "power": area / 2.0,
        "delay": area / 4.0,
        "parameters": {},
    }
    row.update(extra)
    return row


def write_front(campaign, dataset, rows, baseline=BASELINE):
    """Write one front document exactly like ``report.write_report`` does."""
    document = {
        "dataset": dataset,
        "baseline": baseline,
        "front": rows,
        "combined_best_gain": 2.0,
    }
    path = campaign / REPORT_DIR / f"front_{dataset}.json"
    write_json_atomic(path, document)
    return path


def make_campaign(root, name, fronts, spec=None):
    """A campaign directory serving ``fronts`` (``{dataset: rows}``)."""
    campaign = root / name
    (campaign / REPORT_DIR).mkdir(parents=True)
    for dataset, rows in fronts.items():
        write_front(campaign, dataset, rows)
    if spec is not None:
        write_json_atomic(campaign / "spec.json", spec)
    return campaign


# -- golden byte-identity -----------------------------------------------------------


def test_raw_front_is_byte_identical_to_report_file(tmp_path):
    campaign = make_campaign(
        tmp_path, "camp", {"seeds": [robust_row(0.9, 2.0), robust_row(0.85, 1.0)]}
    )
    store = FrontStore(campaign)
    path = FrontStore.front_path(campaign, "seeds")
    assert store.raw_front("seeds") == path.read_bytes()


def test_raw_front_byte_identity_robustness_off(tmp_path):
    """Robustness-off fronts serve without robust keys sneaking in."""
    campaign = make_campaign(tmp_path, "camp", {"seeds": [plain_row(0.9, 2.0)]})
    store = FrontStore(campaign)
    raw = store.raw_front("seeds")
    assert raw == FrontStore.front_path(campaign, "seeds").read_bytes()
    assert b"robust_accuracy" not in raw and b"accuracy_std" not in raw


def test_raw_front_byte_identity_survives_repeated_reads(tmp_path):
    campaign = make_campaign(tmp_path, "camp", {"seeds": [robust_row(0.9, 2.0)]})
    store = FrontStore(campaign, max_entries=1)
    first = store.raw_front("seeds")
    assert all(store.raw_front("seeds") == first for _ in range(3))


def test_view_decodes_points_and_marks_robust(tmp_path):
    campaign = make_campaign(
        tmp_path,
        "camp",
        {"seeds": [robust_row(0.9, 2.0)], "whitewine": [plain_row(0.8, 3.0)]},
    )
    store = FrontStore(campaign)
    robust_view = store.view(campaign, "seeds")
    plain_view = store.view(campaign, "whitewine")
    assert robust_view.robust and robust_view.points[0].robust_accuracy == 0.8
    assert not plain_view.robust and plain_view.points[0].robust_accuracy is None


def test_datasets_is_sorted_union(tmp_path):
    a = make_campaign(tmp_path, "a", {"seeds": [], "whitewine": []})
    b = make_campaign(tmp_path, "b", {"cardio": [], "seeds": []})
    assert FrontStore([a, b]).datasets() == ["cardio", "seeds", "whitewine"]


def test_unknown_dataset_raises_with_name(tmp_path):
    campaign = make_campaign(tmp_path, "camp", {"seeds": []})
    store = FrontStore(campaign)
    with pytest.raises(UnknownDatasetError) as excinfo:
        store.views("nonexistent")
    assert excinfo.value.dataset == "nonexistent"


def test_store_requires_at_least_one_campaign():
    with pytest.raises(ValueError, match="at least one campaign"):
        FrontStore([])


# -- torn / corrupt reports ----------------------------------------------------------


def test_corrupt_record_front_treated_as_absent(tmp_path):
    campaign = make_campaign(tmp_path, "camp", {"seeds": [robust_row(0.9, 2.0)]})
    corrupt_record(FrontStore.front_path(campaign, "seeds"), line_index=4)
    store = FrontStore(campaign)
    with pytest.raises(UnknownDatasetError):
        store.views("seeds")


def test_truncated_front_treated_as_absent(tmp_path):
    campaign = make_campaign(tmp_path, "camp", {"seeds": [robust_row(0.9, 2.0)]})
    truncate_tail(FrontStore.front_path(campaign, "seeds"), n_bytes=40)
    store = FrontStore(campaign)
    with pytest.raises(UnknownDatasetError):
        store.views("seeds")


def test_corrupt_campaign_falls_back_to_healthy_one(tmp_path):
    a = make_campaign(tmp_path, "a", {"seeds": [robust_row(0.9, 2.0)]})
    b = make_campaign(tmp_path, "b", {"seeds": [robust_row(0.85, 1.0)]})
    corrupt_record(FrontStore.front_path(a, "seeds"), line_index=4)
    store = FrontStore([a, b])
    views = store.views("seeds")
    assert [view.campaign for view in views] == [b]
    assert store.raw_front("seeds") == FrontStore.front_path(b, "seeds").read_bytes()


def test_repaired_front_served_after_refresh(tmp_path):
    campaign = make_campaign(tmp_path, "camp", {"seeds": [robust_row(0.9, 2.0)]})
    path = FrontStore.front_path(campaign, "seeds")
    truncate_tail(path, n_bytes=60)
    store = FrontStore(campaign)
    with pytest.raises(UnknownDatasetError):
        store.views("seeds")
    write_front(campaign, "seeds", [robust_row(0.95, 1.5)])
    store.refresh()
    assert store.views("seeds")[0].points[0].accuracy == 0.95


def test_front_with_invalid_point_schema_is_skipped(tmp_path):
    campaign = make_campaign(tmp_path, "camp", {"seeds": []})
    write_json_atomic(
        FrontStore.front_path(campaign, "seeds"),
        {"dataset": "seeds", "front": [{"technique": "not-a-technique", "accuracy": 2}]},
    )
    with pytest.raises(UnknownDatasetError):
        FrontStore(campaign).views("seeds")


# -- LRU semantics (the LRUCache shared with EvaluationCache) ------------------------


def test_lru_cache_rejects_non_positive_bound():
    with pytest.raises(ValueError, match="max_entries must be >= 1"):
        LRUCache(max_entries=0)
    with pytest.raises(ValueError, match="max_entries must be >= 1"):
        LRUCache(max_entries=-3)
    with pytest.raises(ValueError, match="max_entries must be >= 1"):
        FrontStore("unused", max_entries=0)


def test_store_hits_misses_counted(tmp_path):
    campaign = make_campaign(tmp_path, "camp", {"seeds": [robust_row(0.9, 2.0)]})
    store = FrontStore(campaign)
    store.views("seeds")
    store.views("seeds")
    stats = store.stats()
    assert stats["misses"] == 1 and stats["hits"] == 1
    assert stats["cached_views"] == 1 and stats["evictions"] == 0


def test_lru_evicts_least_recently_used_view(tmp_path):
    fronts = {name: [robust_row(0.9, 2.0)] for name in ("a", "b", "c")}
    campaign = make_campaign(tmp_path, "camp", fronts)
    store = FrontStore(campaign, max_entries=2)
    store.views("a")
    store.views("b")
    store.views("a")  # refresh a's recency: b is now LRU
    store.views("c")  # evicts b
    assert store.stats()["evictions"] == 1
    store.views("a")  # still cached
    assert store.stats()["hits"] == 2
    store.views("b")  # evicted: must re-deserialize
    assert store.stats()["misses"] == 4


def test_evicted_view_rereads_identical_bytes(tmp_path):
    fronts = {name: [robust_row(0.9, 2.0)] for name in ("a", "b")}
    campaign = make_campaign(tmp_path, "camp", fronts)
    store = FrontStore(campaign, max_entries=1)
    first = store.raw_front("a")
    store.raw_front("b")  # evicts a
    assert store.raw_front("a") == first


# -- invalidation --------------------------------------------------------------------


def test_rewritten_front_invalidates_cached_view(tmp_path):
    campaign = make_campaign(tmp_path, "camp", {"seeds": [robust_row(0.9, 2.0)]})
    store = FrontStore(campaign)
    assert store.views("seeds")[0].points[0].accuracy == 0.9
    write_front(campaign, "seeds", [robust_row(0.95, 1.5), robust_row(0.7, 0.5)])
    view = store.views("seeds")[0]
    assert [point.accuracy for point in view.points] == [0.95, 0.7]
    assert store.raw_front("seeds") == FrontStore.front_path(
        campaign, "seeds"
    ).read_bytes()


def test_same_size_rewrite_within_one_mtime_tick_is_served(tmp_path):
    """An atomic rewrite of equal length, with the old mtime, is not served stale."""
    campaign = make_campaign(tmp_path, "camp", {"seeds": [robust_row(0.9, 2.0)]})
    store = FrontStore(campaign)
    path = FrontStore.front_path(campaign, "seeds")
    before = path.stat()
    assert store.views("seeds")[0].points[0].accuracy == 0.9
    write_front(campaign, "seeds", [robust_row(0.8, 2.0)])
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert store.views("seeds")[0].points[0].accuracy == 0.8
    assert store.raw_front("seeds") == path.read_bytes()


def test_refresh_reports_and_drops_stale_views(tmp_path):
    campaign = make_campaign(
        tmp_path, "camp", {"seeds": [robust_row(0.9, 2.0)], "cardio": [plain_row(0.8, 1.0)]}
    )
    store = FrontStore(campaign)
    store.views("seeds")
    store.views("cardio")
    write_front(campaign, "seeds", [robust_row(0.6, 4.0)])
    counts = store.refresh()
    assert counts["invalidated"] == 1
    assert counts["datasets"] == 2
    assert store.views("seeds")[0].points[0].accuracy == 0.6


def test_deleted_front_disappears_after_refresh(tmp_path):
    campaign = make_campaign(tmp_path, "camp", {"seeds": [robust_row(0.9, 2.0)]})
    store = FrontStore(campaign)
    store.views("seeds")
    FrontStore.front_path(campaign, "seeds").unlink()
    store.refresh()
    assert store.datasets() == []
    with pytest.raises(UnknownDatasetError):
        store.views("seeds")


# -- columnar views ------------------------------------------------------------------


def test_columns_are_read_only_and_aligned(tmp_path):
    campaign = make_campaign(
        tmp_path, "camp", {"seeds": [robust_row(0.9, 2.0), plain_row(0.8, 1.0)]}
    )
    view = FrontStore(campaign).views("seeds")[0]
    assert view.columns["accuracy"].tolist() == [0.9, 0.8]
    assert view.columns["area"].tolist() == [2.0, 1.0]
    assert np.isnan(view.columns["robust_accuracy"][1])  # plain row: NaN
    with pytest.raises(ValueError):
        view.columns["accuracy"][0] = 0.0


def test_build_columns_empty_points():
    columns = build_columns([])
    assert all(columns[name].shape == (0,) for name in columns)


# -- union merge ---------------------------------------------------------------------


def test_union_front_matches_report_merge(tmp_path):
    rows_a = [robust_row(0.9, 2.0), robust_row(0.8, 1.0)]
    rows_b = [robust_row(0.95, 3.0), robust_row(0.8, 1.0)]
    a = make_campaign(tmp_path, "a", {"seeds": rows_a})
    b = make_campaign(tmp_path, "b", {"seeds": rows_b})
    merged, robust = FrontStore([a, b]).union_front("seeds")
    points = [DesignPoint(**row) for row in rows_a + rows_b]
    expected = pareto_front(points, robust=True)
    assert robust is True
    assert [p.as_dict() for p in merged] == [p.as_dict() for p in expected]


def test_union_drops_robust_axis_when_any_campaign_lacks_it(tmp_path):
    a = make_campaign(tmp_path, "a", {"seeds": [robust_row(0.9, 2.0)]})
    b = make_campaign(tmp_path, "b", {"seeds": [plain_row(0.8, 1.0)]})
    merged, robust = FrontStore([a, b]).union_front("seeds")
    assert robust is False
    points = [DesignPoint(**robust_row(0.9, 2.0)), DesignPoint(**plain_row(0.8, 1.0))]
    expected = pareto_front(points, robust=False)
    assert [p.as_dict() for p in merged] == [p.as_dict() for p in expected]


def test_multi_campaign_raw_front_is_canonical_merged_json(tmp_path):
    a = make_campaign(tmp_path, "a", {"seeds": [robust_row(0.9, 2.0)]})
    b = make_campaign(tmp_path, "b", {"seeds": [robust_row(0.8, 1.0)]})
    store = FrontStore([a, b])
    document = json.loads(store.raw_front("seeds").decode())
    merged, _ = store.union_front("seeds")
    assert document["dataset"] == "seeds"
    assert document["front"] == [point.as_dict() for point in merged]
    assert document["baseline"] == BASELINE  # shared baseline survives the merge


# -- fault-rate tags -----------------------------------------------------------------


def spec_with(search_extra=None, pipeline_extra=None):
    """A minimal campaign spec dict with optional fault-rate knobs."""
    search = {"algorithm": "ga", "name": "ga", "population_size": 4, "n_generations": 2}
    search.update(search_extra or {})
    spec = {"name": "t", "datasets": ["seeds"], "seeds": [0], "searches": [search]}
    if pipeline_extra:
        spec["pipeline"] = pipeline_extra
    return spec


def test_fault_rate_search_level_wins_over_pipeline(tmp_path):
    campaign = make_campaign(
        tmp_path,
        "camp",
        {"seeds": [robust_row(0.9, 2.0)]},
        spec=spec_with({"fault_rate": 0.05}, {"fault_rate": 0.2}),
    )
    assert FrontStore(campaign).views("seeds")[0].fault_rate == 0.05


def test_fault_rate_pipeline_fallback_and_absent(tmp_path):
    with_pipeline = make_campaign(
        tmp_path,
        "pipe",
        {"seeds": [robust_row(0.9, 2.0)]},
        spec=spec_with(None, {"fault_rate": 0.1}),
    )
    without = make_campaign(
        tmp_path, "none", {"seeds": [plain_row(0.8, 1.0)]}, spec=spec_with()
    )
    assert FrontStore(with_pipeline).views("seeds")[0].fault_rate == 0.1
    assert FrontStore(without).views("seeds")[0].fault_rate is None


def test_views_filter_by_fault_rate(tmp_path):
    a = make_campaign(
        tmp_path,
        "a",
        {"seeds": [robust_row(0.9, 2.0)]},
        spec=spec_with({"fault_rate": 0.05}),
    )
    b = make_campaign(
        tmp_path,
        "b",
        {"seeds": [robust_row(0.8, 1.0)]},
        spec=spec_with({"fault_rate": 0.1}),
    )
    store = FrontStore([a, b])
    assert [v.campaign for v in store.views("seeds")] == [a, b]
    assert [v.campaign for v in store.views("seeds", fault_rate=0.05)] == [a]
    assert store.views("seeds", fault_rate=0.3) == []
