"""Columnar npz fronts: round-trip, fallback safety, and npz/json parity.

The load-bearing property: a store serving an mmap-backed
``front_<dataset>.npz`` answers every query with the byte-identical JSON
body a plain-JSON store produces. Everything else protects the fallback —
a torn, truncated, stale or foreign npz must never poison serving, only
degrade it to the canonical JSON path.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import mmap
import os
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from repro.campaign.columnar import (
    COLUMNAR_VERSION,
    FRONT_COLUMNS,
    front_npz_path,
    load_front_npz,
    write_front_npz,
)
from repro.campaign.journal import REPORT_DIR, write_json_atomic
from repro.campaign.report import write_report
from repro.core.pareto import pareto_front, pareto_front_indices, pareto_front_reference
from repro.core.results import DesignPoint
from repro.serving import FrontStore, QueryEngine
from repro.serving.store import StaleViewError
from strategies import front_documents, front_query_payloads

DOC = {
    "dataset": "seeds",
    "baseline": {
        "technique": "baseline",
        "accuracy": 0.95,
        "area": 4.0,
        "power": 2.0,
        "delay": 1.0,
        "parameters": {},
    },
    "front": [
        {
            "technique": "combined",
            "accuracy": 0.9,
            "area": 1.0,
            "power": 1.0,
            "delay": 0.5,
            "parameters": {"weight_bits": 4},
        },
        {
            "technique": "pruning",
            "accuracy": 0.8,
            "area": 0.5,
            "power": 0.8,
            "delay": 0.5,
            "parameters": {},
        },
        {
            "technique": "quantization",
            "accuracy": 0.7,
            "area": 2.0,
            "power": 1.5,
            "delay": 0.75,
            "parameters": {"weight_bits": 2},
        },
    ],
    "combined_best_gain": 4.0,
}


def write_campaign(root, document, with_npz=True, name="camp"):
    """One campaign directory holding the document's front (and npz)."""
    campaign = Path(root) / name
    (campaign / REPORT_DIR).mkdir(parents=True)
    json_path = campaign / REPORT_DIR / f"front_{document['dataset']}.json"
    write_json_atomic(json_path, document)
    if with_npz:
        write_front_npz(json_path, fingerprint="test-fingerprint")
    return campaign, json_path


@pytest.fixture
def campaign(tmp_path):
    return write_campaign(tmp_path, DOC)


# -- write/load round trip -----------------------------------------------------------


def test_npz_round_trips_every_column_and_row(campaign):
    campaign_dir, json_path = campaign
    columnar = load_front_npz(front_npz_path(json_path))
    assert columnar is not None
    assert columnar.version == COLUMNAR_VERSION
    assert columnar.dataset == "seeds"
    assert columnar.fingerprint == "test-fingerprint"
    assert columnar.n_rows == len(DOC["front"])
    points = [DesignPoint(**entry) for entry in DOC["front"]]
    for name in FRONT_COLUMNS:
        expected = [
            np.nan if getattr(p, name) is None else getattr(p, name) for p in points
        ]
        np.testing.assert_array_equal(columnar.columns[name], expected)
    for row, point in enumerate(points):
        assert columnar.point(row) == point
    assert list(columnar.pareto_index) == pareto_front_indices(points)


def test_plain_np_load_reads_exactly_the_four_members(campaign):
    _, json_path = campaign
    with np.load(front_npz_path(json_path), allow_pickle=False) as npz:
        assert sorted(npz.files) == ["columns", "meta", "pareto_index", "rows"]
        meta = json.loads(npz["meta"][()])
        columns = npz["columns"]
    assert meta == {
        "version": COLUMNAR_VERSION,
        "dataset": "seeds",
        "fingerprint": "test-fingerprint",
        "front_sha256": hashlib.sha256(json_path.read_bytes()).hexdigest(),
        "robust": False,
        "baseline": DOC["baseline"],
    }
    assert columns.dtype == np.float64 and columns.flags.c_contiguous
    assert columns.shape == (len(FRONT_COLUMNS), len(DOC["front"]))


def test_npz_arrays_are_read_only_zero_copy_views(campaign):
    _, json_path = campaign
    columnar = load_front_npz(front_npz_path(json_path))
    for array in (*columnar.columns.values(), columnar.pareto_index):
        assert not array.flags.writeable
        assert array.base is not None  # a view over the shared mapping
        with pytest.raises(ValueError):
            array[...] = 0


def test_npz_sha_ties_to_the_exact_json_bytes(campaign):
    _, json_path = campaign
    sha = hashlib.sha256(json_path.read_bytes()).hexdigest()
    assert load_front_npz(front_npz_path(json_path), expected_sha256=sha) is not None
    assert load_front_npz(front_npz_path(json_path), expected_sha256="0" * 64) is None


def test_write_front_npz_refuses_a_non_front_document(tmp_path):
    path = tmp_path / "front_x.json"
    path.write_text(json.dumps({"not": "a front"}))
    with pytest.raises(ValueError):
        write_front_npz(path)


def test_npz_round_trips_an_empty_front(tmp_path):
    document = dict(DOC, front=[])
    _, json_path = write_campaign(tmp_path, document)
    columnar = load_front_npz(front_npz_path(json_path))
    assert columnar is not None
    assert columnar.n_rows == 0
    assert columnar.pareto_index.size == 0


# -- fallback safety -----------------------------------------------------------------


def test_damaged_npz_loads_as_none_never_raises(tmp_path):
    _, json_path = write_campaign(tmp_path, DOC)
    npz_path = front_npz_path(json_path)
    raw = npz_path.read_bytes()
    damage = {
        "truncated": raw[: len(raw) // 2],
        "garbage": b"\x00" * 128,
        "empty": b"",
        "not-a-zip": b"PK\x03\x04" + b"junk" * 8,
    }
    for label, payload in damage.items():
        npz_path.write_bytes(payload)
        assert load_front_npz(npz_path) is None, label


def test_missing_npz_loads_as_none(tmp_path):
    assert load_front_npz(tmp_path / "nope.npz") is None


def read_members(npz_path):
    """Every member of an npz, with ``meta`` decoded."""
    with np.load(npz_path, allow_pickle=False) as npz:
        members = dict(npz)
    members["meta"] = json.loads(members["meta"][()])
    return members


def save_members(npz_path, members):
    """Write ``members`` back, ``meta`` re-encoded as the writer does."""
    members = dict(members, meta=np.bytes_(json.dumps(members["meta"]).encode("ascii")))
    np.savez(npz_path, **members)


def test_foreign_version_npz_loads_as_none(tmp_path):
    _, json_path = write_campaign(tmp_path, DOC)
    npz_path = front_npz_path(json_path)
    members = read_members(npz_path)
    save_members(npz_path, members)
    assert load_front_npz(npz_path) is not None  # the rewrite alone is harmless
    members["meta"]["version"] = COLUMNAR_VERSION + 1
    save_members(npz_path, members)
    assert load_front_npz(npz_path) is None


@pytest.mark.parametrize("member", ["meta", "columns", "rows", "pareto_index"])
def test_npz_missing_a_member_loads_as_none(tmp_path, member):
    _, json_path = write_campaign(tmp_path, DOC)
    npz_path = front_npz_path(json_path)
    with np.load(npz_path, allow_pickle=False) as npz:
        members = dict(npz)
    del members[member]
    np.savez(npz_path, **members)
    assert load_front_npz(npz_path) is None


def test_npz_with_an_extra_member_loads_as_none(tmp_path):
    _, json_path = write_campaign(tmp_path, DOC)
    npz_path = front_npz_path(json_path)
    with np.load(npz_path, allow_pickle=False) as npz:
        members = dict(npz)
    np.savez(npz_path, **members, row_index=np.arange(len(DOC["front"])))
    assert load_front_npz(npz_path) is None


def test_npz_with_a_misshapen_member_loads_as_none(tmp_path):
    _, json_path = write_campaign(tmp_path, DOC)
    npz_path = front_npz_path(json_path)
    members = read_members(npz_path)
    bad = {
        "columns-transposed": dict(members, columns=np.ascontiguousarray(members["columns"].T)),
        "columns-float32": dict(members, columns=members["columns"].astype(np.float32)),
        "rows-short": dict(members, rows=members["rows"][:-1]),
        "pareto-out-of-range": dict(members, pareto_index=np.array([0, 3], dtype=np.int64)),
        "meta-not-a-dict": dict(members, meta=[COLUMNAR_VERSION]),
    }
    for label, damaged in bad.items():
        save_members(npz_path, damaged)
        assert load_front_npz(npz_path) is None, label


def test_store_falls_back_to_json_when_npz_is_torn(tmp_path):
    campaign_dir, json_path = write_campaign(tmp_path, DOC)
    front_npz_path(json_path).write_bytes(b"\x00" * 64)
    store = FrontStore(campaign_dir)
    view = store.view(campaign_dir, "seeds")
    assert view.source == "json"
    assert store.raw_front("seeds") == json_path.read_bytes()
    assert store.stats()["npz_loads"] == 0
    assert store.stats()["json_loads"] == 1


def test_store_falls_back_to_json_when_npz_is_stale(tmp_path):
    """A JSON rewrite without an npz rewrite must serve the new JSON."""
    campaign_dir, json_path = write_campaign(tmp_path, DOC)
    newer = dict(DOC, front=DOC["front"][:1])
    write_json_atomic(json_path, newer)  # npz now carries the old sha
    store = FrontStore(campaign_dir)
    view = store.view(campaign_dir, "seeds")
    assert view.source == "json"
    assert json.loads(store.raw_front("seeds"))["front"] == newer["front"]
    # Re-deriving the npz restores the fast path on the next cold load
    # (npz presence is not an invalidation token — the JSON file is).
    write_front_npz(json_path)
    assert FrontStore(campaign_dir).view(campaign_dir, "seeds").source == "npz"


def test_store_prefers_npz_and_counts_the_load(tmp_path):
    campaign_dir, json_path = write_campaign(tmp_path, DOC)
    store = FrontStore(campaign_dir)
    view = store.view(campaign_dir, "seeds")
    assert view.source == "npz"
    assert store.stats()["npz_loads"] == 1
    assert store.stats()["json_loads"] == 0
    # Served bytes stay the canonical JSON artifact, byte for byte.
    assert store.raw_front("seeds") == json_path.read_bytes()


# -- npz/json parity (golden A/B) ----------------------------------------------------


def query_documents(engine, payloads):
    """Each payload's full JSON response body (sorted keys) via ``engine``."""
    return [
        json.dumps(engine.run(payload).as_dict(), sort_keys=True)
        for payload in payloads
    ]


GOLDEN_PAYLOADS = (
    {"dataset": "seeds"},
    {"dataset": "seeds", "include_dominated": True},
    {"dataset": "seeds", "min_accuracy": 0.75, "order_by": "power"},
    {"dataset": "seeds", "max_area": 1.5, "descending": True, "order_by": "accuracy"},
    {"dataset": "seeds", "top_k": 2, "include_dominated": True},
    {"dataset": "seeds", "nearest": {"accuracy": 0.85, "area": 0.75}},
    {"dataset": "seeds", "include_dominated": True, "offset": 1, "limit": 1},
)


def write_report_campaign(root, document, name):
    """One campaign whose front the report writer wrote: ``document``'s Pareto front."""
    points = [DesignPoint(**entry) for entry in document["front"]]
    front = [point.as_dict() for point in pareto_front(points)]
    campaign = Path(root) / name
    write_report(campaign, {
        "name": name, "fingerprint": "test-fingerprint", "n_jobs_total": 1,
        "n_jobs_completed": 1,
        "datasets": {document["dataset"]: {
            "jobs": [], "combined_front": front, "combined_front_size": len(front),
            "baseline": document["baseline"], "combined_best_gain": None,
        }},
    })
    return campaign, campaign / REPORT_DIR / f"front_{document['dataset']}.json"


@pytest.mark.parametrize("written_by", ["hand", "report"])
def test_npz_and_json_stores_answer_golden_queries_identically(tmp_path, written_by):
    """Both ``pareto_columns`` branches: DOC has a dominated row, a report front none."""
    write = write_campaign if written_by == "hand" else write_report_campaign
    npz_campaign, _ = write(tmp_path, DOC, name="with-npz")
    json_campaign, json_path = write(tmp_path, DOC, name="json-only")
    front_npz_path(json_path).unlink(missing_ok=True)
    npz_engine = QueryEngine(FrontStore(npz_campaign))
    json_engine = QueryEngine(FrontStore(json_campaign))
    assert query_documents(npz_engine, GOLDEN_PAYLOADS) == query_documents(
        json_engine, GOLDEN_PAYLOADS
    )
    # Both actually took the path under test.
    assert npz_engine.store.stats()["npz_loads"] >= 1
    assert json_engine.store.stats()["json_loads"] >= 1
    for engine in (npz_engine, json_engine):
        view = engine.store.view(engine.store.campaigns[0], "seeds")
        assert (view.pareto_columns is view.columns) == (written_by == "report")


@settings(max_examples=40, deadline=None)
@given(document=front_documents(), payload=front_query_payloads())
def test_query_over_npz_view_equals_query_over_json_view(document, payload):
    with tempfile.TemporaryDirectory() as root:
        npz_campaign, _ = write_campaign(root, document, name="with-npz")
        json_campaign, _ = write_campaign(
            root, document, with_npz=False, name="json-only"
        )
        npz_store = FrontStore(npz_campaign)
        json_store = FrontStore(json_campaign)
        npz_result = QueryEngine(npz_store).run(payload)
        json_result = QueryEngine(json_store).run(payload)
        assert json.dumps(npz_result.as_dict(), sort_keys=True) == json.dumps(
            json_result.as_dict(), sort_keys=True
        )
        assert npz_store.view(npz_campaign, document["dataset"]).source == "npz"
        assert json_store.view(json_campaign, document["dataset"]).source == "json"


@settings(max_examples=40, deadline=None)
@given(document=front_documents(min_points=1))
def test_vectorized_pareto_indices_match_the_reference_loop(document):
    points = [DesignPoint(**entry) for entry in document["front"]]
    robust = all(p.robust_accuracy is not None for p in points)
    indexed = [points[i] for i in pareto_front_indices(points, robust=robust)]
    assert indexed == pareto_front_reference(points, robust=robust)
    assert pareto_front(points, robust=robust) == indexed


# -- cold misses of unchanged fronts -------------------------------------------------

OTHER = dict(DOC, dataset="cardio", front=DOC["front"][:2])


def write_two_fronts(root):
    """One campaign serving DOC (``seeds``) and OTHER (``cardio``), each with its npz."""
    campaign, seeds_json = write_campaign(root, DOC)
    cardio_json = campaign / REPORT_DIR / "front_cardio.json"
    write_json_atomic(cardio_json, OTHER)
    write_front_npz(cardio_json, fingerprint="test-fingerprint")
    return campaign, {"seeds": seeds_json, "cardio": cardio_json}


def answers(store, dataset):
    """Every golden query's response body and the whole page, for ``dataset``."""
    payloads = [dict(payload, dataset=dataset) for payload in GOLDEN_PAYLOADS]
    page = json.dumps(store.page(dataset, 0, None), sort_keys=True)
    return query_documents(QueryEngine(store), payloads), page


def count_loads(monkeypatch):
    """Count SHA-256 hashes, zip directory reads and npy header parses from now on."""
    counts = {"sha256": 0, "zip": 0, "npy_header": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(hashlib, "sha256", counting("sha256", hashlib.sha256))
    monkeypatch.setattr(zipfile, "ZipFile", counting("zip", zipfile.ZipFile))
    header = np.lib.format.read_array_header_1_0
    monkeypatch.setattr(np.lib.format, "read_array_header_1_0", counting("npy_header", header))
    return counts


def replace_file(path, payload):
    """Replace ``path`` atomically (a new inode), as the report writer does."""
    temporary = path.with_name(path.name + ".tmp")
    temporary.write_bytes(payload)
    os.replace(temporary, path)


def test_an_unchanged_npz_maps_from_its_layout_without_reading_the_zip(campaign, monkeypatch):
    _, json_path = campaign
    npz_path = front_npz_path(json_path)
    first = load_front_npz(npz_path)
    counts = count_loads(monkeypatch)
    again = load_front_npz(npz_path, layout=first.layout)
    assert (counts["zip"], counts["npy_header"]) == (0, 0)
    assert again.layout == first.layout
    for name in FRONT_COLUMNS:
        np.testing.assert_array_equal(again.columns[name], first.columns[name])
    assert list(again.rows) == list(first.rows)
    assert list(again.pareto_index) == list(first.pareto_index)
    replace_file(npz_path, npz_path.read_bytes())  # same bytes, another inode
    assert load_front_npz(npz_path, layout=first.layout) is not None
    assert (counts["zip"], counts["npy_header"]) == (1, 4)


def test_alternating_cold_misses_hash_and_parse_each_front_once(tmp_path, monkeypatch):
    campaign, _ = write_two_fronts(tmp_path)
    fresh = FrontStore(campaign)
    expected = {dataset: answers(fresh, dataset) for dataset in ("seeds", "cardio")}
    fronts = {dataset: fresh.front(dataset) for dataset in ("seeds", "cardio")}
    counts = count_loads(monkeypatch)
    store = FrontStore(campaign, max_entries=1)
    for _ in range(3):
        for dataset in ("seeds", "cardio"):
            assert answers(store, dataset) == expected[dataset]
    stats = store.stats()
    assert (stats["misses"], stats["npz_loads"], stats["json_loads"]) == (6, 6, 0)
    # One read and hash of each JSON, one zip directory and four npy headers per npz.
    assert counts == {"sha256": 2, "zip": 2, "npy_header": 8}
    # The bytes are read, and checked against the fingerprint, on first use.
    for dataset in ("seeds", "cardio"):
        assert store.front(dataset) == fronts[dataset]
    assert counts == {"sha256": 4, "zip": 2, "npy_header": 8}


def test_same_size_rewrite_of_an_evicted_front_is_hashed_again(tmp_path, monkeypatch):
    campaign, paths = write_two_fronts(tmp_path)
    store = FrontStore(campaign, max_entries=1)
    store.page("seeds", 0, None)
    store.page("cardio", 0, None)  # evicts seeds; its memo stays
    path = paths["seeds"]
    before = path.stat()
    newer = copy.deepcopy(DOC)
    newer["front"][0]["accuracy"] = 0.6  # as long as the 0.9 it replaces
    write_json_atomic(path, newer)  # the npz still carries the old sha
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert after.st_ino != before.st_ino
    counts = count_loads(monkeypatch)
    (_baseline, _total, rows), fingerprint = store.page("seeds", 0, None)
    assert counts["sha256"] == 1
    assert rows == newer["front"]
    raw, etag = store.front("seeds")
    assert raw == path.read_bytes()
    assert etag == fingerprint == hashlib.sha256(raw).hexdigest()


@pytest.mark.parametrize("rewrite", ["atomic", "in-place-same-stat"])
def test_front_replaced_after_a_memo_load_serves_the_new_bytes(tmp_path, monkeypatch, rewrite):
    campaign, paths = write_two_fronts(tmp_path)
    path = paths["seeds"]
    store = FrontStore(campaign, max_entries=1)
    old_raw, _ = store.front("seeds")  # read and hashed: the memo holds its fingerprint
    store.page("cardio", 0, None)  # evicts seeds
    newer = copy.deepcopy(DOC)
    newer["front"][0]["accuracy"] = 0.6
    new_raw = json.dumps(newer, indent=2, sort_keys=True).encode() + b"\n"
    assert len(new_raw) == len(old_raw) and new_raw != old_raw

    def replace():
        if rewrite == "atomic":
            replace_file(path, new_raw)
            return
        # Same size, inode and mtime: only the bytes' SHA-256 tells.
        before = path.stat()
        with open(path, "r+b") as handle:
            handle.write(new_raw)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
            before.st_ino, before.st_size, before.st_mtime_ns
        )

    view = store.view(campaign, "seeds")  # loaded from the memo, bytes not read
    replace()
    with pytest.raises(StaleViewError):
        view.raw
    replace_file(path, old_raw)
    store.page("seeds", 0, None)  # read and hashed again: a fresh memo
    store.page("cardio", 0, None)  # evicts seeds
    real_views = store.views
    replaced = []

    def views_then_replace(dataset, fault_rate=None):
        views = real_views(dataset, fault_rate)
        if not replaced:
            replace()
            replaced.append(dataset)
        return views

    monkeypatch.setattr(store, "views", views_then_replace)
    raw, fingerprint = store.front("seeds")
    assert replaced == ["seeds"]
    assert raw == new_raw
    assert fingerprint == hashlib.sha256(new_raw).hexdigest()


def test_replaced_npz_of_an_unchanged_front_falls_back_to_json(tmp_path):
    campaign, paths = write_two_fronts(tmp_path)
    fresh = FrontStore(campaign)
    expected = answers(fresh, "seeds"), fresh.front("seeds")
    store = FrontStore(campaign, max_entries=1)
    assert (answers(store, "seeds"), store.front("seeds")) == expected
    npz_path = front_npz_path(paths["seeds"])
    foreign = front_npz_path(paths["cardio"]).read_bytes()  # a valid npz of other JSON
    for replacement in (b"\x00" * 64, foreign):
        store.page("cardio", 0, None)  # evicts seeds; its memo stays
        replace_file(npz_path, replacement)
        json_loads = store.stats()["json_loads"]
        assert (answers(store, "seeds"), store.front("seeds")) == expected
        assert store.view(campaign, "seeds").source == "json"
        assert store.stats()["json_loads"] == json_loads + 1


def test_the_memo_holds_no_array_and_no_mapping(tmp_path):
    campaign, _ = write_two_fronts(tmp_path)
    store = FrontStore(campaign, max_entries=1)
    for dataset in ("seeds", "cardio"):
        store.page(dataset, 0, None)

    def values(value):
        yield value
        if dataclasses.is_dataclass(value):
            for field in dataclasses.fields(value):
                yield from values(getattr(value, field.name))
        elif isinstance(value, (tuple, list, dict)):
            for item in value.items() if isinstance(value, dict) else value:
                yield from values(item)

    held = [value for record in store._memo.values() for value in values(record)]
    assert len(store._memo) == 2
    assert any(isinstance(value, np.dtype) for value in held)  # the npz layout is kept
    assert not any(isinstance(value, (np.ndarray, mmap.mmap)) for value in held)
