"""Paginated ``GET /fronts/<ds>`` bytes, and npz rows as design points.

A page is built from the view's own data — an npz view decodes only the
rows in the window, a JSON view slices its decoded document, a union
decodes its merged document. Whatever the store, the response must be
byte-identical to decoding the whole served document and slicing it,
which is what :func:`decode_and_slice` does.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.columnar import (
    FRONT_COLUMNS,
    build_columns,
    front_npz_path,
    load_front_npz,
    write_front_npz,
)
from repro.campaign.journal import REPORT_DIR
from repro.core.pareto import pareto_front_indices
from repro.core.results import DesignPoint
from repro.serving import FrontStore, start_server
from strategies import front_documents

ROBUST = {"robust_accuracy": 0.85, "accuracy_std": 0.01}

#: Rows with and without the robustness fields, an integer-valued
#: accuracy, a float that prints with an exponent and a non-ASCII
#: parameter string (escaped by ``json.dumps``).
ROWS = [
    {"technique": "combined", "accuracy": 1, "area": 9.0, "power": 3.0, "delay": 1.5,
     "parameters": {"weight_bits": 8}},
    dict({"technique": "pruning", "accuracy": 0.9, "area": 4.0, "power": 2.0,
          "delay": 1.0, "parameters": {"sparsity": 0.5, "note": "résumé"}}, **ROBUST),
    {"technique": "quantization", "accuracy": 0.1 + 0.2, "area": 1e-07, "power": 0.0,
     "delay": 0.25, "parameters": {}},
    {"technique": "clustering", "accuracy": 0.7, "area": 2.5, "power": 1.0, "delay": 0.5,
     "parameters": {"clusters": 4, "nested": {"b": [1, 2.0], "a": None}}},
    {"technique": "combined", "accuracy": 0.95, "area": 5.0, "power": 2.5, "delay": 1.0,
     "parameters": {"weight_bits": 4}},
]
BASELINE = {"technique": "baseline", "accuracy": 1, "area": 10.0, "power": 5.0,
            "delay": 2.0, "parameters": {}}
N = len(ROWS)

WINDOWS = (
    "limit=2",  # no offset
    "offset=0&limit=2",
    "offset=2&limit=2",  # mid
    f"offset={N}&limit=2",  # == n
    f"offset={N + 3}&limit=2",  # > n
    "offset=2",  # no limit
    "offset=0",
    f"offset=1&limit={N + 5}",
)


def document(rows, dataset="seeds"):
    return {"dataset": dataset, "baseline": BASELINE, "front": rows,
            "combined_best_gain": 2.0}


def write_front(campaign, doc, npz=True):
    """Write the front without sorting keys, so row key order is pinned too."""
    json_path = campaign / REPORT_DIR / f"front_{doc['dataset']}.json"
    json_path.write_text(json.dumps(doc, indent=2) + "\n")
    if npz:
        write_front_npz(json_path, fingerprint="pages")
    return json_path


def write_old_npz(json_path, version):
    """A version-1 or version-2 npz, sha-tied to the JSON, as those releases wrote it.

    Both kept the stamps in scalar members and one array per column next to
    ``row_index``; version 1 stored ``technique``/``parameters_json``,
    version 2 each row's compact JSON (``rows``) and the ``baseline``.
    """
    raw = json_path.read_bytes()
    document = json.loads(raw)
    points = [DesignPoint(**entry) for entry in document["front"]]
    members = {
        "version": np.int64(version),
        "dataset": "seeds",
        "fingerprint": "",
        "front_sha256": hashlib.sha256(raw).hexdigest(),
        "row_index": np.arange(len(points), dtype=np.int64),
        "robust": np.bool_(False),
        "pareto_index": np.asarray(pareto_front_indices(points), dtype=np.int64),
    }
    if version == 1:
        members["technique"] = np.array([p.technique for p in points])
        members["parameters_json"] = np.array(
            [json.dumps(p.parameters, sort_keys=True) for p in points]
        )
    else:
        members["rows"] = np.array(
            [json.dumps(entry, separators=(",", ":")).encode("ascii")
             for entry in document["front"]]
        )
        members["baseline"] = json.dumps(document["baseline"])
    members.update(build_columns(points))
    with open(front_npz_path(json_path), "wb") as handle:
        np.savez(handle, **members)


def build_store(tmp_path, kind):
    """``(store, expected view source)`` for one store kind."""
    campaign = tmp_path / "camp"
    (campaign / REPORT_DIR).mkdir(parents=True)
    json_path = write_front(campaign, document(ROWS), npz=kind != "json")
    if kind == "torn":
        front_npz_path(json_path).write_bytes(b"PK\x03\x04torn")
    if kind in ("v1", "v2"):
        write_old_npz(json_path, version=int(kind[1]))
    if kind != "union":
        return FrontStore(campaign), "npz" if kind == "npz" else "json"
    other = tmp_path / "other"
    (other / REPORT_DIR).mkdir(parents=True)
    write_front(other, document([dict(row, area=row["area"] / 2) for row in ROWS[1:3]]))
    return FrontStore([campaign, other]), "npz"


def get(server, path):
    try:
        with urllib.request.urlopen(server.url + path, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def decode_and_slice(raw, dataset, query_string):
    """The page a handler gets by decoding the whole served document."""
    params = dict(pair.split("=") for pair in query_string.split("&"))
    offset = int(params["offset"]) if "offset" in params else None
    limit = int(params["limit"]) if "limit" in params else None
    full = json.loads(raw)
    start = offset or 0
    stop = None if limit is None else start + limit
    page = {"dataset": dataset, "baseline": full.get("baseline"),
            "total_points": len(full["front"]), "offset": start, "limit": limit,
            "front": full["front"][start:stop]}
    return (json.dumps(page) + "\n").encode("utf-8")


@pytest.mark.parametrize("kind", ["npz", "json", "torn", "v1", "v2", "union"])
def test_pages_match_decode_and_slice_bytes(tmp_path, kind):
    store, source = build_store(tmp_path, kind)
    server, _thread = start_server(store)
    try:
        status, raw = get(server, "/fronts/seeds")
        assert status == 200
        for query_string in WINDOWS:
            status, body = get(server, f"/fronts/seeds?{query_string}")
            assert status == 200, query_string
            assert body == decode_and_slice(raw, "seeds", query_string), query_string
        status, body = get(server, "/fronts/seeds?limit=0")
        assert status == 400
        assert json.loads(body)["error"] == "invalid pagination"
    finally:
        server.shutdown()
        server.server_close()
    for campaign in store.campaigns:
        assert store.view(campaign, "seeds").source == source
    assert store.stats()["json_loads"] == (0 if source == "npz" else 1)


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """One server over a campaign the property below adds fronts to."""
    campaign = tmp_path_factory.mktemp("generated")
    (campaign / REPORT_DIR).mkdir()
    store = FrontStore(campaign)
    server, _thread = start_server(store)
    yield campaign, store, server, itertools.count()
    server.shutdown()
    server.server_close()


@settings(max_examples=40, deadline=None)
@given(
    doc=front_documents(max_points=12),
    offset=st.none() | st.integers(0, 14),
    limit=st.none() | st.integers(1, 14),
)
def test_npz_pages_of_generated_fronts_match_decode_and_slice(generated, doc, offset, limit):
    campaign, store, server, names = generated
    dataset = f"ds{next(names)}"
    raw = write_front(campaign, dict(doc, dataset=dataset)).read_bytes()
    params = [f"{name}={value}" for name, value in (("offset", offset), ("limit", limit))
              if value is not None]
    query_string = "&".join(params) or "offset=0"
    loads = store.stats()["npz_loads"]
    status, body = get(server, f"/fronts/{dataset}?{query_string}")
    assert status == 200
    assert body == decode_and_slice(raw, dataset, query_string)
    assert store.stats()["npz_loads"] == loads + 1


def test_page_and_etag_come_from_one_snapshot(tmp_path):
    store, _ = build_store(tmp_path, "npz")
    (baseline, total, rows), fingerprint = store.page("seeds", 1, 3)
    raw, front_fingerprint = store.front("seeds")
    assert fingerprint == front_fingerprint
    assert (baseline, total, rows) == (BASELINE, N, json.loads(raw)["front"][1:3])


def test_npz_baseline_reads_the_stored_entry(tmp_path):
    store, _ = build_store(tmp_path, "npz")
    view = store.views("seeds")[0]
    assert view.baseline == BASELINE
    assert view._document is None  # answered without decoding the document


@pytest.mark.parametrize("version", [1, 2])
def test_old_version_npz_is_refused(tmp_path, version):
    campaign = tmp_path / "camp"
    (campaign / REPORT_DIR).mkdir(parents=True)
    json_path = write_front(campaign, document(ROWS), npz=False)
    write_old_npz(json_path, version)
    assert load_front_npz(front_npz_path(json_path)) is None


def test_npz_points_equal_the_json_entries(tmp_path):
    campaign = tmp_path / "camp"
    (campaign / REPORT_DIR).mkdir(parents=True)
    json_path = write_front(campaign, document(ROWS))
    columnar = load_front_npz(front_npz_path(json_path))
    for row, entry in enumerate(json.loads(json_path.read_bytes())["front"]):
        point = columnar.point(row)
        assert point == DesignPoint(**entry)
        assert json.dumps(point.as_dict()) == json.dumps(DesignPoint(**entry).as_dict())
    assert type(columnar.point(0).accuracy) is int  # ``1``, not ``1.0``
    assert columnar.point(0).robust_accuracy is None
    assert columnar.point(1).robust_accuracy == ROBUST["robust_accuracy"]
    for name in FRONT_COLUMNS:
        assert columnar.columns[name].shape == (N,)
