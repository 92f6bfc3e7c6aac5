"""HTTP serving layer: routes, metrics, concurrency, on-miss enqueue.

The concurrency tests are the load-bearing ones: N threads hammer
``POST /query`` and ``GET /fronts/<ds>`` while the store is concurrently
``refresh()``-ed and its backing report rewritten — every response must
be a well-formed 200 matching one of the two valid document snapshots
(no torn responses, no 5xx). The miss-enqueue tests pin the dedupe
contract: however many threads miss the same dataset simultaneously,
exactly one fabric queue entry appears, in the coordinator's format.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.campaign.fabric.layout import FabricLayout
from repro.campaign.journal import REPORT_DIR, write_json_atomic
from repro.campaign.spec import CampaignSpec
from repro.serving import FrontStore, MissEnqueuer, ServingMetrics, start_server
from repro.serving.http import MAX_BODY_BYTES, ServingHandler

SPEC = {
    "name": "serving-test",
    "datasets": ["seeds"],
    "seeds": [0],
    "searches": [
        {"algorithm": "ga", "name": "ga", "population_size": 4, "n_generations": 2}
    ],
    "pipeline": {"fast": True},
}


def front_document(accuracies):
    return {
        "dataset": "seeds",
        "baseline": None,
        "front": [
            {
                "technique": "combined",
                "accuracy": accuracy,
                "area": round(1.0 + index, 1),
                "power": 1.0,
                "delay": 0.5,
                "parameters": {},
            }
            for index, accuracy in enumerate(sorted(accuracies, reverse=True))
        ],
        "combined_best_gain": 2.0,
    }


@pytest.fixture
def campaign(tmp_path):
    campaign = tmp_path / "camp"
    (campaign / REPORT_DIR).mkdir(parents=True)
    write_json_atomic(
        campaign / REPORT_DIR / "front_seeds.json", front_document([0.9, 0.8])
    )
    write_json_atomic(campaign / "spec.json", SPEC)
    return campaign


@pytest.fixture
def server(campaign):
    store = FrontStore(campaign)
    server, _thread = start_server(store, enqueuer=MissEnqueuer(campaign))
    yield server
    server.shutdown()
    server.server_close()


def request(server, path, body=None):
    """``(status, decoded JSON or raw bytes)`` for one request."""
    url = server.url + path
    req = (
        urllib.request.Request(url)
        if body is None
        else urllib.request.Request(
            url, data=json.dumps(body).encode(), method="POST"
        )
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


# -- routes --------------------------------------------------------------------------


def test_healthz_reports_dataset_count(server):
    status, body = request(server, "/healthz")
    assert status == 200
    assert json.loads(body) == {"status": "ok", "datasets": 1}


def test_datasets_route_lists_sorted_names(server):
    status, body = request(server, "/datasets")
    assert status == 200
    assert json.loads(body) == {"datasets": ["seeds"], "count": 1}


def test_fronts_route_is_byte_identical_to_report_file(server, campaign):
    status, body = request(server, "/fronts/seeds")
    assert status == 200
    assert body == (campaign / REPORT_DIR / "front_seeds.json").read_bytes()


def test_query_route_filters_and_ranks(server):
    status, body = request(
        server, "/query", {"dataset": "seeds", "min_accuracy": 0.85}
    )
    assert status == 200
    document = json.loads(body)
    assert document["matched"] == 1
    assert document["points"][0]["accuracy"] == 0.9
    assert document["returned"] == 1


def test_query_route_rejects_invalid_body_with_400(server):
    assert request(server, "/query", {"dataset": "seeds", "bogus": 1})[0] == 400
    assert request(server, "/query", {"dataset": ""})[0] == 400


def test_query_route_rejects_malformed_json_with_400(server):
    req = urllib.request.Request(
        server.url + "/query", data=b"{not json", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(req, timeout=10)
    assert excinfo.value.code == 400


def test_unknown_routes_answer_404(server):
    assert request(server, "/nope")[0] == 404
    status, body = request(server, "/query/extra", {"dataset": "seeds"})
    assert status == 404


def test_metrics_counts_requests_and_latency(server):
    request(server, "/datasets")
    request(server, "/query", {"dataset": "seeds"})
    request(server, "/query", {"dataset": "seeds", "bogus": 1})
    status, body = request(server, "/metrics")
    assert status == 200
    metrics = json.loads(body)
    assert metrics["requests"]["GET /datasets"] == 1
    assert metrics["requests"]["POST /query"] == 2
    assert metrics["responses"]["2xx"] >= 2 and metrics["responses"]["4xx"] == 1
    latency = metrics["latency"]
    assert latency["count"] >= 3
    assert latency["p50_ms"] is not None and latency["p99_ms"] is not None
    assert latency["p50_ms"] <= latency["p99_ms"]
    assert sum(bucket["count"] for bucket in latency["buckets"]) == latency["count"]


# -- on-miss enqueue -----------------------------------------------------------------


def test_miss_answers_404_and_enqueues_exactly_one_job(server, campaign):
    status, body = request(server, "/query", {"dataset": "cardio"})
    assert status == 404
    assert json.loads(body)["enqueued_job"] == "cardio-ga-s0"
    layout = FabricLayout(campaign)
    entry = json.loads(layout.queue_entry("cardio-ga-s0").read_text())
    assert entry["job"]["job_id"] == "cardio-ga-s0"
    assert entry["job"]["dataset"] == "cardio"
    assert entry["requeues"] == 0
    assert entry["origin"] == "serving-miss"
    # The entry reuses the campaign's own search/pipeline template.
    spec = CampaignSpec.from_dict(SPEC)
    assert entry["job"]["search"] == dict(spec.searches[0].params)
    assert entry["job"]["pipeline"] == {"fast": True}


def test_repeated_misses_keep_a_single_queue_entry(server, campaign):
    for _ in range(4):
        request(server, "/fronts/cardio")
    queue = list(FabricLayout(campaign).queue_dir.glob("*.json"))
    assert [path.name for path in queue] == ["cardio-ga-s0.json"]


def test_distinct_misses_enqueue_one_entry_each(server, campaign):
    request(server, "/query", {"dataset": "cardio"})
    request(server, "/query", {"dataset": "redwine"})
    request(server, "/query", {"dataset": "cardio"})
    names = sorted(p.name for p in FabricLayout(campaign).queue_dir.glob("*.json"))
    assert names == ["cardio-ga-s0.json", "redwine-ga-s0.json"]


def test_concurrent_misses_dedupe_to_one_entry(server, campaign):
    barrier = threading.Barrier(8)
    errors = []

    def miss():
        barrier.wait()
        status, _ = request(server, "/query", {"dataset": "cardio"})
        if status != 404:
            errors.append(status)

    threads = [threading.Thread(target=miss) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    queue = list(FabricLayout(campaign).queue_dir.glob("*.json"))
    assert len(queue) == 1


def test_miss_without_enqueuer_answers_404_with_null_job(campaign):
    server, _thread = start_server(FrontStore(campaign))
    try:
        status, body = request(server, "/query", {"dataset": "cardio"})
        assert status == 404
        assert json.loads(body)["enqueued_job"] is None
        assert not FabricLayout(campaign).queue_dir.exists()
    finally:
        server.shutdown()
        server.server_close()


def test_miss_enqueuer_skips_unreadable_spec(tmp_path):
    campaign = tmp_path / "camp"
    (campaign / REPORT_DIR).mkdir(parents=True)
    write_json_atomic(
        campaign / REPORT_DIR / "front_seeds.json", front_document([0.9])
    )
    # No spec.json at all: the enqueuer cannot template a job.
    server, _thread = start_server(
        FrontStore(campaign), enqueuer=MissEnqueuer(campaign)
    )
    try:
        status, body = request(server, "/query", {"dataset": "cardio"})
        assert status == 404
        assert json.loads(body)["enqueued_job"] is None
        assert not FabricLayout(campaign).queue_dir.exists()
    finally:
        server.shutdown()
        server.server_close()


def test_enqueuer_respects_existing_queue_entry(campaign):
    """A coordinator-published entry is never overwritten by a miss."""
    layout = FabricLayout(campaign)
    layout.queue_dir.mkdir(parents=True)
    original = {"job": {"job_id": "cardio-ga-s0"}, "requeues": 1, "published": 1.0}
    write_json_atomic(layout.queue_entry("cardio-ga-s0"), original)
    enqueuer = MissEnqueuer(campaign)
    assert enqueuer.enqueue("cardio") == "cardio-ga-s0"
    assert json.loads(layout.queue_entry("cardio-ga-s0").read_text()) == original


def test_miss_enqueuer_refuses_unsafe_dataset_names(campaign, tmp_path):
    """Request-derived names never steer a write outside the queue dir."""
    enqueuer = MissEnqueuer(campaign)
    for evil in (
        "../../../../" + str(tmp_path / "evil").lstrip("/"),
        "..",
        ".hidden",
        "a/b",
        "",
    ):
        assert enqueuer.enqueue(evil) is None
    assert not FabricLayout(campaign).queue_dir.exists()
    assert not (tmp_path / "evil.json").exists()


def test_query_with_traversal_dataset_is_rejected_not_enqueued(server, campaign):
    status, body = request(server, "/query", {"dataset": "../../../../tmp/evil"})
    assert status == 400
    assert json.loads(body)["error"] == "invalid query"
    assert not FabricLayout(campaign).queue_dir.exists()


def test_fronts_route_traversal_misses_without_enqueue(server, campaign):
    """A raw traversal URL (no client normalization) 404s and enqueues nothing."""
    host, port = server.server_address[:2]
    target = "/fronts/../../../../tmp/evil"
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(
            f"GET {target} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n".encode()
        )
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    assert data.split(b" ", 2)[1] == b"404"
    assert json.loads(data.split(b"\r\n\r\n", 1)[1])["enqueued_job"] is None
    assert not FabricLayout(campaign).queue_dir.exists()


def test_handler_failure_mapping_keeps_framing_safe():
    """Client disconnects answer 499; late failures never inject a 500."""
    handler = ServingHandler.__new__(ServingHandler)
    # A reset mid-exchange is the client's doing: 499, drop the connection,
    # send nothing (a send would explode on this socketless handler).
    handler.close_connection = False
    handler._response_started = True
    assert handler._handle_failure(ConnectionResetError()) == 499
    assert handler.close_connection
    handler.close_connection = False
    assert handler._handle_failure(BrokenPipeError()) == 499
    assert handler.close_connection
    # An unexpected error after the response started must not write a
    # second status line into the keep-alive stream.
    handler.close_connection = False
    assert handler._handle_failure(ValueError("boom")) == 500
    assert handler.close_connection


def test_serve_foreground_loop_refreshes_and_stops_on_interrupt(
    campaign, monkeypatch, capsys
):
    """The ``repro serve`` loop refreshes periodically and shuts down cleanly."""
    from repro.serving import http as serving_http

    calls = {"sleep": 0, "refresh": 0}
    real_refresh = FrontStore.refresh

    def counting_refresh(self):
        calls["refresh"] += 1
        return real_refresh(self)

    def fake_sleep(seconds):
        assert seconds == 0.01
        calls["sleep"] += 1
        if calls["sleep"] >= 2:
            raise KeyboardInterrupt

    monkeypatch.setattr(FrontStore, "refresh", counting_refresh)
    monkeypatch.setattr(serving_http.time, "sleep", fake_sleep)
    serving_http.serve([campaign], port=0, refresh_seconds=0.01, enqueue_misses=True)
    out = capsys.readouterr().out
    assert "serving 1 dataset front(s) on http://127.0.0.1:" in out
    assert calls["refresh"] == 1  # one loop iteration before the interrupt


# -- concurrency under refresh -------------------------------------------------------


DOC_A = front_document([0.9, 0.8])
DOC_B = front_document([0.95, 0.7, 0.6])


def hammer(server, path, body, n_threads, per_thread, valid_bodies=None):
    """Fire concurrent requests; returns the list of protocol violations."""
    barrier = threading.Barrier(n_threads)
    violations = []

    def worker():
        barrier.wait()
        for _ in range(per_thread):
            status, payload = request(server, path, body)
            if status != 200:
                violations.append(("status", status, payload[:200]))
                continue
            if valid_bodies is not None and payload not in valid_bodies:
                violations.append(("torn", payload[:200]))
            elif valid_bodies is None:
                try:
                    json.loads(payload)
                except json.JSONDecodeError:
                    violations.append(("undecodable", payload[:200]))

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return violations


def test_concurrent_queries_during_refresh_see_no_errors(server, campaign):
    """N threads on /query during refresh(): no 5xx, no torn responses."""
    store = server.store
    stop = threading.Event()

    def refresher():
        flip = False
        while not stop.is_set():
            write_json_atomic(
                campaign / REPORT_DIR / "front_seeds.json", DOC_B if flip else DOC_A
            )
            flip = not flip
            store.refresh()

    refresh_thread = threading.Thread(target=refresher)
    refresh_thread.start()
    try:
        violations = hammer(
            server, "/query", {"dataset": "seeds", "min_accuracy": 0.5}, 6, 30
        )
    finally:
        stop.set()
        refresh_thread.join()
    assert violations == []


def test_concurrent_front_reads_serve_only_whole_documents(server, campaign):
    """GET /fronts under rewrite: every body is one of the two snapshots."""
    path = campaign / REPORT_DIR / "front_seeds.json"
    write_json_atomic(path, DOC_A)
    raw_a = path.read_bytes()
    write_json_atomic(path, DOC_B)
    raw_b = path.read_bytes()
    stop = threading.Event()

    def rewriter():
        flip = False
        while not stop.is_set():
            write_json_atomic(path, DOC_A if flip else DOC_B)
            flip = not flip

    rewrite_thread = threading.Thread(target=rewriter)
    rewrite_thread.start()
    try:
        violations = hammer(
            server, "/fronts/seeds", None, 6, 30, valid_bodies={raw_a, raw_b}
        )
    finally:
        stop.set()
        rewrite_thread.join()
    assert violations == []


def test_metrics_count_every_answered_request(server):
    """A reply the client has read is already counted by the next /metrics."""
    for answered in range(1, 201):
        assert request(server, "/query", {"dataset": "seeds"})[0] == 200
        metrics = json.loads(request(server, "/metrics")[1])
        assert metrics["requests"]["POST /query"] == answered
        assert metrics["requests"].get("GET /metrics", 0) == answered - 1


def test_refresh_during_traffic_keeps_metrics_consistent(server):
    hammer(server, "/query", {"dataset": "seeds"}, 4, 10)
    server.store.refresh()
    status, body = request(server, "/metrics")
    metrics = json.loads(body)
    assert metrics["requests"]["POST /query"] == 40
    assert metrics["responses"].get("5xx", 0) == 0


# -- request-body validation ---------------------------------------------------------


def raw_request(server, request_bytes):
    """Raw bytes on the wire → full raw response (reads until close)."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(request_bytes)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    return data


def test_post_with_non_numeric_content_length_answers_400(server):
    data = raw_request(
        server,
        b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: abc\r\n"
        b"Connection: close\r\n\r\n",
    )
    assert data.split(b" ", 2)[1] == b"400"
    assert json.loads(data.split(b"\r\n\r\n", 1)[1])["error"] == "invalid Content-Length"


def test_post_with_negative_content_length_answers_400(server):
    data = raw_request(
        server,
        b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: -5\r\n"
        b"Connection: close\r\n\r\n",
    )
    assert data.split(b" ", 2)[1] == b"400"
    assert json.loads(data.split(b"\r\n\r\n", 1)[1])["error"] == "invalid Content-Length"


def test_post_over_body_cap_answers_413_and_closes_connection(server):
    """An honest huge Content-Length is refused before any body byte is read.

    The server never sends the body, so the only safe continuation is to
    drop the connection — ``raw_request`` reading to EOF without a
    ``Connection: close`` request header proves the server closed it.
    """
    data = raw_request(
        server,
        f"POST /query HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode(),
    )
    assert data.split(b" ", 2)[1] == b"413"
    document = json.loads(data.split(b"\r\n\r\n", 1)[1])
    assert document == {
        "error": "request body too large",
        "limit_bytes": MAX_BODY_BYTES,
    }


def test_post_at_body_cap_is_still_served(server):
    body = json.dumps({"dataset": "seeds"}).encode()
    padded = body[:-1] + b" " * (MAX_BODY_BYTES - len(body)) + b"}"
    assert len(padded) == MAX_BODY_BYTES
    req = urllib.request.Request(server.url + "/query", data=padded, method="POST")
    with urllib.request.urlopen(req, timeout=10) as resp:
        assert resp.status == 200


# -- miss-enqueue dedupe before disk -------------------------------------------------


def test_enqueue_dedupes_before_touching_the_spec(campaign):
    """A hot 404 costs a dict lookup, not a spec.json read, after the first miss."""
    enqueuer = MissEnqueuer(campaign)
    assert enqueuer.enqueue("cardio") == "cardio-ga-s0"
    # If repeat misses re-read the spec, deleting it would flip the answer
    # to None; the dedupe map must win before any disk I/O.
    (campaign / "spec.json").unlink()
    assert enqueuer.enqueue("cardio") == "cardio-ga-s0"


def test_enqueue_reads_spec_once_per_dataset(campaign, monkeypatch):
    reads = {"count": 0}
    real = MissEnqueuer._job_for

    def counting(self, dataset):
        reads["count"] += 1
        return real(self, dataset)

    monkeypatch.setattr(MissEnqueuer, "_job_for", counting)
    enqueuer = MissEnqueuer(campaign)
    for _ in range(5):
        assert enqueuer.enqueue("cardio") == "cardio-ga-s0"
    assert reads["count"] == 1


# -- metrics overflow honesty --------------------------------------------------------


def test_percentile_overflow_bucket_reports_inf_not_a_cap():
    """A latency beyond the last bucket must not masquerade as 10 s."""
    metrics = ServingMetrics()
    metrics.observe("GET /x", 200, 60.0)
    latency = metrics.snapshot()["latency"]
    assert latency["p50_ms"] == "inf"
    assert latency["p99_ms"] == "inf"
    json.dumps(metrics.snapshot())  # the document must stay valid JSON


def test_percentile_mixed_traffic_keeps_finite_p50_with_overflow_p99():
    metrics = ServingMetrics()
    for _ in range(50):
        metrics.observe("GET /x", 200, 0.001)
    metrics.observe("GET /x", 200, 30.0)
    latency = metrics.snapshot()["latency"]
    assert latency["p50_ms"] == 1.0
    assert latency["p99_ms"] == "inf"


# -- URL decoding of the dataset segment ---------------------------------------------


def test_fronts_route_resolves_percent_encoded_safe_name(server, campaign):
    status, body = request(server, "/fronts/se%65ds")
    assert status == 200
    assert body == (campaign / REPORT_DIR / "front_seeds.json").read_bytes()


def test_fronts_route_refuses_percent_encoded_traversal(server, campaign):
    """``%2e%2e%2f`` decodes to ``../`` — refused after decoding, not enqueued."""
    for evil in ("%2e%2e%2fsecret", "%2e%2e", "a%2fb"):
        status, body = request(server, f"/fronts/{evil}")
        assert status == 404
        assert json.loads(body)["enqueued_job"] is None
    assert not FabricLayout(campaign).queue_dir.exists()


# -- conditional requests ------------------------------------------------------------


def headed_request(server, path, body=None, headers=None):
    """``(status, body, response ETag)`` with request-header control."""
    url = server.url + path
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        url, data=data, headers=dict(headers or {}), method="GET" if body is None else "POST"
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, resp.read(), resp.headers.get("ETag")
    except urllib.error.HTTPError as error:
        return error.code, error.read(), error.headers.get("ETag")


def test_fronts_route_carries_etag_and_answers_304_on_match(server):
    status, body, etag = headed_request(server, "/fronts/seeds")
    assert status == 200 and etag is not None
    assert etag.startswith('"') and etag.endswith('"')
    status, body, etag_again = headed_request(
        server, "/fronts/seeds", headers={"If-None-Match": etag}
    )
    assert status == 304
    assert body == b""
    assert etag_again == etag


def test_etag_matches_weak_validators_lists_and_wildcard(server):
    _, _, etag = headed_request(server, "/fronts/seeds")
    for header in (f"W/{etag}", f'"miss", {etag}', "*"):
        status, body, _ = headed_request(
            server, "/fronts/seeds", headers={"If-None-Match": header}
        )
        assert status == 304, header
        assert body == b""


def test_etag_changes_when_the_front_document_changes(server, campaign):
    _, _, etag = headed_request(server, "/fronts/seeds")
    write_json_atomic(campaign / REPORT_DIR / "front_seeds.json", DOC_B)
    server.store.refresh()
    status, body, new_etag = headed_request(
        server, "/fronts/seeds", headers={"If-None-Match": etag}
    )
    assert status == 200 and body != b""
    assert new_etag != etag


def test_query_route_carries_etag_and_answers_304_on_match(server):
    status, body, etag = headed_request(server, "/query", body={"dataset": "seeds"})
    assert status == 200 and etag is not None
    status, body, _ = headed_request(
        server, "/query", body={"dataset": "seeds"}, headers={"If-None-Match": etag}
    )
    assert status == 304
    assert body == b""


def test_fronts_and_query_etags_agree_for_one_campaign(server):
    _, _, front_etag = headed_request(server, "/fronts/seeds")
    _, _, query_etag = headed_request(server, "/query", body={"dataset": "seeds"})
    assert front_etag == query_etag


# -- pagination ----------------------------------------------------------------------


def test_fronts_route_pagination_windows_rows(server, campaign):
    full = json.loads((campaign / REPORT_DIR / "front_seeds.json").read_bytes())
    status, body = request(server, "/fronts/seeds?offset=1&limit=1")
    assert status == 200
    document = json.loads(body)
    assert document == {
        "dataset": "seeds",
        "baseline": full["baseline"],
        "total_points": len(full["front"]),
        "offset": 1,
        "limit": 1,
        "front": full["front"][1:2],
    }


def test_fronts_route_offset_only_and_limit_only(server, campaign):
    full = json.loads((campaign / REPORT_DIR / "front_seeds.json").read_bytes())
    status, body = request(server, "/fronts/seeds?offset=1")
    assert status == 200
    assert json.loads(body)["front"] == full["front"][1:]
    status, body = request(server, "/fronts/seeds?limit=1")
    assert status == 200
    assert json.loads(body)["front"] == full["front"][:1]


def test_fronts_route_offset_past_the_end_returns_empty_page(server):
    status, body = request(server, "/fronts/seeds?offset=99")
    assert status == 200
    document = json.loads(body)
    assert document["front"] == [] and document["total_points"] == 2


def test_fronts_route_rejects_invalid_pagination(server):
    for query_string in ("offset=-1", "limit=0", "offset=abc", "page=2", "limit="):
        status, body = request(server, f"/fronts/seeds?{query_string}")
        assert status == 400, query_string
        assert json.loads(body)["error"] == "invalid pagination"


def test_query_route_offset_and_limit_window_ranked_points(server):
    _, body = request(server, "/query", {"dataset": "seeds", "include_dominated": True})
    full = json.loads(body)
    assert full["returned"] == 2
    _, body = request(
        server,
        "/query",
        {"dataset": "seeds", "include_dominated": True, "offset": 1, "limit": 1},
    )
    page = json.loads(body)
    assert page["points"] == full["points"][1:2]
    assert page["returned"] == 1
    # matched counts constraint survivors, not the window.
    assert page["matched"] == full["matched"]
    assert page["query"]["offset"] == 1 and page["query"]["limit"] == 1


def test_query_route_window_applies_after_top_k(server):
    _, body = request(server, "/query", {"dataset": "seeds"})
    full = json.loads(body)
    _, body = request(
        server, "/query", {"dataset": "seeds", "top_k": 1, "offset": 1}
    )
    page = json.loads(body)
    assert page["points"] == []  # top_k=1 leaves nothing past offset 1
    assert page["matched"] == full["matched"]
