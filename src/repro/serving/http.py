"""Stdlib-only threaded HTTP API over a front store.

The service is deliberately tiny — ``http.server.ThreadingHTTPServer``
plus JSON, nothing outside the standard library — because the heavy
lifting lives in :mod:`repro.serving.store` (LRU-indexed fronts) and
:mod:`repro.serving.query` (columnar constraint/top-k engine). Routes:

====================  =========================================================
``GET /healthz``      liveness + indexed dataset count
``GET /datasets``     sorted dataset names served by the indexed campaigns
``GET /fronts/<ds>``  the dataset's front document (byte-identical to
                      ``report/front_<ds>.json`` for single-campaign
                      stores; ``?offset=&limit=`` pages the ``front`` rows)
``POST /query``       execute a :class:`~repro.serving.query.FrontQuery`
                      (JSON body), returning ranked matching points
``GET /metrics``      request counts, status classes, and a latency
                      histogram with p50/p99 estimates
====================  =========================================================

Conditional requests: ``GET /fronts/<ds>`` and ``POST /query`` responses
carry an ``ETag`` — the served front's fingerprint (see
:func:`~repro.serving.store.combine_fingerprints`) — and a request whose
``If-None-Match`` matches it answers ``304 Not Modified`` with no body.
The tag changes exactly when a contributing front document changes, so
pollers pay bytes only when there is something new. The dataset path
segment is URL-decoded before validation: percent-encoded safe names
resolve, anything unsafe *after* decoding is refused before any path
construction.

A query or front request for a dataset no campaign serves answers 404 —
and, when the server is built with a :class:`MissEnqueuer`, publishes a
campaign job covering the miss into the fabric queue (PR-7 format), so
production misses become future coverage. Enqueueing dedupes by job id:
one queue entry per distinct miss, no matter how many threads race on it.
With ``serve(..., refresh_reports=True)`` the periodic refresh also
rebuilds campaign reports that lag their completed jobs, which is what
closes the loop: miss → enqueue → ``repro campaign work`` drains →
refresh republishes → the front serves.

Every response carries ``Content-Length`` and the handlers speak
HTTP/1.1, so keep-alive clients (the benchmark, `curl` loops) reuse
connections on the hot path. Request bodies are capped at
:data:`MAX_BODY_BYTES` (413 beyond it; a malformed ``Content-Length``
answers 400, not a 500).
"""

from __future__ import annotations

import json
import math
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..campaign.fabric.layout import FabricLayout
from ..campaign.journal import write_json_atomic
from ..campaign.spec import CampaignSpec, JobSpec
from .query import QueryEngine, QueryValidationError
from .store import FrontStore, UnknownDatasetError, is_safe_dataset_name

#: Upper bound on accepted request-body sizes. Queries are a few hundred
#: bytes; anything approaching this is either a mistake or abuse, and is
#: refused (413) before a single body byte is read.
MAX_BODY_BYTES = 1 << 20

#: Latency histogram bucket upper bounds, in seconds (log-spaced,
#: 0.1 ms .. 10 s; the final implicit bucket is +inf).
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class ServingMetrics:
    """Thread-safe request counters and a latency histogram.

    The histogram uses fixed log-spaced buckets (:data:`LATENCY_BUCKETS`),
    so percentile estimates quantize to bucket upper bounds — the same
    trade-off Prometheus histograms make, and plenty for a p99 floor
    assertion in CI.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests: Dict[str, int] = {}
        self.statuses: Dict[str, int] = {}
        self._buckets = [0] * (len(LATENCY_BUCKETS) + 1)
        self._count = 0
        self._total_seconds = 0.0

    def observe(self, route: str, status: int, seconds: float) -> None:
        """Record one handled request."""
        status_class = f"{status // 100}xx"
        with self._lock:
            self.requests[route] = self.requests.get(route, 0) + 1
            self.statuses[status_class] = self.statuses.get(status_class, 0) + 1
            self._count += 1
            self._total_seconds += seconds
            for index, bound in enumerate(LATENCY_BUCKETS):
                if seconds <= bound:
                    self._buckets[index] += 1
                    break
            else:
                self._buckets[-1] += 1

    def _percentile(self, quantile: float) -> Optional[float]:
        """Latency upper bound (seconds) at ``quantile``, from the histogram.

        A quantile landing in the +inf overflow bucket returns ``inf`` —
        the histogram honestly has no finite upper bound for it (it used
        to report the last finite bound, silently capping a pathological
        p99 at 10 s).
        """
        if self._count == 0:
            return None
        threshold = quantile * self._count
        cumulative = 0
        for index, count in enumerate(self._buckets):
            cumulative += count
            if cumulative >= threshold:
                if index < len(LATENCY_BUCKETS):
                    return LATENCY_BUCKETS[index]
                return math.inf
        return math.inf

    def snapshot(self) -> Dict[str, object]:
        """The ``GET /metrics`` document."""
        with self._lock:
            buckets = [
                {"le": bound, "count": count}
                for bound, count in zip(LATENCY_BUCKETS, self._buckets)
            ]
            buckets.append({"le": "inf", "count": self._buckets[-1]})
            mean = self._total_seconds / self._count if self._count else None
            return {
                "requests": dict(sorted(self.requests.items())),
                "responses": dict(sorted(self.statuses.items())),
                "latency": {
                    "count": self._count,
                    "mean_ms": None if mean is None else round(mean * 1e3, 4),
                    "p50_ms": _to_ms(self._percentile(0.50)),
                    "p99_ms": _to_ms(self._percentile(0.99)),
                    "buckets": buckets,
                },
            }


def _etag_matches(header: Optional[str], etag: str) -> bool:
    """Whether an ``If-None-Match`` header value matches the current ETag.

    Handles the comma-separated list form, the ``*`` wildcard, and weak
    validators (``W/"..."`` compares by opaque tag, as RFC 9110 allows
    for ``If-None-Match``).
    """
    if not header:
        return False
    for candidate in header.split(","):
        candidate = candidate.strip()
        if candidate == "*" or candidate == etag:
            return True
        if candidate.startswith("W/") and candidate[2:] == etag:
            return True
    return False


def _parse_pagination(query_string: str) -> Tuple[Optional[int], Optional[int]]:
    """``(offset, limit)`` from a URL query string (``None`` = not given).

    Raises ``ValueError`` with a client-facing message for unknown
    parameters, non-integers, a negative offset or a non-positive limit.
    """
    if not query_string:
        return None, None
    params = urllib.parse.parse_qs(query_string, keep_blank_values=True)
    unknown = set(params) - {"offset", "limit"}
    if unknown:
        raise ValueError(f"unknown query parameters {sorted(unknown)}")

    def one(name: str, minimum: int) -> Optional[int]:
        values = params.get(name)
        if not values:
            return None
        try:
            value = int(values[-1])
        except ValueError:
            raise ValueError(f"{name} must be an integer, got {values[-1]!r}") from None
        if value < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")
        return value

    return one("offset", 0), one("limit", 1)


def _to_ms(seconds: Optional[float]) -> Union[float, str, None]:
    """Seconds → milliseconds (``None`` passes through; ``inf`` → ``"inf"``).

    The string spelling keeps the metrics document valid JSON — bare
    ``Infinity`` is not — while staying distinguishable from ``None``
    ("no observations yet") and matching the overflow bucket's ``"le"``.
    """
    if seconds is None:
        return None
    if math.isinf(seconds):
        return "inf"
    return round(seconds * 1e3, 4)


class MissEnqueuer:
    """Publish a campaign job covering a missed dataset into the fabric queue.

    Args:
        campaign: the campaign directory whose fabric queue receives the
            job (its ``spec.json`` supplies the search/seed/pipeline the
            job reuses — the first search and first seed of the grid).
        now_fn: clock used for the queue entry's ``published`` stamp
            (injectable for tests, like the fabric coordinator's).

    The published entry matches the coordinator's queue format
    (``{"job": ..., "requeues": 0, "published": ...}`` plus an ``origin``
    marker), so an elastic ``repro campaign work`` worker claims it like
    any coordinator-published job. Dedupe is by job id: a lock plus an
    existence check guarantee exactly one queue entry per distinct miss,
    however many request threads race on the same dataset.
    """

    def __init__(self, campaign: Union[str, Path], now_fn=time.time) -> None:
        self.campaign = Path(campaign)
        self.layout = FabricLayout(self.campaign)
        self.now_fn = now_fn
        self._lock = threading.Lock()
        self._enqueued: Dict[str, str] = {}

    def _job_for(self, dataset: str) -> Optional[JobSpec]:
        """A job spec covering ``dataset``, templated from the campaign spec."""
        try:
            data = json.loads((self.campaign / "spec.json").read_text())
            spec = CampaignSpec.from_dict(data)
        except (OSError, ValueError, TypeError, KeyError, json.JSONDecodeError):
            return None
        search = spec.searches[0]
        return JobSpec(
            job_id=f"{dataset}-{search.name}-s{spec.seeds[0]}",
            dataset=dataset,
            algorithm=search.algorithm,
            search_name=search.name,
            seed=spec.seeds[0],
            pipeline=spec.pipeline,
            search=search.params,
        )

    def enqueue(self, dataset: str) -> Optional[str]:
        """Publish one job for ``dataset``; returns its id (``None`` = skipped).

        Skips (returning the existing id) when this enqueuer already
        published the dataset's job, and skips silently when the queue
        entry already exists on disk (a coordinator or a sibling server
        got there first) or the campaign spec is unreadable.

        Dataset names come verbatim from request URLs/bodies and end up
        embedded in the queue entry's file name, so anything that is not
        a plain token (:func:`~repro.serving.store.is_safe_dataset_name`)
        is refused — no request-derived string may steer the write
        outside the fabric queue directory.

        The dedupe map is consulted *before* the job spec is built, so a
        hot 404 (many requests missing the same dataset) costs one dict
        lookup per request — not a ``spec.json`` read and parse.
        """
        if not is_safe_dataset_name(dataset):
            return None
        with self._lock:
            existing = self._enqueued.get(dataset)
        if existing is not None:
            return existing
        job = self._job_for(dataset)
        if job is None:
            return None
        with self._lock:
            if dataset in self._enqueued:
                return self._enqueued[dataset]
            entry_path = self.layout.queue_entry(job.job_id)
            if entry_path.resolve().parent != self.layout.queue_dir.resolve():
                return None
            if not entry_path.exists():
                write_json_atomic(
                    entry_path,
                    {
                        "job": job.as_dict(),
                        "requeues": 0,
                        "published": round(self.now_fn(), 3),
                        "origin": "serving-miss",
                    },
                )
            self._enqueued[dataset] = job.job_id
            return job.job_id


class ServingHandler(BaseHTTPRequestHandler):
    """Route one HTTP request against the server's store/engine/metrics."""

    protocol_version = "HTTP/1.1"
    # Small request/response pairs on keep-alive connections hit the
    # Nagle + delayed-ACK interaction (~40 ms per round trip) unless the
    # socket writes eagerly.
    disable_nagle_algorithm = True
    server: "FrontServer"

    # -- plumbing ----------------------------------------------------------------

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        """Silence the default stderr access log (metrics replace it)."""

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        """One complete response with ``Content-Length`` (keep-alive safe)."""
        self._observe(status)
        self._response_started = True
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self,
        status: int,
        document: Mapping[str, object],
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        """One JSON response."""
        self._send(status, (json.dumps(document) + "\n").encode("utf-8"), headers=headers)

    def _send_not_modified(self, etag: str) -> None:
        """``304 Not Modified``: the ETag, no body (Content-Length 0 keeps
        the keep-alive framing explicit)."""
        self._observe(304)
        self._response_started = True
        self.send_response(304)
        self.send_header("ETag", etag)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def _miss(self, dataset: str) -> None:
        """404 for an unserved dataset, enqueueing a covering job if configured."""
        enqueued: Optional[str] = None
        if self.server.enqueuer is not None:
            enqueued = self.server.enqueuer.enqueue(dataset)
        self._send_json(
            404,
            {
                "error": "unknown dataset",
                "dataset": dataset,
                "enqueued_job": enqueued,
            },
        )

    def _start(self, route: str) -> None:
        """Reset the per-request state (handlers serve many keep-alive requests)."""
        self._started = time.perf_counter()
        self._route = route
        self._response_started = False

    def _observe(self, status: int) -> None:
        """Record this request in the metrics.

        The send helpers call it before any response byte goes out, so a
        client that has read its reply finds the request already counted by
        ``GET /metrics``.
        """
        self.server.metrics.observe(self._route, status, time.perf_counter() - self._started)

    # -- routes ------------------------------------------------------------------

    def _handle_failure(self, error: Exception) -> int:
        """Answer (or abandon) a request that raised; returns the status.

        A :class:`ConnectionError` — reset or broken pipe — means the
        client is gone: there is nobody to answer, so record 499 and drop
        the connection. Any other error answers 500, but only when no
        response bytes have gone out yet; once headers are on the wire,
        injecting a second status line would corrupt the keep-alive
        framing, so the connection is closed instead.
        """
        if isinstance(error, ConnectionError):
            self.close_connection = True
            return 499
        if getattr(self, "_response_started", False):
            self.close_connection = True
            return 500
        try:
            self._send_json(500, {"error": type(error).__name__, "detail": str(error)})
        except ConnectionError:
            self.close_connection = True
            return 499
        return 500

    def _front_route(self, dataset: str, query_string: str) -> None:
        """``GET /fronts/<ds>``: ETag/304, optional pagination."""
        if not is_safe_dataset_name(dataset):
            # Refused after URL decoding, before any path construction;
            # _miss's enqueuer applies the same check and publishes nothing.
            self._miss(dataset)
            return
        try:
            offset, limit = _parse_pagination(query_string)
        except ValueError as error:
            self._send_json(400, {"error": "invalid pagination", "detail": str(error)})
            return
        paginated = offset is not None or limit is not None
        start = offset or 0
        try:
            if paginated:
                stop = None if limit is None else start + limit
                (baseline, total, rows), fingerprint = self.server.store.page(
                    dataset, start, stop
                )
            else:
                raw, fingerprint = self.server.store.front(dataset)
        except UnknownDatasetError:
            self._miss(dataset)
            return
        etag = f'"{fingerprint}"'
        if _etag_matches(self.headers.get("If-None-Match"), etag):
            self._send_not_modified(etag)
            return
        headers = {"ETag": etag}
        if not paginated:
            self._send(200, raw, headers=headers)
            return
        self._send_json(
            200,
            {
                "dataset": dataset,
                "baseline": baseline,
                "total_points": total,
                "offset": start,
                "limit": limit,
                "front": rows,
            },
            headers=headers,
        )

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Dispatch ``GET`` routes."""
        raw_path, _, query_string = self.path.partition("?")
        path = raw_path.rstrip("/") or "/"
        self._start(f"GET {path}")
        try:
            if path == "/healthz":
                self._send_json(
                    200, {"status": "ok", "datasets": len(self.server.store.datasets())}
                )
            elif path == "/datasets":
                names = self.server.store.datasets()
                self._send_json(200, {"datasets": names, "count": len(names)})
            elif path == "/metrics":
                self._send_json(200, self.server.metrics.snapshot())
            elif path.startswith("/fronts/"):
                self._route = "GET /fronts"
                dataset = urllib.parse.unquote(path[len("/fronts/") :])
                self._front_route(dataset, query_string)
            else:
                self._route = "GET other"
                self._send_json(404, {"error": "no such route", "path": path})
        except Exception as error:  # pragma: no cover - defensive catch-all
            status = self._handle_failure(error)
            if not self._response_started:  # the client left before any reply
                self._observe(status)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """Dispatch ``POST /query``."""
        path = self.path.split("?", 1)[0].rstrip("/")
        self._start("POST /query")
        try:
            if path != "/query":
                self._route = "POST other"
                self._send_json(404, {"error": "no such route", "path": path})
                return
            raw_length = self.headers.get("Content-Length")
            try:
                length = int(raw_length) if raw_length is not None else 0
            except ValueError:
                self._send_json(
                    400,
                    {"error": "invalid Content-Length", "detail": repr(raw_length)},
                )
                return
            if length < 0:
                self._send_json(
                    400,
                    {"error": "invalid Content-Length", "detail": repr(raw_length)},
                )
                return
            if length > MAX_BODY_BYTES:
                # Refused before reading a single body byte — an honest
                # huge Content-Length must not balloon server memory.
                self.close_connection = True
                self._send_json(
                    413,
                    {"error": "request body too large", "limit_bytes": MAX_BODY_BYTES},
                )
                return
            try:
                payload = json.loads(self.rfile.read(length).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                self._send_json(400, {"error": "invalid JSON body", "detail": str(error)})
                return
            try:
                result = self.server.engine.run(payload)
            except QueryValidationError as error:
                self._send_json(400, {"error": "invalid query", "detail": str(error)})
                return
            except UnknownDatasetError as error:
                self._miss(error.dataset)
                return
            etag = None if result.fingerprint is None else f'"{result.fingerprint}"'
            if etag is not None and _etag_matches(self.headers.get("If-None-Match"), etag):
                self._send_not_modified(etag)
                return
            self._send_json(
                200, result.as_dict(), headers=None if etag is None else {"ETag": etag}
            )
        except Exception as error:  # pragma: no cover - defensive catch-all
            status = self._handle_failure(error)
            if not self._response_started:  # the client left before any reply
                self._observe(status)


class FrontServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one store/engine/metrics triple.

    Args:
        address: ``(host, port)`` to bind (port 0 picks a free one —
            read it back from :attr:`server_address`).
        store: the front store to serve.
        engine: query engine (built over ``store`` when omitted).
        enqueuer: optional on-miss campaign-job publisher.
    """

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        store: FrontStore,
        engine: Optional[QueryEngine] = None,
        enqueuer: Optional[MissEnqueuer] = None,
    ) -> None:
        super().__init__(address, ServingHandler)
        self.store = store
        self.engine = engine if engine is not None else QueryEngine(store)
        self.enqueuer = enqueuer
        self.metrics = ServingMetrics()

    @property
    def url(self) -> str:
        """Base URL of the bound socket."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def start_server(
    store: FrontStore,
    host: str = "127.0.0.1",
    port: int = 0,
    enqueuer: Optional[MissEnqueuer] = None,
) -> Tuple[FrontServer, threading.Thread]:
    """Build a :class:`FrontServer` and serve it on a daemon thread.

    Returns ``(server, thread)``; call ``server.shutdown()`` then
    ``server.server_close()`` to stop. This is the embedding/test entry
    point — the CLI's ``repro serve`` wraps it in a foreground loop.
    """
    server = FrontServer((host, port), store, enqueuer=enqueuer)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def serve(
    campaigns: List[Union[str, Path]],
    host: str = "127.0.0.1",
    port: int = 8000,
    max_entries: Optional[int] = None,
    enqueue_misses: bool = False,
    refresh_seconds: Optional[float] = None,
    refresh_reports: bool = False,
) -> None:
    """Foreground serving loop behind the ``repro serve`` CLI verb.

    Builds the store over ``campaigns``, optionally wires on-miss enqueue
    into the *first* campaign's fabric queue, starts the threaded server,
    and (when ``refresh_seconds`` is set) refreshes the store index
    periodically until interrupted. With ``refresh_reports`` each refresh
    also rebuilds campaign reports that lag their completed jobs — the
    serving half of the miss loop: a worker drains the enqueued job, the
    next refresh folds its front into the report, and the store serves it.
    """
    store = FrontStore(campaigns, max_entries=max_entries)
    enqueuer = MissEnqueuer(campaigns[0]) if enqueue_misses else None
    server, _thread = start_server(store, host=host, port=port, enqueuer=enqueuer)
    print(f"serving {len(store.datasets())} dataset front(s) on {server.url}")
    try:
        while True:
            time.sleep(refresh_seconds if refresh_seconds else 3600.0)
            if refresh_seconds:
                if refresh_reports:
                    store.refresh(rebuild_reports=True)
                else:
                    store.refresh()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()


__all__ = [
    "LATENCY_BUCKETS",
    "MAX_BODY_BYTES",
    "FrontServer",
    "MissEnqueuer",
    "ServingHandler",
    "ServingMetrics",
    "serve",
    "start_server",
]
