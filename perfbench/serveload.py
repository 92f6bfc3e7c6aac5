"""Inputs and load for the ``serve`` workload: a generated campaign and a client.

The campaign holds more dataset fronts than the server's ``--cache-size``,
every one with its columnar npz sibling, so the seeded request mix forces
LRU misses (cold npz loads) next to hot hits. The client is a closed loop:
each connection sends its next request only after the previous reply, as a
caller that waits for its answer would. Every response is checked against
the query that produced it.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from workloads import SERVE_FRONTS

# No recorded traffic exists to take the load from. The front size, the
# request mix and the dataset popularity (``RequestMix``) are assumptions,
# named as such in README.md.
#: Rows of each generated front, by dataset: 600 to 1200 in steps of 40,
#: around the 1024-point front of the repository's cold-load benchmark
#: (``benchmarks/bench_serving.py``), in a fixed scattered order. Fronts from
#: the campaign workload hold tens of points; these are larger because with
#: tens of points the latency tail is set by scheduling jitter on a shared
#: host more than by the server's work, and p99 does not settle. The sizes
#: and their popularity ranks do not depend on the seed, so every seed asks
#: the server for the same amount of work; the seed draws the values.
FRONT_ROWS: Tuple[int, ...] = tuple(
    600 + 40 * ((7 * index) % SERVE_FRONTS) for index in range(SERVE_FRONTS)
)
#: Request kinds, drawn with equal shares: ``bench_serving.py`` cycles its
#: three query shapes equally, and pages and revalidations get the same.
MIX: Tuple[str, ...] = ("constraint", "top_k", "nearest", "page", "revalidate")
#: Rows returned by a constraint query (its page size).
CONSTRAINT_LIMIT = 20


@dataclass
class Front:
    """What the client knows about one generated front, to check answers."""

    dataset: str
    rows: int
    accuracy: Tuple[float, float]
    area: Tuple[float, float]


def generate_campaign(directory: Path, seed: int) -> Dict[str, Front]:
    """Write ``SERVE_FRONTS`` report fronts (JSON + npz) under ``directory/report``.

    Uses the report writer's own serializers, so the server loads exactly
    the artifacts a finished campaign would leave behind.
    """
    from repro.campaign.columnar import write_front_npz
    from repro.campaign.journal import write_json_atomic

    rng = random.Random(seed)
    report = directory / "report"
    fingerprint = f"perfbench-{seed}"
    fronts: Dict[str, Front] = {}
    for index, rows in enumerate(FRONT_ROWS):
        dataset = f"ds{index:02d}"
        base_accuracy = rng.uniform(0.55, 0.95)
        base_area = rng.uniform(5.0, 400.0)
        points = []
        # Accuracy rises strictly with area, so every row is on the Pareto
        # front, as in a real report.
        for share in sorted(rng.random() for _ in range(rows)):
            accuracy = base_accuracy * (0.99 + 0.01 * share - 0.6 * (1.0 - share) ** 20)
            area = base_area * (0.04 + 0.96 * share)
            points.append(
                {
                    "technique": "combined",
                    "accuracy": accuracy,
                    "area": area,
                    "power": area * rng.uniform(0.8, 1.2),
                    "delay": rng.uniform(5.0, 50.0),
                    "parameters": {
                        "weight_bits": rng.randint(2, 8),
                        "sparsity": round(rng.random(), 2),
                        "clusters": rng.randint(2, 16),
                    },
                    "robust_accuracy": accuracy * rng.uniform(0.85, 1.0),
                    "accuracy_std": rng.uniform(0.001, 0.05),
                }
            )
        path = write_json_atomic(
            report / f"front_{dataset}.json",
            {
                "dataset": dataset,
                "baseline": {"technique": "baseline", "accuracy": base_accuracy,
                             "area": base_area, "power": base_area, "delay": 50.0,
                             "parameters": {}},
                "front": points,
                "combined_best_gain": None,
            },
        )
        write_front_npz(path, fingerprint=fingerprint)
        fronts[dataset] = Front(
            dataset=dataset,
            rows=rows,
            accuracy=(min(p["accuracy"] for p in points), max(p["accuracy"] for p in points)),
            area=(min(p["area"] for p in points), max(p["area"] for p in points)),
        )
    write_json_atomic(report / "summary.json", {"fingerprint": fingerprint, "datasets": {}})
    return fronts


# -- one request and its check -----------------------------------------------------------


@dataclass
class Request:
    """One request and the check its response must pass (``None`` = passed)."""

    kind: str
    method: str
    path: str
    check: Callable[[int, Dict[str, str], bytes], Optional[str]]
    body: Optional[bytes] = None
    headers: Dict[str, str] = field(default_factory=dict)


def _is_sorted(values: List[float], descending: bool = False) -> bool:
    pairs = zip(values, values[1:])
    return all(a >= b for a, b in pairs) if descending else all(a <= b for a, b in pairs)


def _query_check(dataset: str, verify: Callable[[dict], Optional[str]]):
    def check(status: int, headers: Dict[str, str], body: bytes) -> Optional[str]:
        if status != 200:
            return f"status {status}"
        document = json.loads(body)
        if document["dataset"] != dataset:
            return f"answered for {document['dataset']}"
        if document["returned"] != len(document["points"]):
            return "returned != len(points)"
        return verify(document)

    return check


class RequestMix:
    """Seeded request generator for one connection of one load phase.

    Dataset popularity is fixed (``ds00`` hottest), so a warm-up phase warms
    the same hot fronts the measured phase asks for, whatever the seed.

    A revalidation is sent only for a dataset whose current ETag this
    connection has already seen, and it must answer ``304``; before that it
    falls back to a page request. Each connection keeps its own ETags, so
    its request sequence depends on the seed alone, not on thread timing.
    """

    def __init__(self, seed: int, phase: int, connection: int, fronts: Dict[str, Front]) -> None:
        self.rng = random.Random(f"{seed}-{phase}-{connection}")
        self.fronts = fronts
        self.etags: Dict[str, str] = {}
        # Zipf-like popularity (an assumption): a few hot fronts, a long cold tail.
        self.datasets = sorted(fronts)
        self.weights = [1.0 / (rank + 1) for rank in range(len(self.datasets))]

    def next(self) -> Request:
        rng = self.rng
        dataset = rng.choices(self.datasets, self.weights)[0]
        kind = rng.choice(MIX)
        front = self.fronts[dataset]
        if kind == "revalidate" and dataset not in self.etags:
            kind = "page"
        if kind == "constraint":
            min_accuracy = rng.uniform(*front.accuracy)
            max_area = rng.uniform(*front.area)

            def verify(doc: dict) -> Optional[str]:
                points = doc["points"]
                if any(p["accuracy"] < min_accuracy or p["area"] > max_area for p in points):
                    return "constraint violated"
                if len(points) != min(CONSTRAINT_LIMIT, doc["matched"]):
                    return "page size wrong"
                if not _is_sorted([p["area"] for p in points]):
                    return "not ordered by area"
                return None

            body = {"dataset": dataset, "min_accuracy": min_accuracy, "max_area": max_area,
                    "order_by": "area", "limit": CONSTRAINT_LIMIT}
            return Request(kind, "POST", "/query", _query_check(dataset, verify),
                           json.dumps(body).encode())
        if kind == "top_k":
            k = rng.randint(1, 25)

            def verify(doc: dict) -> Optional[str]:
                points = doc["points"]
                if doc["matched"] != doc["total_points"]:
                    return "unconstrained query dropped points"
                if len(points) != min(k, doc["matched"]):
                    return "top-k length wrong"
                if not _is_sorted([p["accuracy"] for p in points], descending=True):
                    return "not ordered by accuracy"
                return None

            body = {"dataset": dataset, "order_by": "accuracy", "descending": True, "top_k": k}
            return Request(kind, "POST", "/query", _query_check(dataset, verify),
                           json.dumps(body).encode())
        if kind == "nearest":
            target = {"accuracy": rng.uniform(*front.accuracy), "area": rng.uniform(*front.area)}

            def verify(doc: dict) -> Optional[str]:
                distances = doc.get("distances", [])
                points = doc["points"]
                if len(points) != min(5, doc["matched"]) or len(distances) != len(points):
                    return "nearest length wrong"
                if not _is_sorted(distances):
                    return "not ordered by distance"
                return None

            body = {"dataset": dataset, "nearest": target, "top_k": 5}
            return Request(kind, "POST", "/query", _query_check(dataset, verify),
                           json.dumps(body).encode())
        if kind == "page":
            offset = rng.randint(0, front.rows + 10)
            limit = rng.randint(1, 40)

            def check(status: int, headers: Dict[str, str], body: bytes) -> Optional[str]:
                if status != 200:
                    return f"status {status}"
                doc = json.loads(body)
                if doc["total_points"] != front.rows:
                    return "total_points wrong"
                if doc["offset"] != offset or doc["limit"] != limit:
                    return "window not echoed"
                if len(doc["front"]) != max(0, min(limit, front.rows - offset)):
                    return "page window wrong"
                self.etags[dataset] = headers["etag"]
                return None

            return Request(kind, "GET", f"/fronts/{dataset}?offset={offset}&limit={limit}", check)
        etag = self.etags[dataset]

        def check(status: int, headers: Dict[str, str], body: bytes) -> Optional[str]:
            if status != 304 or body:
                return f"revalidation answered {status}"
            return None

        return Request(kind, "GET", f"/fronts/{dataset}", check,
                       headers={"If-None-Match": etag})


# -- the closed loop ---------------------------------------------------------------------


@dataclass
class LoadResult:
    latencies: List[float] = field(default_factory=list)
    finished_at: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)


def send(
    connection: http.client.HTTPConnection, request: Request
) -> Tuple[int, Dict[str, str], bytes]:
    connection.request(request.method, request.path, body=request.body, headers=request.headers)
    response = connection.getresponse()
    body = response.read()
    return response.status, {k.lower(): v for k, v in response.getheaders()}, body


def run_load(
    port: int,
    seed: int,
    phase: int,
    fronts: Dict[str, Front],
    connections: int,
    deadline: Optional[float] = None,
    total: Optional[int] = None,
) -> LoadResult:
    """Drive ``connections`` keep-alive connections in a closed loop.

    The load stops at ``deadline`` (``time.monotonic()``) or after ``total``
    requests in all, whichever comes first. A request that errors or fails
    its check counts as failed, with an infinite latency, so it misses every
    latency limit.
    """
    result = LoadResult()
    lock = threading.Lock()
    stop = threading.Event()

    def loop(index: int) -> None:
        mix = RequestMix(seed, phase, index, fronts)
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            while not stop.is_set():
                request = mix.next()
                started = time.perf_counter()
                try:
                    status, headers, body = send(connection, request)
                    latency = time.perf_counter() - started
                    problem = request.check(status, headers, body)
                except (OSError, http.client.HTTPException, ValueError, KeyError) as error:
                    latency = math.inf
                    problem = f"{type(error).__name__}: {error}"
                    connection.close()
                    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                with lock:
                    result.latencies.append(math.inf if problem else latency)
                    result.finished_at.append(time.monotonic())
                    if problem:
                        result.failures.append(f"{request.kind} {request.path}: {problem}")
                    if total is not None and len(result.latencies) >= total:
                        stop.set()
                if deadline is not None and time.monotonic() >= deadline:
                    stop.set()
        finally:
            connection.close()

    threads = [threading.Thread(target=loop, args=(i,)) for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return result
