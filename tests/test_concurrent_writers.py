"""Concurrent writers of one artifact must never trip over each other's temp file.

Two threads rewriting the same path used to share one fixed temp name
(``<name>.tmp`` for JSON, ``<stem>.tmp.npz`` for the columnar front): one
writer's ``os.replace`` moved the other's half-written temp away, raising
``FileNotFoundError`` or publishing a file the other was still writing.
Each write now goes through a temp file of its own.
"""

from __future__ import annotations

import json
import threading

from repro.campaign.columnar import front_npz_path, load_front_npz, write_front_npz
from repro.campaign.journal import write_json_atomic


def _hammer(write, n_writes: int, n_threads: int = 2) -> list:
    """Run ``write(thread, index)`` from several threads; the errors raised."""
    errors: list = []
    start = threading.Barrier(n_threads)

    def worker(thread: int) -> None:
        start.wait()
        for index in range(n_writes):
            try:
                write(thread, index)
            except Exception as error:  # collected, asserted on below
                errors.append(error)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


def test_two_threads_rewriting_one_json_document(tmp_path):
    path = tmp_path / "front_seeds.json"

    def write(thread: int, index: int) -> None:
        write_json_atomic(path, {"thread": thread, "index": index})

    assert _hammer(write, n_writes=1000) == []
    assert set(json.loads(path.read_text())) == {"thread", "index"}
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_two_threads_rewriting_one_front_npz(tmp_path):
    json_path = tmp_path / "front_seeds.json"
    point = {
        "technique": "combined",
        "accuracy": 0.9,
        "area": 1.0,
        "power": 1.0,
        "delay": 0.5,
        "parameters": {"weight_bits": 4},
    }
    write_json_atomic(json_path, {"dataset": "seeds", "front": [point] * 50})

    def write(thread: int, index: int) -> None:
        write_front_npz(json_path, fingerprint=f"{thread}-{index}")

    assert _hammer(write, n_writes=100) == []
    assert load_front_npz(front_npz_path(json_path)) is not None
    assert sorted(p.name for p in tmp_path.iterdir()) == ["front_seeds.json", "front_seeds.npz"]
