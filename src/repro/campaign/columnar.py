"""Persisted columnar front format: ``front_<dataset>.npz``.

The report writer's ``front_<dataset>.json`` is the canonical artifact —
human-readable, golden-pinned, and what the HTTP layer serves byte-for-
byte. But a cold query against it pays JSON decode, per-row
:class:`~repro.core.results.DesignPoint` construction, a Pareto merge and
a column build before the first constraint mask can run. This module
persists the end state of that work next to the JSON, in four members:

* ``meta`` — one ASCII JSON scalar: the ``version`` stamp, ``dataset``,
  the campaign ``fingerprint`` the report was built under,
  ``front_sha256`` (the SHA-256 of the sibling JSON bytes), ``robust``
  and the document's ``baseline`` entry,
* ``columns`` — one C-order ``float64`` array of shape
  ``(len(FRONT_COLUMNS), n)``, a row per :data:`FRONT_COLUMNS` entry
  (NaN where a point lacks the optional robustness fields),
* ``rows`` — each front row's compact ``json.dumps`` as ASCII bytes, so
  any window of rows decodes (or materializes into a ``DesignPoint``)
  without touching the rest of the JSON document,
* ``pareto_index`` — the precomputed
  :func:`~repro.core.pareto.pareto_front_indices` of the front, so the
  serving layer's default non-dominated view is a slice.

Row order is the JSON document's ``front`` order. The sha ties the npz
to the exact JSON it was derived from: a reader that holds the JSON bytes
validates the pair in O(1) and falls back to the JSON path on any
mismatch (stale npz after a partial rewrite, torn file, foreign version
or member set, the version-1 and -2 files of earlier releases included).
``np.savez`` stores members uncompressed, so :func:`load_front_npz` maps
the file once and exposes every column as a read-only zero-copy view
over the mapping; a row's JSON is decoded only when that row is asked for.
"""

from __future__ import annotations

import hashlib
import io
import json
import mmap
import os
import struct
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.pareto import pareto_front_indices
from ..core.results import DesignPoint
from .journal import write_atomic

#: Format version stamped into every npz; readers refuse anything else.
COLUMNAR_VERSION = 3

#: The objective columns every front persists/materializes. Optional
#: columns (``robust_accuracy``, ``accuracy_std``) hold NaN where a point
#: lacks them.
FRONT_COLUMNS: Tuple[str, ...] = (
    "accuracy",
    "area",
    "power",
    "delay",
    "robust_accuracy",
    "accuracy_std",
)

#: The file name of every member of a version-3 npz, sorted; nothing else.
_MEMBER_FILES = sorted(f"{name}.npy" for name in ("meta", "columns", "rows", "pareto_index"))
_LOCAL_HEADER_SIZE = 30
_LOCAL_HEADER_MAGIC = b"PK\x03\x04"


def _column_matrix(points: Sequence[DesignPoint]) -> np.ndarray:
    """The read-only ``(len(FRONT_COLUMNS), n)`` C-order ``float64`` matrix."""
    matrix = np.empty((len(FRONT_COLUMNS), len(points)), dtype=np.float64)
    for row, name in enumerate(FRONT_COLUMNS):
        values = (getattr(point, name) for point in points)
        matrix[row] = [np.nan if value is None else float(value) for value in values]
    matrix.flags.writeable = False
    return matrix


def build_columns(points: Sequence[DesignPoint]) -> Dict[str, np.ndarray]:
    """Read-only columnar arrays over a sequence of design points.

    One ``float64`` array per :data:`FRONT_COLUMNS` entry, aligned with
    ``points`` order; optional fields are NaN where absent. The arrays are
    rows of one non-writeable matrix, so no downstream consumer can mutate
    a cached view in place.
    """
    return dict(zip(FRONT_COLUMNS, _column_matrix(points)))


def front_npz_path(json_path: Union[str, Path]) -> Path:
    """The columnar sibling of a ``front_<dataset>.json`` path."""
    return Path(json_path).with_suffix(".npz")


def _row_array(entries: Sequence[object]) -> np.ndarray:
    """Each entry's compact JSON as ASCII bytes (``S1`` when empty)."""
    return np.array(
        [json.dumps(entry, separators=(",", ":")).encode("ascii") for entry in entries],
        dtype=np.bytes_,
    )


def write_front_npz(
    json_path: Union[str, Path], fingerprint: Optional[str] = None
) -> Path:
    """Persist the columnar form of one front document next to its JSON.

    Reads ``front_<dataset>.json`` (the canonical artifact — it must
    already exist), derives every column, and writes
    ``front_<dataset>.npz`` atomically (temp file + ``os.replace``, the
    report writer's convention). ``fingerprint`` is the campaign/summary
    fingerprint the report was built under (stored verbatim; ``""`` when
    absent). Raises ``ValueError`` for a document that is not a front.

    Objective values are stored as ``float64`` — exact for the float
    values the report writer emits (round-tripping bit-for-bit), which is
    what the serving layer's byte-identity A/B tests pin.
    """
    json_path = Path(json_path)
    raw = json_path.read_bytes()
    document = json.loads(raw.decode("utf-8"))
    if not isinstance(document, dict) or not isinstance(document.get("front"), list):
        raise ValueError(f"{json_path} does not hold a front document")
    points = [DesignPoint(**entry) for entry in document["front"]]
    robust = bool(points) and all(p.robust_accuracy is not None for p in points)
    meta = {
        "version": COLUMNAR_VERSION,
        "dataset": str(document.get("dataset", "")),
        "fingerprint": "" if fingerprint is None else str(fingerprint),
        "front_sha256": hashlib.sha256(raw).hexdigest(),
        "robust": robust,
        "baseline": document.get("baseline"),
    }
    members = {
        "meta": np.bytes_(json.dumps(meta).encode("ascii")),
        "columns": _column_matrix(points),
        "rows": _row_array(document["front"]),
        "pareto_index": np.asarray(
            pareto_front_indices(points, robust=robust), dtype=np.int64
        ),
    }
    return write_atomic(front_npz_path(json_path), lambda handle: np.savez(handle, **members))


@dataclass(frozen=True)
class NpzLayout:
    """Where each member's payload sits in one npz file, and which file that was.

    What the zip directory and the npy headers say, kept so a later load of
    the unchanged file maps its members without reading either again. It
    holds no array and no mapping.

    Attributes:
        stat: ``(mtime_ns, size, inode)`` of the file, by ``os.fstat`` on
            the descriptor that was mapped.
        members: ``(name, payload offset, dtype, shape)`` per member.
    """

    stat: Tuple[int, int, int]
    members: Tuple[Tuple[str, int, np.dtype, Tuple[int, ...]], ...]


@dataclass(frozen=True)
class ColumnarFront:
    """One loaded ``front_<dataset>.npz`` — zero-copy views over the mapping.

    Attributes:
        path: the npz file the arrays are mapped from.
        version: the format version stamp (always ``COLUMNAR_VERSION``).
        dataset: the dataset name recorded at write time.
        fingerprint: the campaign fingerprint recorded at write time.
        front_sha256: SHA-256 hex of the sibling JSON's bytes at write time.
        n_rows: number of front rows.
        robust: whether every row carries ``robust_accuracy``.
        columns: read-only ``float64`` rows of the mapped ``columns`` matrix.
        rows: ``S`` array of each front row's compact JSON, in front order.
        baseline: the document's decoded ``baseline`` entry.
        pareto_index: ``int64`` indices of the non-dominated subset, in
            front order.
        layout: where the members were mapped from (see :class:`NpzLayout`).
    """

    path: Path
    version: int
    dataset: str
    fingerprint: str
    front_sha256: str
    n_rows: int
    robust: bool
    columns: Mapping[str, np.ndarray]
    rows: np.ndarray
    baseline: object
    pareto_index: np.ndarray
    layout: NpzLayout

    def entries(self, start: int, stop: Optional[int]) -> List[object]:
        """The decoded front rows ``[start:stop]`` — only those are decoded."""
        return [json.loads(row) for row in self.rows[start:stop]]

    def point(self, row: int) -> DesignPoint:
        """Materialize one front row back into a :class:`DesignPoint`.

        The row decodes to the document's own entry, so this is the JSON
        path's ``DesignPoint(**entry)``, integer-valued fields included.
        """
        return DesignPoint(**json.loads(self.rows[row]))


def _member_layout(buffer: mmap.mmap) -> Tuple[Tuple[str, int, np.dtype, Tuple[int, ...]], ...]:
    """``(name, payload offset, dtype, shape)`` of every member of a mapped npz.

    ``np.savez`` members are uncompressed (``ZIP_STORED``), so each
    ``<name>.npy`` payload sits contiguously in the file: the zip central
    directory gives the local-header offset, the local header gives the
    payload offset, and the npy header gives dtype/shape. Raises on any
    structural violation, a member set other than the version-3 four
    included (the caller treats that as corruption).
    """
    members = []
    with zipfile.ZipFile(buffer) as archive:
        infos = archive.infolist()
        if sorted(info.filename for info in infos) != _MEMBER_FILES:
            raise ValueError("foreign member set")
        for info in infos:
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(f"compressed member {info.filename!r}")
            header = buffer[info.header_offset : info.header_offset + _LOCAL_HEADER_SIZE]
            if len(header) < _LOCAL_HEADER_SIZE or not header.startswith(_LOCAL_HEADER_MAGIC):
                raise ValueError(f"torn local header for {info.filename!r}")
            name_length, extra_length = struct.unpack("<HH", header[26:30])
            payload_offset = (
                info.header_offset + _LOCAL_HEADER_SIZE + name_length + extra_length
            )
            if payload_offset + info.file_size > len(buffer):
                raise ValueError(f"truncated payload for {info.filename!r}")
            npy_header = io.BytesIO(
                buffer[payload_offset : payload_offset + min(info.file_size, 4096)]
            )
            npy_version = np.lib.format.read_magic(npy_header)
            if npy_version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(npy_header)
            elif npy_version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(npy_header)
            else:
                raise ValueError(f"unsupported npy version {npy_version}")
            if dtype.hasobject or fortran:
                raise ValueError(f"unmappable member {info.filename!r}")
            members.append(
                (info.filename[: -len(".npy")], payload_offset + npy_header.tell(), dtype, shape)
            )
    return tuple(members)


def _mapped_members(
    path: Path, layout: Optional[NpzLayout] = None
) -> Tuple[Dict[str, np.ndarray], NpzLayout]:
    """Every npz member as a zero-copy array over one shared ``mmap``, and its layout.

    The file is mapped once. When ``layout`` was taken from the same file
    (its ``stat`` equals this descriptor's ``fstat``), the members are
    mapped at its offsets; otherwise the zip directory and npy headers are
    read over the mapping (:func:`_member_layout`). Each array is one
    ``np.frombuffer`` over the mapping, which raises if a payload runs past
    its end; arrays keep the mapping alive through their ``base``
    reference and are read-only because the mapping is.
    """
    with open(path, "rb") as handle:
        stat = os.fstat(handle.fileno())
        buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    signature = (stat.st_mtime_ns, stat.st_size, stat.st_ino)
    if layout is None or layout.stat != signature:
        layout = NpzLayout(stat=signature, members=_member_layout(buffer))
    arrays: Dict[str, np.ndarray] = {}
    for name, offset, dtype, shape in layout.members:
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        arrays[name] = np.frombuffer(buffer, dtype=dtype, count=count, offset=offset).reshape(
            shape
        )
    return arrays, layout


def load_front_npz(
    path: Union[str, Path],
    expected_sha256: Optional[str] = None,
    dataset: Optional[str] = None,
    layout: Optional[NpzLayout] = None,
) -> Optional[ColumnarFront]:
    """Load one columnar front, mmap-backed; ``None`` on any mismatch.

    ``None`` — never an exception — for a missing, torn, truncated,
    foreign-version or stale file (``expected_sha256`` / ``dataset``
    disagreeing with the stamps), so callers can always fall back to the
    canonical JSON path. The returned arrays are zero-copy views over a
    shared read-only mapping. ``layout`` is the :attr:`ColumnarFront.layout`
    of an earlier load of ``path``: while the file's ``fstat`` still
    matches it, the members are mapped without reading the zip directory
    or the npy headers again. Every check on the members and the meta runs
    either way.
    """
    path = Path(path)
    try:
        arrays, layout = _mapped_members(path, layout)
        meta = json.loads(arrays["meta"][()])
        if meta["version"] != COLUMNAR_VERSION:
            return None
        sha = str(meta["front_sha256"])
        if expected_sha256 is not None and sha != expected_sha256:
            return None
        stamped_dataset = str(meta["dataset"])
        if dataset is not None and stamped_dataset != dataset:
            return None
        matrix = arrays["columns"]
        if matrix.dtype != np.float64 or matrix.ndim != 2 or len(matrix) != len(FRONT_COLUMNS):
            return None
        n_rows = int(matrix.shape[1])
        rows = arrays["rows"]
        if rows.dtype.kind != "S" or rows.shape != (n_rows,):
            return None
        pareto_index = arrays["pareto_index"]
        if pareto_index.dtype != np.int64 or pareto_index.ndim != 1:
            return None
        if pareto_index.size and (pareto_index.min() < 0 or pareto_index.max() >= n_rows):
            return None
        return ColumnarFront(
            path=path,
            version=COLUMNAR_VERSION,
            dataset=stamped_dataset,
            fingerprint=str(meta["fingerprint"]),
            front_sha256=sha,
            n_rows=n_rows,
            robust=bool(meta["robust"]),
            columns=dict(zip(FRONT_COLUMNS, matrix)),
            rows=rows,
            baseline=meta["baseline"],
            pareto_index=pareto_index,
            layout=layout,
        )
    except Exception:  # noqa: BLE001 - any damage means "no columnar view"
        return None


__all__ = [
    "COLUMNAR_VERSION",
    "FRONT_COLUMNS",
    "ColumnarFront",
    "NpzLayout",
    "build_columns",
    "front_npz_path",
    "load_front_npz",
    "write_front_npz",
]
