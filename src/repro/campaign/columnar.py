"""Persisted columnar front format: ``front_<dataset>.npz``.

The report writer's ``front_<dataset>.json`` is the canonical artifact —
human-readable, golden-pinned, and what the HTTP layer serves byte-for-
byte. But a cold query against it pays JSON decode, per-row
:class:`~repro.core.results.DesignPoint` construction, a Pareto merge and
a column build before the first constraint mask can run. This module
persists the end state of that work next to the JSON:

* one ``float64`` array per objective column (:data:`FRONT_COLUMNS`,
  NaN where a point lacks the optional robustness fields),
* ``row_index`` (``int64``) pinning row order to the JSON document's
  ``front`` order,
* ``technique`` and ``parameters_json`` unicode arrays so any single row
  can be materialized back into a ``DesignPoint`` without touching the
  JSON document,
* ``pareto_index`` — the precomputed
  :func:`~repro.core.pareto.pareto_front_indices` of the front (front
  order), so the serving layer's default non-dominated view is a slice,
* a ``version`` stamp, the campaign ``fingerprint`` the report was built
  under, and ``front_sha256`` — the SHA-256 of the sibling JSON bytes.

The sha ties the npz to the exact JSON it was derived from: a reader that
holds the JSON bytes validates the pair in O(1) and falls back to the
JSON path on any mismatch (stale npz after a partial rewrite, torn file,
foreign version). ``np.savez`` stores members uncompressed, so
:func:`load_front_npz` maps the file once and exposes every column as a
read-only zero-copy view over the mapping — no decode, no copy, no
per-row Python.
"""

from __future__ import annotations

import hashlib
import io
import json
import mmap
import struct
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.pareto import pareto_front_indices
from ..core.results import DesignPoint
from .journal import write_atomic

#: Format version stamped into every npz; readers refuse anything else.
COLUMNAR_VERSION = 1

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

_NPY_SUFFIX = ".npy"
_LOCAL_HEADER_SIZE = 30
_LOCAL_HEADER_MAGIC = b"PK\x03\x04"


def build_columns(points: Sequence[DesignPoint]) -> Dict[str, np.ndarray]:
    """Read-only columnar arrays over a sequence of design points.

    One ``float64`` array per :data:`FRONT_COLUMNS` entry, aligned with
    ``points`` order; optional fields are NaN where absent. Arrays are
    marked non-writeable so no downstream consumer can mutate a cached
    view in place.
    """
    n = len(points)
    columns: Dict[str, np.ndarray] = {}
    for name in FRONT_COLUMNS:
        values = np.empty(n, dtype=np.float64)
        for index, point in enumerate(points):
            value = getattr(point, name)
            values[index] = np.nan if value is None else float(value)
        values.flags.writeable = False
        columns[name] = values
    return columns


def front_npz_path(json_path: Union[str, Path]) -> Path:
    """The columnar sibling of a ``front_<dataset>.json`` path."""
    return Path(json_path).with_suffix(".npz")


def _string_array(values: Sequence[str]) -> np.ndarray:
    """A unicode array over ``values`` (typed even when empty)."""
    if not values:
        return np.array([], dtype="<U1")
    return np.array(list(values), dtype=np.str_)


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
    members: Dict[str, object] = {
        "version": np.int64(COLUMNAR_VERSION),
        "dataset": str(document.get("dataset", "")),
        "fingerprint": "" if fingerprint is None else str(fingerprint),
        "front_sha256": hashlib.sha256(raw).hexdigest(),
        "row_index": np.arange(len(points), dtype=np.int64),
        "robust": np.bool_(robust),
        "technique": _string_array([p.technique for p in points]),
        "parameters_json": _string_array(
            [json.dumps(p.parameters, sort_keys=True) for p in points]
        ),
        "pareto_index": np.asarray(
            pareto_front_indices(points, robust=robust), dtype=np.int64
        ),
    }
    members.update(build_columns(points))
    return write_atomic(front_npz_path(json_path), lambda handle: np.savez(handle, **members))


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
        columns: read-only ``float64`` arrays per :data:`FRONT_COLUMNS`.
        technique: unicode array of per-row technique names.
        parameters_json: unicode array of canonical per-row parameter JSON.
        pareto_index: ``int64`` indices of the non-dominated subset, in
            front order.
    """

    path: Path
    version: int
    dataset: str
    fingerprint: str
    front_sha256: str
    n_rows: int
    robust: bool
    columns: Mapping[str, np.ndarray]
    technique: np.ndarray
    parameters_json: np.ndarray
    pareto_index: np.ndarray

    def point(self, row: int) -> DesignPoint:
        """Materialize one front row back into a :class:`DesignPoint`."""
        robust_accuracy = float(self.columns["robust_accuracy"][row])
        accuracy_std = float(self.columns["accuracy_std"][row])
        return DesignPoint(
            technique=str(self.technique[row]),
            accuracy=float(self.columns["accuracy"][row]),
            area=float(self.columns["area"][row]),
            power=float(self.columns["power"][row]),
            delay=float(self.columns["delay"][row]),
            parameters=json.loads(str(self.parameters_json[row])),
            robust_accuracy=None if np.isnan(robust_accuracy) else robust_accuracy,
            accuracy_std=None if np.isnan(accuracy_std) else accuracy_std,
        )


def _mapped_members(path: Path) -> Dict[str, np.ndarray]:
    """Every npz member as a zero-copy array over one shared ``mmap``.

    ``np.savez`` members are uncompressed (``ZIP_STORED``), so each
    ``<name>.npy`` payload sits contiguously in the file: the zip central
    directory gives the local-header offset, the local header gives the
    payload offset, and the npy header gives dtype/shape — after which the
    array is one ``np.frombuffer`` over the mapping. Arrays keep the
    mapping alive through their ``base`` reference and are read-only
    because the mapping is. Raises on any structural violation (the
    caller treats that as corruption).
    """
    arrays: Dict[str, np.ndarray] = {}
    with open(path, "rb") as handle:
        buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    with zipfile.ZipFile(path) as archive:
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(f"compressed member {info.filename!r}")
            if not info.filename.endswith(_NPY_SUFFIX):
                raise ValueError(f"foreign member {info.filename!r}")
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
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            array = np.frombuffer(
                buffer, dtype=dtype, count=count, offset=payload_offset + npy_header.tell()
            ).reshape(shape)
            arrays[info.filename[: -len(_NPY_SUFFIX)]] = array
    return arrays


def load_front_npz(
    path: Union[str, Path],
    expected_sha256: Optional[str] = None,
    dataset: Optional[str] = None,
) -> Optional[ColumnarFront]:
    """Load one columnar front, mmap-backed; ``None`` on any mismatch.

    ``None`` — never an exception — for a missing, torn, truncated,
    foreign-version or stale file (``expected_sha256`` / ``dataset``
    disagreeing with the stamps), so callers can always fall back to the
    canonical JSON path. The returned arrays are zero-copy views over a
    shared read-only mapping.
    """
    path = Path(path)
    try:
        arrays = _mapped_members(path)
        version = int(arrays["version"][()])
        if version != COLUMNAR_VERSION:
            return None
        sha = str(arrays["front_sha256"][()])
        if expected_sha256 is not None and sha != expected_sha256:
            return None
        stamped_dataset = str(arrays["dataset"][()])
        if dataset is not None and stamped_dataset != dataset:
            return None
        row_index = arrays["row_index"]
        n_rows = int(row_index.shape[0])
        if not np.array_equal(row_index, np.arange(n_rows, dtype=np.int64)):
            return None
        columns: Dict[str, np.ndarray] = {}
        for name in FRONT_COLUMNS:
            column = arrays[name]
            if column.dtype != np.float64 or column.shape != (n_rows,):
                return None
            columns[name] = column
        technique = arrays["technique"]
        parameters_json = arrays["parameters_json"]
        if technique.shape != (n_rows,) or parameters_json.shape != (n_rows,):
            return None
        pareto_index = arrays["pareto_index"]
        if pareto_index.dtype != np.int64 or pareto_index.ndim != 1:
            return None
        if pareto_index.size and (
            pareto_index.min() < 0 or pareto_index.max() >= n_rows
        ):
            return None
        return ColumnarFront(
            path=path,
            version=version,
            dataset=stamped_dataset,
            fingerprint=str(arrays["fingerprint"][()]),
            front_sha256=sha,
            n_rows=n_rows,
            robust=bool(arrays["robust"][()]),
            columns=columns,
            technique=technique,
            parameters_json=parameters_json,
            pareto_index=pareto_index,
        )
    except Exception:  # noqa: BLE001 - any damage means "no columnar view"
        return None


__all__ = [
    "COLUMNAR_VERSION",
    "FRONT_COLUMNS",
    "ColumnarFront",
    "build_columns",
    "front_npz_path",
    "load_front_npz",
    "write_front_npz",
]
