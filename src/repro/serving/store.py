"""Indexed in-memory store over campaign report directories.

The campaign layer ends at static files: ``repro campaign report`` writes
``report/front_<dataset>.json`` (plus ``summary.json``) and stops. This
module turns those files into something a query service can hit thousands
of times per second:

* :class:`FrontStore` indexes one or more campaign directories. Each
  dataset's front document is loaded once into a :class:`FrontView` —
  the exact raw bytes (pinned by golden byte-identity tests, read on
  first use when the load did not need them) plus a *columnar* view
  (read-only ``float64`` arrays per objective) that the query engine
  filters and sorts without touching Python objects on the hot path.
  When the report wrote a ``front_<dataset>.npz`` sibling
  (:mod:`repro.campaign.columnar`), the columns come from an mmap-backed
  zero-copy load — no JSON decode, no per-row ``DesignPoint``
  construction, no Pareto merge — validated against the JSON bytes via
  the embedded SHA-256 and falling back to the byte-identical JSON path
  on any mismatch. Design points materialize lazily, row by row, only
  when a query actually returns them.
* Deserialized views live in the :class:`~repro.core.lru.LRUCache` that
  also backs :class:`repro.search.evaluator.EvaluationCache`, keyed by
  ``(campaign, dataset)`` (``max_entries >= 1``, recency refresh on hit,
  least-recently-used eviction, ``hits``/``misses``/``evictions``
  counters), so the serving layer's memory ceiling is tuned the same way
  the evaluator's is. Evicted views are re-deserialized from disk on the
  next access; results are unchanged, only latency is affected.
* What a cached load proved outlives the view: one small memo record per
  ``(campaign, dataset)`` holds the JSON's stat signature and SHA-256,
  and the npz's member layout under its own ``fstat``. A miss of an
  unchanged JSON trusts the recorded SHA-256 (as a hit trusts the same
  signature) and reads no JSON; an unchanged npz maps without its zip
  directory or npy headers being parsed again. The JSON bytes of such a
  view are read on first use and checked against the signature and the
  SHA-256 (:attr:`FrontView.raw`). The memo holds no array and no
  mapping, and is bounded by the number of fronts, not by the LRU.
* Every access revalidates the cached view against the file's stat
  signature (mtime, size, inode) and the campaign's report fingerprint from
  ``summary.json`` — rewriting a report invalidates exactly the views it
  changed, with no restart. ``report.py`` writes atomically, so a reader
  sees the old document or the new one, never a torn mix; a *corrupt*
  front file (external damage) is skipped, not served.
* Multi-campaign stores answer with the union front: per-campaign points
  are concatenated in campaign order and merged with the exact Pareto
  logic of :func:`repro.campaign.report.build_report` (robust third axis
  when every point carries ``robust_accuracy``), so querying two campaign
  directories equals querying the report built over both.

Thread-safety: all public methods may be called concurrently with each
other and with :meth:`FrontStore.refresh` (the HTTP layer does exactly
that). Views are immutable snapshots; the internal LRU is lock-guarded.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..campaign.columnar import (
    FRONT_COLUMNS,
    ColumnarFront,
    NpzLayout,
    build_columns,
    front_npz_path,
    load_front_npz,
)
from ..campaign.journal import REPORT_DIR
from ..core.lru import LRUCache
from ..core.pareto import pareto_front, pareto_front_indices
from ..core.results import DesignPoint

_FRONT_PREFIX = "front_"
_FRONT_SUFFIX = ".json"
_SUMMARY_NAME = "summary.json"

#: Dataset names are embedded in file names (``front_<ds>.json``, fabric
#: queue entries), so only plain tokens are legal: leading alphanumeric,
#: then alphanumerics, ``_``, ``.`` and ``-`` — no separators, no way to
#: climb out of a directory.
_DATASET_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def is_safe_dataset_name(dataset: str) -> bool:
    """Whether ``dataset`` is a file-name-safe token (see `_DATASET_NAME_RE`).

    Request-derived dataset strings must pass this before they touch any
    path construction — the query layer rejects offenders as invalid
    queries, and the miss enqueuer refuses to publish jobs for them.
    """
    return isinstance(dataset, str) and _DATASET_NAME_RE.fullmatch(dataset) is not None


class UnknownDatasetError(KeyError):
    """Raised when no indexed campaign serves a front for the dataset.

    The HTTP layer maps this to a 404 — and, when configured, to the
    enqueue of a campaign job covering the missed dataset.
    """

    def __init__(self, dataset: str) -> None:
        """Record the missed dataset name (``.dataset``)."""
        super().__init__(dataset)
        self.dataset = str(dataset)


def combine_fingerprints(views: Sequence["FrontView"]) -> str:
    """One fingerprint over an ordered sequence of views (the HTTP ETag).

    A single view answers with its own fingerprint — the SHA-256 of the
    exact bytes the HTTP layer serves. Unions hash the per-view
    fingerprints in campaign order, so the combined tag changes exactly
    when any contributing front document changes.
    """
    if len(views) == 1:
        return views[0].fingerprint
    digest = hashlib.sha256()
    for view in views:
        digest.update(view.fingerprint.encode("ascii"))
        digest.update(b"|")
    return digest.hexdigest()


class StaleViewError(Exception):
    """A view's front file no longer holds the bytes the view was loaded from."""


def _read_front(path: Path, signature: Tuple[object, ...], fingerprint: str) -> bytes:
    """The front file's bytes, if it is still the file ``signature`` and ``fingerprint`` name.

    The stat is taken on the descriptor the bytes are read from, so a
    rename between the check and the read cannot slip in another file.
    Raises :class:`StaleViewError` on a changed or vanished file, or on
    bytes whose SHA-256 is not ``fingerprint``.
    """
    try:
        with open(path, "rb") as handle:
            stat = os.fstat(handle.fileno())
            if (stat.st_mtime_ns, stat.st_size, stat.st_ino) != signature[:3]:
                raise StaleViewError(str(path))
            raw = handle.read()
    except OSError as error:
        raise StaleViewError(str(path)) from error
    if hashlib.sha256(raw).hexdigest() != fingerprint:
        raise StaleViewError(str(path))
    return raw


class FrontView:
    """One campaign's front for one dataset (immutable snapshot, lazy rows).

    The always-present state is columnar: the read-only objective arrays
    and the precomputed Pareto index. The exact raw JSON bytes are held
    from the load when it read them, and read on first use otherwise. Design
    points and the Pareto column slices materialize lazily and are cached
    — an npz-backed view answers constraint/top-k queries and pages
    without ever decoding the document or constructing a
    :class:`DesignPoint` for rows the response doesn't include. A JSON
    view holds the document it decoded.

    Attributes:
        dataset: the dataset the front belongs to.
        campaign: the campaign directory the document came from.
        path: the ``report/front_<dataset>.json`` file behind the view.
        raw: the exact bytes of ``path`` — what the HTTP layer returns for
            single-campaign stores (byte-identical to the file, pinned by
            golden tests). A view loaded from the npz without reading the
            JSON reads it on first use, from a descriptor whose ``fstat``
            must still match :attr:`signature`, and checks the bytes'
            SHA-256 against :attr:`fingerprint`; either mismatch raises
            :class:`StaleViewError`, so the bytes never disagree with the
            view's ETag.
        robust: whether every point carries ``robust_accuracy`` (the
            condition under which the union merge uses the third axis).
        fault_rate: the campaign's fault-injection rate, recovered from
            ``spec.json`` (``None`` when the campaign ran without
            robustness or without a readable spec) — the selector behind
            "... at fault_rate 0.05" queries.
        columns: read-only columnar arrays (see
            :func:`repro.campaign.columnar.build_columns`), zero-copy
            views over the npz mapping when the load came from there.
        pareto_index: ``int64`` indices of the non-dominated subset of the
            front, in front order (what queries see unless they opt into
            dominated points).
        fingerprint: SHA-256 hex of ``raw`` — the view's ETag component.
        source: ``"npz"`` (mmap-backed columnar load) or ``"json"``
            (decoded document fallback).
        signature: cache-invalidation token: ``(mtime_ns, size, inode,
            fingerprint)`` of the backing file + campaign report.
    """

    def __init__(
        self,
        *,
        dataset: str,
        campaign: Path,
        path: Path,
        raw: Optional[bytes],
        robust: bool,
        fault_rate: Optional[float],
        columns: Mapping[str, np.ndarray],
        pareto_index: np.ndarray,
        fingerprint: str,
        source: str,
        signature: Tuple[object, ...],
        document: Optional[Mapping[str, object]] = None,
        points: Optional[Tuple[DesignPoint, ...]] = None,
        columnar: Optional[ColumnarFront] = None,
    ) -> None:
        self.dataset = dataset
        self.campaign = campaign
        self.path = path
        self._raw = raw
        self.robust = robust
        self.fault_rate = fault_rate
        self.columns = columns
        self.pareto_index = pareto_index
        self.fingerprint = fingerprint
        self.source = source
        self.signature = signature
        self._document = document
        self._points = points
        self._columnar = columnar
        self._point_cache: Dict[int, DesignPoint] = {}
        self._pareto_points: Optional[Tuple[DesignPoint, ...]] = None
        self._pareto_columns: Optional[Mapping[str, np.ndarray]] = None

    @property
    def raw(self) -> bytes:
        """The front file's exact bytes (read and verified on first use; see the class doc)."""
        if self._raw is None:
            self._raw = _read_front(self.path, self.signature, self.fingerprint)
        return self._raw

    @property
    def n_points(self) -> int:
        """Number of rows in the front (dominated rows included)."""
        return int(self.columns["accuracy"].shape[0])

    @property
    def baseline(self) -> Optional[Mapping[str, object]]:
        """The front's baseline document (``None`` for mixed jobs)."""
        baseline = self.page(0, 0)[0]
        return baseline if isinstance(baseline, dict) else None

    def page(self, start: int, stop: Optional[int]) -> Tuple[object, int, List[object]]:
        """``(baseline, total rows, front[start:stop])`` of the front document.

        The values are the decoded document's own: an npz view decodes
        only the window's rows, a JSON view slices its decoded document.
        """
        if self._columnar is not None:
            columnar = self._columnar
            return columnar.baseline, columnar.n_rows, columnar.entries(start, stop)
        assert self._document is not None
        front = self._document["front"]
        return self._document.get("baseline"), len(front), front[start:stop]  # type: ignore[index]

    def point(self, row: int) -> DesignPoint:
        """Materialize one front row (cached; npz rows decode on demand)."""
        if self._points is not None:
            return self._points[row]
        cached = self._point_cache.get(row)
        if cached is None:
            assert self._columnar is not None
            cached = self._columnar.point(row)
            self._point_cache[row] = cached
        return cached

    @property
    def points(self) -> Tuple[DesignPoint, ...]:
        """Every front row as design points, in document order."""
        if self._points is None:
            self._points = tuple(self.point(row) for row in range(self.n_points))
        return self._points

    @property
    def pareto_points(self) -> Tuple[DesignPoint, ...]:
        """The non-dominated subset of :attr:`points`, in front order."""
        if self._pareto_points is None:
            self._pareto_points = tuple(
                self.point(int(row)) for row in self.pareto_index
            )
        return self._pareto_points

    @property
    def pareto_columns(self) -> Mapping[str, np.ndarray]:
        """Read-only columns of the non-dominated rows (:attr:`columns` if none is dominated)."""
        if self._pareto_columns is None:
            if np.array_equal(self.pareto_index, np.arange(self.n_points)):
                self._pareto_columns = self.columns
            else:
                matrix = np.stack([values[self.pareto_index] for values in self.columns.values()])
                matrix.flags.writeable = False
                self._pareto_columns = dict(zip(self.columns, matrix))
        return self._pareto_columns


def _spec_fault_rate(campaign: Path) -> Optional[float]:
    """The campaign's fault-injection rate, recovered from ``spec.json``.

    The first search entry's ``fault_rate`` wins; ``spec.json`` files
    written by earlier builds may carry it under ``pipeline`` instead, which
    is read as the fallback. An unreadable or absent spec yields ``None``,
    as does a campaign that never enabled robustness (rate 0.0).
    """
    try:
        spec = json.loads((campaign / "spec.json").read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(spec, dict):
        return None
    rate: Optional[float] = None
    for search in spec.get("searches") or []:
        if isinstance(search, dict) and search.get("fault_rate") is not None:
            try:
                rate = float(search["fault_rate"])  # type: ignore[arg-type]
            except (TypeError, ValueError):
                continue
            break
    if rate is None:
        pipeline = spec.get("pipeline")
        if isinstance(pipeline, dict) and pipeline.get("fault_rate") is not None:
            try:
                rate = float(pipeline["fault_rate"])  # type: ignore[arg-type]
            except (TypeError, ValueError):
                rate = None
    if rate is None or rate == 0.0:
        return None
    return rate


def _report_fingerprint(campaign: Path) -> Optional[str]:
    """The report's campaign fingerprint from ``summary.json`` (tolerant)."""
    try:
        summary = json.loads((campaign / REPORT_DIR / _SUMMARY_NAME).read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if isinstance(summary, dict) and isinstance(summary.get("fingerprint"), str):
        return summary["fingerprint"]
    return None


@dataclass(frozen=True)
class _FrontMemo:
    """What the last cached load of one front proved; it outlives LRU eviction.

    Attributes:
        signature: the front JSON's invalidation token at that load.
        fingerprint: SHA-256 hex of the JSON bytes under ``signature``.
        layout: the npz member layout that load mapped (``None`` after a
            JSON load).
    """

    signature: Tuple[object, ...]
    fingerprint: str
    layout: Optional[NpzLayout]


class FrontStore:
    """Queryable index over the fronts of one or more campaign directories.

    Args:
        campaigns: campaign directory, or sequence of directories. Multi-
            campaign stores serve the union Pareto front per dataset,
            merged with the ``report.py`` logic.
        max_entries: optional LRU bound on deserialized front views
            (``None`` = unbounded).
    """

    def __init__(
        self,
        campaigns: Union[str, Path, Sequence[Union[str, Path]]],
        max_entries: Optional[int] = None,
    ) -> None:
        if isinstance(campaigns, (str, Path)):
            campaigns = [campaigns]
        self.campaigns: Tuple[Path, ...] = tuple(Path(c) for c in campaigns)
        if not self.campaigns:
            raise ValueError("FrontStore needs at least one campaign directory")
        self._cache = LRUCache(max_entries)
        self._lock = threading.RLock()
        self._fault_rates: Dict[Path, Optional[float]] = {}
        self._fingerprints: Dict[Path, Optional[str]] = {
            campaign: _report_fingerprint(campaign) for campaign in self.campaigns
        }
        # Per (campaign, dataset): the front's JSON and npz paths, built once
        # the JSON exists, and the memo a cache miss of an unchanged front
        # loads from. Both are bounded by the number of fronts on disk, not
        # by ``max_entries``; neither holds an array or a mapping, so an
        # evicted view still releases its mmap.
        self._paths: Dict[Tuple[str, str], Tuple[Path, Path]] = {}
        self._memo: Dict[Tuple[str, str], _FrontMemo] = {}
        self._npz_loads = 0
        self._json_loads = 0

    # -- paths and discovery -----------------------------------------------------

    @staticmethod
    def front_path(campaign: Union[str, Path], dataset: str) -> Path:
        """Path of one dataset's front document inside one campaign."""
        return Path(campaign) / REPORT_DIR / f"{_FRONT_PREFIX}{dataset}{_FRONT_SUFFIX}"

    def datasets(self) -> List[str]:
        """Sorted union of datasets served by the indexed campaigns."""
        names = set()
        for campaign in self.campaigns:
            report_dir = campaign / REPORT_DIR
            if not report_dir.is_dir():
                continue
            for path in report_dir.glob(f"{_FRONT_PREFIX}*{_FRONT_SUFFIX}"):
                names.add(path.name[len(_FRONT_PREFIX) : -len(_FRONT_SUFFIX)])
        return sorted(names)

    # -- loading and invalidation ------------------------------------------------

    def _signature(self, campaign: Path, dataset: str) -> Optional[Tuple[object, ...]]:
        """Current invalidation token of one front file (``None`` if absent).

        Every report write replaces the file (``os.replace``), which gives it
        a new inode, so a same-size rewrite inside one mtime tick still
        changes the token. The front's paths are built once, and kept once
        the file exists.
        """
        key = (str(campaign), dataset)
        paths = self._paths.get(key)
        if paths is None:
            path = self.front_path(campaign, dataset)
            paths = (path, front_npz_path(path))
        try:
            stat = os.stat(paths[0])
        except OSError:
            return None
        self._paths[key] = paths
        return (stat.st_mtime_ns, stat.st_size, stat.st_ino, self._fingerprints.get(campaign))

    def _load_view(
        self,
        campaign: Path,
        dataset: str,
        signature: Optional[Tuple[object, ...]],
        memo: Optional[_FrontMemo],
    ) -> Optional[FrontView]:
        """Load one front under its pre-read stat ``signature``; ``None`` if missing or corrupt.

        Prefers the columnar ``front_<dataset>.npz`` sibling when its
        embedded SHA-256 matches the JSON bytes about to be served — an
        mmap-backed load that skips JSON decode, point construction and
        the Pareto merge entirely. When ``memo`` was recorded under this
        same ``signature``, its fingerprint stands in for hashing the JSON,
        which is then not read at all (:attr:`FrontView.raw` reads it on
        first use), and its npz layout lets an unchanged npz map without
        parsing its zip directory. Any mismatch (stale npz after a
        partial rewrite, torn file, foreign version) falls back to reading
        and hashing the JSON, and from there to the JSON path, which
        produces byte-identical query results (golden A/B pinned). A torn
        or truncated JSON document (external corruption — the report
        writer is atomic) is treated as absent rather than served: the
        union falls back to whatever healthy campaigns still cover the
        dataset, and :meth:`refresh` will pick the file up once repaired.
        """
        if signature is None:
            return None
        # Kept by the _signature call that read ``signature``.
        path, npz_path = self._paths[(str(campaign), dataset)]
        layout = None if memo is None else memo.layout
        columnar = None
        if memo is not None and memo.signature == signature:
            fingerprint = memo.fingerprint
            columnar = load_front_npz(npz_path, expected_sha256=fingerprint, layout=layout)
        raw: Optional[bytes] = None
        if columnar is None:
            try:
                raw = path.read_bytes()
            except OSError:
                return None
            fingerprint = hashlib.sha256(raw).hexdigest()
            columnar = load_front_npz(npz_path, expected_sha256=fingerprint, layout=layout)
        if columnar is not None:
            with self._lock:
                self._npz_loads += 1
            return FrontView(
                dataset=dataset,
                campaign=campaign,
                path=path,
                raw=raw,
                robust=columnar.robust,
                fault_rate=self._campaign_fault_rate(campaign),
                columns=columnar.columns,
                pareto_index=columnar.pareto_index,
                fingerprint=fingerprint,
                source="npz",
                signature=signature,
                columnar=columnar,
            )
        assert raw is not None
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(document, dict) or not isinstance(document.get("front"), list):
            return None
        try:
            points = tuple(
                DesignPoint(**entry) for entry in document["front"]  # type: ignore[arg-type]
            )
        except (TypeError, ValueError):
            return None
        robust = bool(points) and all(p.robust_accuracy is not None for p in points)
        pareto_index = np.asarray(
            pareto_front_indices(list(points), robust=robust), dtype=np.int64
        )
        with self._lock:
            self._json_loads += 1
        return FrontView(
            dataset=dataset,
            campaign=campaign,
            path=path,
            raw=raw,
            robust=robust,
            fault_rate=self._campaign_fault_rate(campaign),
            columns=build_columns(points),
            pareto_index=pareto_index,
            fingerprint=fingerprint,
            source="json",
            signature=signature,
            document=document,
            points=points,
        )

    def _campaign_fault_rate(self, campaign: Path) -> Optional[float]:
        """Memoized per-campaign fault-rate tag."""
        if campaign not in self._fault_rates:
            self._fault_rates[campaign] = _spec_fault_rate(campaign)
        return self._fault_rates[campaign]

    def view(self, campaign: Union[str, Path], dataset: str) -> Optional[FrontView]:
        """One campaign's current front view for ``dataset`` (LRU + revalidate).

        The store lock guards only the cache lookup/insert; the expensive
        part — file read, JSON decode, Pareto merge, column build — runs
        outside it, so one cold load never stalls concurrent cache hits.
        """
        campaign = Path(campaign)
        key = (str(campaign), dataset)
        signature = self._signature(campaign, dataset)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None and cached.signature == signature:
                self._cache.hits += 1
                return cached
            self._cache.misses += 1
            memo = self._memo.get(key)
        view = self._load_view(campaign, dataset, signature, memo)
        with self._lock:
            if view is None:
                self._cache.pop(key)
                return None
            # Only cache (and memoize) the view if the file hasn't changed
            # since the load started — a racing writer's fresher view must
            # not be clobbered by this stale one. The caller still gets the
            # snapshot that was valid when it was read.
            if view.signature == self._signature(campaign, dataset):
                self._cache.put(key, view)
                columnar = view._columnar
                self._memo[key] = _FrontMemo(
                    view.signature,
                    view.fingerprint,
                    None if columnar is None else columnar.layout,
                )
            return view

    def _forget(self, view: FrontView) -> None:
        """Drop ``view`` and its memo record, so the next access rereads the file."""
        key = (str(view.campaign), view.dataset)
        with self._lock:
            if self._cache.get(key) is view:
                self._cache.pop(key)
            memo = self._memo.get(key)
            if memo is not None and memo.signature == view.signature:
                del self._memo[key]

    def views(
        self, dataset: str, fault_rate: Optional[float] = None
    ) -> List[FrontView]:
        """Every campaign's view of ``dataset``, in campaign order.

        ``fault_rate`` restricts to campaigns whose spec ran fault
        injection at that rate (``None`` keeps every campaign). Raises
        :class:`UnknownDatasetError` when no indexed campaign serves the
        dataset at all; returns ``[]`` when the dataset exists but no
        campaign matches the ``fault_rate`` selector.
        """
        views = [
            view
            for campaign in self.campaigns
            if (view := self.view(campaign, dataset)) is not None
        ]
        if not views:
            raise UnknownDatasetError(dataset)
        if fault_rate is None:
            return views
        return [
            view
            for view in views
            if view.fault_rate is not None
            and abs(view.fault_rate - float(fault_rate)) < 1e-12
        ]

    # -- union fronts ------------------------------------------------------------

    @staticmethod
    def _union_points(views: Sequence[FrontView]) -> Tuple[List[DesignPoint], bool]:
        """The ``report.py`` merge over an ordered snapshot of views."""
        points: List[DesignPoint] = []
        for view in views:
            points.extend(view.points)
        robust = bool(points) and all(p.robust_accuracy is not None for p in points)
        return pareto_front(points, robust=robust), robust

    def union_front(
        self, dataset: str, fault_rate: Optional[float] = None
    ) -> Tuple[List[DesignPoint], bool]:
        """The merged Pareto front over every matching campaign.

        Exactly the :func:`repro.campaign.report.build_report` merge:
        points concatenate in campaign order, the robust third axis joins
        when every contributing point carries ``robust_accuracy``, and
        identical-criteria duplicates collapse. Returns ``(points,
        robust)``.
        """
        return self._union_points(self.views(dataset, fault_rate=fault_rate))

    def front(self, dataset: str) -> Tuple[bytes, str]:
        """``(served bytes, fingerprint)`` for one dataset, atomically.

        Both halves come from one snapshot of views, so the fingerprint —
        the HTTP layer's ETag — always tags exactly the bytes returned
        beside it (see :func:`combine_fingerprints`). A single view whose
        file changed before its bytes were first read (see
        :attr:`FrontView.raw`) is dropped and loaded again, once.
        """
        views = self.views(dataset)
        try:
            return self._served(dataset, views)
        except StaleViewError:
            self._forget(views[0])
        return self._served(dataset, self.views(dataset))

    def page(
        self, dataset: str, start: int, stop: Optional[int]
    ) -> Tuple[Tuple[object, int, List[object]], str]:
        """``((baseline, total rows, front[start:stop]), fingerprint)``, atomically.

        The window holds the decoded values of the document :meth:`front`
        serves, from the same one snapshot of views. A single campaign
        answers from its view (:meth:`FrontView.page`), so no request
        decodes the whole document; a union decodes its merged document.
        """
        views = self.views(dataset)
        if len(views) == 1:
            return views[0].page(start, stop), views[0].fingerprint
        raw, fingerprint = self._served(dataset, views)
        document = json.loads(raw.decode("utf-8"))
        front = document["front"]
        return (document["baseline"], len(front), front[start:stop]), fingerprint

    def _served(self, dataset: str, views: Sequence[FrontView]) -> Tuple[bytes, str]:
        """``(served bytes, fingerprint)`` over one snapshot of views."""
        if len(views) == 1:
            return views[0].raw, views[0].fingerprint
        merged, _robust = self._union_points(views)
        baselines = [view.baseline for view in views]
        shared = baselines[0] if all(b == baselines[0] for b in baselines) else None
        document = {
            "dataset": dataset,
            "baseline": shared,
            "front": [point.as_dict() for point in merged],
            "campaigns": [str(view.campaign) for view in views],
        }
        raw = (json.dumps(document, indent=2, sort_keys=True) + "\n").encode("utf-8")
        return raw, combine_fingerprints(views)

    def raw_front(self, dataset: str) -> bytes:
        """The dataset's front document as served bytes.

        Single-campaign stores return the backing file's exact bytes —
        byte-identical to ``report/front_<dataset>.json``. Multi-campaign
        stores return the canonical JSON of the union merge (same
        ``indent=2, sort_keys=True`` convention the report writer uses).
        """
        return self.front(dataset)[0]

    def front_fingerprint(self, dataset: str) -> str:
        """The current fingerprint of one dataset's served front."""
        return self.front(dataset)[1]

    # -- maintenance -------------------------------------------------------------

    def _rebuild_stale_report(self, campaign: Path) -> bool:
        """Rebuild one campaign's report when completed jobs aren't in it.

        A job is *reflected* when the report's ``summary.json`` records
        its id; completed jobs missing from it — typically serving-miss
        enqueues drained by an elastic worker — trigger a full
        ``write_report`` (which re-emits the JSON/npz front artifacts the
        store then picks up). Returns whether a rebuild ran. Tolerant of
        campaigns without a spec or with an unreadable summary; a rebuild
        failure is swallowed (the old report keeps serving).
        """
        from ..campaign.journal import CampaignJournal  # deferred: heavy import
        from ..campaign.report import write_report

        journal = CampaignJournal(campaign)
        if not journal.spec_path.exists():
            return False
        completed = {
            job_id
            for job_id in journal.completed_job_ids()
            if journal.front_path(job_id).exists()
        }
        if not completed:
            return False
        recorded: set = set()
        try:
            summary = json.loads((campaign / REPORT_DIR / _SUMMARY_NAME).read_text())
            for entry in summary.get("datasets", {}).values():
                for job in entry.get("jobs", []):
                    if isinstance(job.get("job_id"), str):
                        recorded.add(job["job_id"])
        except (OSError, json.JSONDecodeError, AttributeError, TypeError):
            recorded = set()
        if completed <= recorded:
            return False
        try:
            write_report(campaign)
        except Exception:  # noqa: BLE001 - keep serving the old report
            return False
        return True

    def refresh(self, rebuild_reports: bool = False) -> Dict[str, int]:
        """Revalidate the index against disk.

        Re-reads every campaign's report fingerprint and fault-rate tag,
        drops cached views whose backing file changed or vanished, and
        returns ``{"datasets": ..., "cached": ..., "invalidated": ...,
        "reports_rebuilt": ...}``. With ``rebuild_reports`` the refresh
        first regenerates any campaign report that lags its completed
        jobs (see :meth:`_rebuild_stale_report`) — the step that closes
        the serving-miss loop: enqueue → worker drains → refresh
        republishes the front. Safe to call while queries are in flight:
        readers always see either the old snapshot or the new one (the
        rebuild runs outside the store lock).
        """
        reports_rebuilt = 0
        if rebuild_reports:
            for campaign in self.campaigns:
                if self._rebuild_stale_report(campaign):
                    reports_rebuilt += 1
        invalidated = 0
        with self._lock:
            self._fault_rates.clear()
            for campaign in self.campaigns:
                self._fingerprints[campaign] = _report_fingerprint(campaign)
            for key, view in self._cache.items():
                campaign_text, dataset = key
                if view.signature != self._signature(Path(campaign_text), dataset):
                    self._cache.pop(key)
                    invalidated += 1
            for key, memo in list(self._memo.items()):
                if memo.signature != self._signature(Path(key[0]), key[1]):
                    del self._memo[key]
            return {
                "datasets": len(self.datasets()),
                "cached": len(self._cache),
                "invalidated": invalidated,
                "reports_rebuilt": reports_rebuilt,
            }

    def stats(self) -> Dict[str, object]:
        """Cache statistics (the serving counterpart of evaluator stats)."""
        with self._lock:
            return {
                "campaigns": len(self.campaigns),
                "cached_views": len(self._cache),
                "max_entries": self._cache.max_entries,
                "hits": self._cache.hits,
                "misses": self._cache.misses,
                "evictions": self._cache.evictions,
                "npz_loads": self._npz_loads,
                "json_loads": self._json_loads,
            }


__all__ = [
    "FRONT_COLUMNS",
    "FrontStore",
    "FrontView",
    "StaleViewError",
    "UnknownDatasetError",
    "build_columns",
    "combine_fingerprints",
    "is_safe_dataset_name",
]
