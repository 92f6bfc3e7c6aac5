"""Typed constraint/top-k/nearest-trade-off queries over a front store.

The production question this layer answers is the paper's design space as
a service: *"the cheapest genome with >= 90 % accuracy at fault_rate 0.05
on dataset X"*. A :class:`FrontQuery` is the typed form of that sentence —

* **constraints** lower-bound the maximized objectives (``min_accuracy``,
  ``min_robust_accuracy``) and upper-bound the minimized ones
  (``max_area``, ``max_power``, ``max_delay``, ``max_accuracy_std``),
* ``fault_rate`` selects which campaigns' fronts may answer (matching the
  rate their searches injected faults at),
* ``order_by``/``descending`` rank survivors by any objective with a
  *stable* sort (ties keep front order), ``top_k`` takes the prefix,
* ``nearest`` ranks by normalized Euclidean distance to a target
  trade-off instead (e.g. "closest to accuracy 0.9 at area 2.0"),
* ``offset``/``limit`` window the ranked result (after ``top_k``) for
  pagination over large fronts,
* ``include_dominated`` opts into the raw union of campaign points;
  by default queries see the Pareto-merged front (the ``report.py``
  merge, so multi-campaign answers equal the merged report's).

:class:`QueryEngine` executes queries against a
:class:`~repro.serving.store.FrontStore` as a small plan: candidate
columns are assembled (for a single campaign, zero-copy slices of the
view's — possibly mmap-backed — arrays), constraint masks reduce to
candidate row indices (``np.flatnonzero``) which a stable argsort ranks,
and only the rows of the final window are
materialized into :class:`~repro.core.results.DesignPoint` objects — no
per-point Python for rows the response doesn't include, and queries
never mutate the store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.pareto import pareto_front
from ..core.results import DesignPoint
from .store import (
    FRONT_COLUMNS,
    FrontStore,
    build_columns,
    combine_fingerprints,
    is_safe_dataset_name,
)

#: Objectives a query may order by or target with ``nearest``.
ORDERABLE_COLUMNS: Tuple[str, ...] = FRONT_COLUMNS

#: ``{constraint name: (column, direction)}`` — ``min`` keeps values >= the
#: bound, ``max`` keeps values <= it. NaN (a point without the column, e.g.
#: ``robust_accuracy`` on a robustness-off campaign) never satisfies a
#: bound on that column.
CONSTRAINTS: Dict[str, Tuple[str, str]] = {
    "min_accuracy": ("accuracy", "min"),
    "max_area": ("area", "max"),
    "max_power": ("power", "max"),
    "max_delay": ("delay", "max"),
    "min_robust_accuracy": ("robust_accuracy", "min"),
    "max_accuracy_std": ("accuracy_std", "max"),
}


class QueryValidationError(ValueError):
    """Raised for a structurally invalid query (HTTP layer answers 400)."""


def _require_finite(name: str, value: Optional[float]) -> Optional[float]:
    """Validate one optional numeric field; returns it as ``float``."""
    if value is None:
        return None
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise QueryValidationError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(value):
        raise QueryValidationError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class FrontQuery:
    """One typed design-space query (see module docstring for semantics).

    Attributes:
        dataset: the dataset whose front is queried (required).
        min_accuracy: keep points with ``accuracy >= min_accuracy``.
        max_area: keep points with ``area <= max_area``.
        max_power: keep points with ``power <= max_power``.
        max_delay: keep points with ``delay <= max_delay``.
        min_robust_accuracy: keep points with ``robust_accuracy >=`` the
            bound (points without the column never match).
        max_accuracy_std: keep points with ``accuracy_std <=`` the bound.
        fault_rate: restrict to campaigns whose searches injected faults
            at exactly this rate (``None`` = all campaigns).
        order_by: objective to rank by (one of :data:`ORDERABLE_COLUMNS`).
        descending: rank largest-first instead of smallest-first.
        top_k: return only the first ``top_k`` ranked points.
        nearest: ``{objective: target}`` — rank by normalized distance to
            the target trade-off instead of ``order_by``.
        include_dominated: serve the raw union of campaign points instead
            of the Pareto-merged front.
        offset: skip the first ``offset`` ranked points (after ``top_k``)
            — the pagination window's start.
        limit: return at most ``limit`` points from the window.
    """

    dataset: str
    min_accuracy: Optional[float] = None
    max_area: Optional[float] = None
    max_power: Optional[float] = None
    max_delay: Optional[float] = None
    min_robust_accuracy: Optional[float] = None
    max_accuracy_std: Optional[float] = None
    fault_rate: Optional[float] = None
    order_by: str = "area"
    descending: bool = False
    top_k: Optional[int] = None
    nearest: Optional[Tuple[Tuple[str, float], ...]] = None
    include_dominated: bool = False
    offset: int = 0
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        """Validate every field; raises :class:`QueryValidationError`."""
        if not isinstance(self.dataset, str) or not self.dataset:
            raise QueryValidationError("dataset must be a non-empty string")
        if not is_safe_dataset_name(self.dataset):
            raise QueryValidationError(
                f"dataset must be a plain name (letters, digits, '_', '.', '-', "
                f"starting alphanumeric), got {self.dataset!r}"
            )
        for name in CONSTRAINTS:
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        for name in ("min_accuracy", "min_robust_accuracy"):
            bound = getattr(self, name)
            if bound is not None and not 0.0 <= bound <= 1.0:
                raise QueryValidationError(f"{name} must be in [0, 1], got {bound}")
        rate = _require_finite("fault_rate", self.fault_rate)
        if rate is not None and not 0.0 <= rate <= 1.0:
            raise QueryValidationError(f"fault_rate must be in [0, 1], got {rate}")
        object.__setattr__(self, "fault_rate", rate)
        if self.order_by not in ORDERABLE_COLUMNS:
            raise QueryValidationError(
                f"order_by must be one of {ORDERABLE_COLUMNS}, got {self.order_by!r}"
            )
        if self.top_k is not None:
            if not isinstance(self.top_k, int) or isinstance(self.top_k, bool):
                raise QueryValidationError(f"top_k must be an integer, got {self.top_k!r}")
            if self.top_k < 1:
                raise QueryValidationError(f"top_k must be >= 1, got {self.top_k}")
        if self.nearest is not None:
            frozen: List[Tuple[str, float]] = []
            items = (
                self.nearest.items()
                if isinstance(self.nearest, Mapping)
                else self.nearest
            )
            try:
                pairs = [(str(column), value) for column, value in items]
            except (TypeError, ValueError):
                raise QueryValidationError(
                    f"nearest must map objectives to targets, got {self.nearest!r}"
                ) from None
            if not pairs:
                raise QueryValidationError("nearest must name at least one objective")
            for column, value in pairs:
                if column not in ORDERABLE_COLUMNS:
                    raise QueryValidationError(
                        f"nearest objective must be one of {ORDERABLE_COLUMNS}, "
                        f"got {column!r}"
                    )
                target = _require_finite(f"nearest[{column}]", value)
                if target is None:
                    raise QueryValidationError(
                        f"nearest[{column}] must be a number, got None"
                    )
                frozen.append((column, target))
            object.__setattr__(self, "nearest", tuple(frozen))
        if not isinstance(self.descending, bool):
            raise QueryValidationError("descending must be a boolean")
        if not isinstance(self.include_dominated, bool):
            raise QueryValidationError("include_dominated must be a boolean")
        if not isinstance(self.offset, int) or isinstance(self.offset, bool):
            raise QueryValidationError(f"offset must be an integer, got {self.offset!r}")
        if self.offset < 0:
            raise QueryValidationError(f"offset must be >= 0, got {self.offset}")
        if self.limit is not None:
            if not isinstance(self.limit, int) or isinstance(self.limit, bool):
                raise QueryValidationError(f"limit must be an integer, got {self.limit!r}")
            if self.limit < 1:
                raise QueryValidationError(f"limit must be >= 1, got {self.limit}")

    # -- wire format -------------------------------------------------------------

    @staticmethod
    def from_dict(payload: Mapping[str, object]) -> "FrontQuery":
        """Build a query from its JSON form (the ``POST /query`` body)."""
        if not isinstance(payload, Mapping):
            raise QueryValidationError(
                f"query body must be a JSON object, got {type(payload).__name__}"
            )
        known = {f.name for f in fields(FrontQuery)}
        unknown = set(payload) - known
        if unknown:
            raise QueryValidationError(
                f"unknown query fields {sorted(unknown)}; valid: {sorted(known)}"
            )
        return FrontQuery(**dict(payload))  # type: ignore[arg-type]

    def as_dict(self) -> Dict[str, object]:
        """JSON form of the query (inverse of :meth:`from_dict`)."""
        doc: Dict[str, object] = {"dataset": self.dataset}
        for name in (*CONSTRAINTS, "fault_rate", "top_k"):
            value = getattr(self, name)
            if value is not None:
                doc[name] = value
        doc["order_by"] = self.order_by
        if self.descending:
            doc["descending"] = True
        if self.nearest is not None:
            doc["nearest"] = {column: value for column, value in self.nearest}
        if self.include_dominated:
            doc["include_dominated"] = True
        if self.offset:
            doc["offset"] = self.offset
        if self.limit is not None:
            doc["limit"] = self.limit
        return doc


@dataclass(frozen=True)
class QueryResult:
    """The answer to one :class:`FrontQuery`.

    Attributes:
        query: the executed query.
        points: ranked design points satisfying every constraint.
        total_points: candidate points before constraint filtering (the
            merged front's size, or the raw union's with
            ``include_dominated``).
        matched: points satisfying the constraints (before ``top_k`` and
            the ``offset``/``limit`` window).
        campaigns: how many campaign fronts contributed candidates.
        robust: whether the candidates carried the robustness columns.
        fingerprint: the contributing fronts' combined fingerprint (the
            HTTP layer's ETag; not part of the JSON body, which stays
            byte-identical to the pre-fingerprint wire format).
    """

    query: FrontQuery
    points: Tuple[DesignPoint, ...]
    total_points: int
    matched: int
    campaigns: int
    robust: bool
    distances: Optional[Tuple[float, ...]] = field(default=None)
    fingerprint: Optional[str] = field(default=None)

    def as_dict(self) -> Dict[str, object]:
        """JSON form of the result (what ``POST /query`` returns)."""
        doc: Dict[str, object] = {
            "query": self.query.as_dict(),
            "dataset": self.query.dataset,
            "points": [point.as_dict() for point in self.points],
            "total_points": self.total_points,
            "matched": self.matched,
            "returned": len(self.points),
            "campaigns": self.campaigns,
            "robust": self.robust,
        }
        if self.distances is not None:
            doc["distances"] = list(self.distances)
        return doc


@dataclass(frozen=True)
class _CandidateSet:
    """One query's candidate plan: columnar arrays plus a row materializer.

    ``columns``/``total`` describe the candidate rows the masks and
    rankings run over; ``materialize`` turns the final window's candidate
    indices into design points (the only step that builds Python objects).
    """

    columns: Mapping[str, np.ndarray]
    total: int
    campaigns: int
    robust: bool
    fingerprint: Optional[str]
    materialize: Callable[[Sequence[int]], Tuple[DesignPoint, ...]]


class QueryEngine:
    """Execute :class:`FrontQuery` objects against a :class:`FrontStore`.

    Args:
        store: the indexed front store.
    """

    def __init__(self, store: FrontStore) -> None:
        self.store = store

    # -- candidate assembly ------------------------------------------------------

    def _candidates(self, query: FrontQuery) -> "_CandidateSet":
        """The query's candidate plan: columns now, design points on demand.

        Single-campaign stores answer from the view's (possibly
        mmap-backed) column slices and materialize rows lazily through
        :meth:`~repro.serving.store.FrontView.point` — only the window
        the query returns ever becomes Python objects. Unions and
        dominated-opt-in queries still materialize every contributing
        point (the cross-campaign Pareto merge needs them), exactly as
        the merged report would.
        """
        views = self.store.views(query.dataset, fault_rate=query.fault_rate)
        fingerprint = combine_fingerprints(views) if views else None
        if len(views) == 1 and not query.include_dominated:
            view = views[0]
            pareto_index = view.pareto_index

            def materialize_rows(indices: Sequence[int]) -> Tuple[DesignPoint, ...]:
                return tuple(
                    view.point(int(pareto_index[int(i)])) for i in indices
                )

            return _CandidateSet(
                columns=view.pareto_columns,
                total=int(pareto_index.shape[0]),
                campaigns=1,
                robust=view.robust,
                fingerprint=fingerprint,
                materialize=materialize_rows,
            )
        points: List[DesignPoint] = []
        for view in views:
            points.extend(view.points)
        robust = bool(points) and all(p.robust_accuracy is not None for p in points)
        if not query.include_dominated:
            points = pareto_front(points, robust=robust)
        return _CandidateSet(
            columns=build_columns(points),
            total=len(points),
            campaigns=len(views),
            robust=robust,
            fingerprint=fingerprint,
            materialize=lambda indices: tuple(points[int(i)] for i in indices),
        )

    # -- execution ---------------------------------------------------------------

    @staticmethod
    def _window(values: np.ndarray, query: FrontQuery) -> np.ndarray:
        """Apply ``top_k`` then the ``offset``/``limit`` page to a ranking."""
        if query.top_k is not None:
            values = values[: query.top_k]
        if query.offset:
            values = values[query.offset :]
        if query.limit is not None:
            values = values[: query.limit]
        return values

    def run(self, query: Union[FrontQuery, Mapping[str, object]]) -> QueryResult:
        """Execute one query; raises ``UnknownDatasetError`` for missed datasets."""
        if not isinstance(query, FrontQuery):
            query = FrontQuery.from_dict(query)
        candidates = self._candidates(query)
        columns = candidates.columns
        mask = np.ones(candidates.total, dtype=bool)
        for name, (column, direction) in CONSTRAINTS.items():
            bound = getattr(query, name)
            if bound is None:
                continue
            values = columns[column]
            # NaN compares False either way: a point without the column
            # can never satisfy a constraint on it.
            with np.errstate(invalid="ignore"):
                mask &= values >= bound if direction == "min" else values <= bound
        selected = np.flatnonzero(mask)
        matched = int(selected.size)

        distances: Optional[np.ndarray] = None
        if query.nearest is not None:
            distances = self._distances(columns, selected, query.nearest)
            order = np.argsort(distances, kind="stable")
        else:
            keys = columns[query.order_by][selected]
            keys = np.nan_to_num(keys, nan=np.inf, posinf=np.inf, neginf=-np.inf)
            order = np.argsort(-keys if query.descending else keys, kind="stable")
        ranked = self._window(selected[order], query)
        result_distances: Optional[Tuple[float, ...]] = None
        if distances is not None:
            kept = self._window(distances[order], query)
            result_distances = tuple(float(value) for value in kept)
        return QueryResult(
            query=query,
            points=candidates.materialize(ranked),
            total_points=candidates.total,
            matched=matched,
            campaigns=candidates.campaigns,
            robust=candidates.robust,
            distances=result_distances,
            fingerprint=candidates.fingerprint,
        )

    def _distances(
        self,
        columns: Mapping[str, np.ndarray],
        selected: np.ndarray,
        nearest: Sequence[Tuple[str, float]],
    ) -> np.ndarray:
        """Normalized Euclidean distance of each selected point to the target.

        Each axis is scaled by the candidate set's span on that objective
        (degenerate spans fall back to ``max(|target|, 1)``) so axes with
        different units — accuracy in [0, 1], area in mm² — weigh equally.
        NaN values (missing robustness columns) rank last on that axis.
        """
        total = np.zeros(selected.size, dtype=np.float64)
        for column, target in nearest:
            values = columns[column][selected]
            finite = values[np.isfinite(values)]
            span = float(finite.max() - finite.min()) if finite.size else 0.0
            if span <= 0.0:
                span = max(abs(float(target)), 1.0)
            deltas = (values - float(target)) / span
            deltas = np.nan_to_num(deltas, nan=np.inf)
            with np.errstate(over="ignore"):
                total += np.square(deltas)
        return np.sqrt(total)


__all__ = [
    "CONSTRAINTS",
    "ORDERABLE_COLUMNS",
    "FrontQuery",
    "QueryEngine",
    "QueryResult",
    "QueryValidationError",
]
