"""Pareto-front extraction and area-gain summaries.

These utilities implement the analysis layer of the paper's evaluation:
extracting the accuracy/area Pareto front from a cloud of design points,
normalizing against the baseline, and answering the headline question
"what is the maximum area gain within an accuracy-loss budget of X %?".
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .results import DesignPoint, NormalizedPoint, SweepResult


def _criteria(point: DesignPoint, robust: bool) -> Tuple[float, ...]:
    """The maximised/minimised comparison axes of one point.

    ``(accuracy, -area)`` by default — all axes maximised. With ``robust``
    the point's ``robust_accuracy`` (fault-injected mean accuracy) joins as
    a third maximised axis; robustness-aware searches guarantee it is set.
    """
    if not robust:
        return (point.accuracy, -point.area)
    if point.robust_accuracy is None:
        raise ValueError(
            "robust Pareto comparison needs robust_accuracy on every point "
            "(evaluate with fault injection enabled)"
        )
    return (point.accuracy, -point.area, point.robust_accuracy)


def pareto_front_reference(
    points: Sequence[DesignPoint], robust: bool = False
) -> List[DesignPoint]:
    """The original O(n²) Python loop — kept as the oracle for the array path.

    Semantics (shared with :func:`pareto_front`, which must match this
    point-for-point): a point is Pareto-optimal when no other point is at
    least as good on every axis and strictly better on one; identical
    (rounded) criteria tuples collapse to their first occurrence; the
    result is sorted by increasing area.
    """
    points = list(points)
    criteria = [_criteria(point, robust) for point in points]
    front: List[DesignPoint] = []
    front_criteria: List[Tuple[float, ...]] = []
    for candidate, candidate_criteria in zip(points, criteria):
        dominated = False
        for other, other_criteria in zip(points, criteria):
            if other is candidate:
                continue
            if all(o >= c for o, c in zip(other_criteria, candidate_criteria)) and any(
                o > c for o, c in zip(other_criteria, candidate_criteria)
            ):
                dominated = True
                break
        if not dominated:
            front.append(candidate)
            front_criteria.append(candidate_criteria)
    # Deduplicate identical criteria tuples and sort by area.
    unique: Dict[Tuple[float, ...], DesignPoint] = {}
    for point, point_criteria in zip(front, front_criteria):
        unique.setdefault(
            tuple(round(value, 12) for value in point_criteria), point
        )
    return sorted(unique.values(), key=lambda p: (p.area, -p.accuracy))


def pareto_front_indices(
    points: Sequence[DesignPoint], robust: bool = False
) -> List[int]:
    """Indices (into ``points``) of the Pareto front, in front order.

    The index-returning core of :func:`pareto_front`: one broadcasted
    pairwise comparison replaces the Python double loop (identical float64
    comparisons, so the survivor set matches the reference loop exactly),
    then the same first-occurrence dedupe on rounded criteria and the same
    ``(area, -accuracy)`` sort. The columnar serving format persists these
    indices so an npz-backed view can slice its Pareto subset without
    materializing design points.
    """
    points = list(points)
    if not points:
        return []
    criteria = np.asarray(
        [_criteria(point, robust) for point in points], dtype=np.float64
    )
    # [i, j] = i dominates j (all axes >= and one >); the diagonal is False
    # because a point never strictly beats itself on any axis.
    left = criteria[:, None, :]
    right = criteria[None, :, :]
    dominated_by = np.logical_and(
        np.all(left >= right, axis=-1), np.any(left > right, axis=-1)
    )
    survivors = np.flatnonzero(~dominated_by.any(axis=0))
    unique: Dict[Tuple[float, ...], int] = {}
    for index in survivors:
        key = tuple(round(float(value), 12) for value in criteria[index])
        unique.setdefault(key, int(index))
    return sorted(
        unique.values(), key=lambda i: (points[i].area, -points[i].accuracy)
    )


def pareto_front(points: Sequence[DesignPoint], robust: bool = False) -> List[DesignPoint]:
    """Extract the accuracy/area (optionally x robustness) Pareto-optimal subset.

    A point is Pareto-optimal when no other point is at least as good on
    every axis and strictly better on one. The default axes are the paper's
    (accuracy maximised, area minimised); ``robust=True`` adds the
    fault-injected ``robust_accuracy`` as a third maximised axis — used by
    robustness-aware searches, whose fronts keep designs that trade a
    little area for fault tolerance. The result is sorted by increasing
    area.

    Delegates to the vectorized :func:`pareto_front_indices`
    (:func:`pareto_front_reference` is the pinned loop oracle).
    """
    points = list(points)
    return [points[index] for index in pareto_front_indices(points, robust=robust)]


def dominates(a: DesignPoint, b: DesignPoint, robust: bool = False) -> bool:
    """True when ``a`` Pareto-dominates ``b`` (accuracy maximised, area minimised).

    With ``robust=True`` the fault-injected ``robust_accuracy`` is a third
    maximised axis (both points must carry it).
    """
    a_criteria = _criteria(a, robust)
    b_criteria = _criteria(b, robust)
    return all(x >= y for x, y in zip(a_criteria, b_criteria)) and any(
        x > y for x, y in zip(a_criteria, b_criteria)
    )


def normalize_points(
    points: Sequence[DesignPoint], baseline: DesignPoint
) -> List[NormalizedPoint]:
    """Normalize a list of design points against a baseline design."""
    return [p.normalized(baseline) for p in points]


def best_area_gain_at_loss(
    points: Sequence[DesignPoint],
    baseline: DesignPoint,
    max_accuracy_loss: float = 0.05,
) -> Optional[NormalizedPoint]:
    """The largest-area-gain point whose accuracy loss is within the budget.

    This is the paper's headline metric ("up to 8x area reduction for up to
    5 % accuracy loss"). The loss budget is *relative* to the baseline
    accuracy (normalized accuracy >= 1 - max_accuracy_loss), matching the
    normalized axes of Figures 1 and 2. Returns ``None`` when no point meets
    the budget — which the paper itself observes for weight clustering on
    Pendigits and Seeds.
    """
    if max_accuracy_loss < 0:
        raise ValueError(f"max_accuracy_loss must be >= 0, got {max_accuracy_loss}")
    if baseline.accuracy <= 0:
        raise ValueError("Baseline accuracy must be positive")
    eligible = [
        p.normalized(baseline)
        for p in points
        if 1.0 - p.accuracy / baseline.accuracy <= max_accuracy_loss + 1e-12
    ]
    if not eligible:
        return None
    return max(eligible, key=lambda n: n.area_gain)


def area_gain_table(
    sweep: SweepResult,
    max_accuracy_loss: float = 0.05,
    techniques: Optional[Sequence[str]] = None,
) -> Dict[str, Optional[float]]:
    """Best area gain within the loss budget, per technique.

    Returns ``{technique: gain or None}`` — ``None`` meaning the technique
    produced no design inside the accuracy budget.
    """
    selected = techniques if techniques is not None else sweep.techniques()
    table: Dict[str, Optional[float]] = {}
    for technique in selected:
        best = best_area_gain_at_loss(
            sweep.by_technique(technique), sweep.baseline, max_accuracy_loss
        )
        table[technique] = None if best is None else float(best.area_gain)
    return table


def hypervolume(
    points: Sequence[DesignPoint],
    baseline: DesignPoint,
    reference_loss: float = 0.2,
) -> float:
    """2-D hypervolume of the normalized Pareto front.

    The reference point is (relative accuracy loss = ``reference_loss``,
    normalized area = 1.0): designs losing more accuracy than the reference
    or larger than the baseline contribute nothing.
    """
    if reference_loss <= 0:
        raise ValueError(f"reference_loss must be positive, got {reference_loss}")
    front = pareto_front(points)
    if not front:
        return 0.0
    normalized = [
        (1.0 - p.accuracy / baseline.accuracy, p.area / baseline.area) for p in front
    ]
    # Keep points inside the reference box, sort by accuracy loss.
    inside = sorted(
        (max(loss, 0.0), min(area, 1.0))
        for loss, area in normalized
        if loss <= reference_loss and area <= 1.0
    )
    if not inside:
        return 0.0
    volume = 0.0
    previous_loss = 0.0
    best_area = 1.0
    for loss, area in inside:
        volume += (loss - previous_loss) * (1.0 - best_area)
        best_area = min(best_area, area)
        previous_loss = loss
    volume += (reference_loss - previous_loss) * (1.0 - best_area)
    return float(volume)


def _hypervolume_2d(points: List[Tuple[float, ...]], reference: Tuple[float, ...]) -> float:
    """Exact 2-D dominated volume of minimized points w.r.t. ``reference``."""
    inside = sorted(p for p in points if p[0] < reference[0] and p[1] < reference[1])
    volume = 0.0
    best_y = reference[1]
    for x, y in inside:
        if y >= best_y:
            continue  # dominated by an earlier (smaller-x) point
        volume += (reference[0] - x) * (best_y - y)
        best_y = y
    return volume


def hypervolume_objectives(
    objectives: Sequence[Sequence[float]],
    reference: Sequence[float],
) -> float:
    """Exact hypervolume of minimized objective vectors w.r.t. a reference point.

    The generic counterpart of :func:`hypervolume` for raw objective space:
    ``objectives`` are 2- or 3-component vectors where smaller is better
    (the convention of :func:`repro.search.objectives.objectives_of`), and
    the volume is that of the region dominated by the set and bounded by
    ``reference``. Points not strictly better than the reference on every
    axis contribute nothing. The 3-D case sweeps reference-to-point slabs
    along the last axis with an incremental 2-D front — exact, O(n² log n),
    plenty for search-sized fronts. The surrogate's evaluations-saved floor
    compares 3-objective fronts of surrogate-assisted and plain GA runs
    with it.
    """
    reference = tuple(float(value) for value in reference)
    dimensions = len(reference)
    if dimensions not in (2, 3):
        raise ValueError(f"hypervolume_objectives supports 2 or 3 objectives, got {dimensions}")
    points = [tuple(float(value) for value in vector) for vector in objectives]
    if any(len(point) != dimensions for point in points):
        raise ValueError("every objective vector must match the reference dimensionality")
    if dimensions == 2:
        return float(_hypervolume_2d(points, reference))
    inside = sorted(
        (p for p in points if all(v < r for v, r in zip(p, reference))),
        key=lambda p: p[2],
    )
    volume = 0.0
    for index, point in enumerate(inside):
        top = inside[index + 1][2] if index + 1 < len(inside) else reference[2]
        if top <= point[2]:
            continue  # zero-thickness slab (ties on the swept axis)
        slab = [(q[0], q[1]) for q in inside[: index + 1]]
        volume += _hypervolume_2d(slab, reference[:2]) * (top - point[2])
    return float(volume)


def average_area_gain(
    sweeps: Iterable[SweepResult],
    technique: str,
    max_accuracy_loss: float = 0.05,
) -> float:
    """Geometric-mean area gain of one technique across several datasets.

    Datasets where the technique never meets the accuracy budget are skipped
    (matching how the paper reports "on average 5x" for quantization while
    noting clustering misses the budget on two datasets).
    """
    gains: List[float] = []
    for sweep in sweeps:
        best = best_area_gain_at_loss(
            sweep.by_technique(technique), sweep.baseline, max_accuracy_loss
        )
        if best is not None:
            gains.append(best.area_gain)
    if not gains:
        return float("nan")
    return float(np.exp(np.mean(np.log(gains))))


def front_as_arrays(
    points: Sequence[DesignPoint], baseline: Optional[DesignPoint] = None
) -> Dict[str, np.ndarray]:
    """Pareto front as plottable arrays (normalized when a baseline is given)."""
    front = pareto_front(points)
    accuracy = np.array([p.accuracy for p in front])
    area = np.array([p.area for p in front])
    if baseline is not None:
        accuracy = accuracy / baseline.accuracy
        area = area / baseline.area
    return {"accuracy": accuracy, "area": area}
