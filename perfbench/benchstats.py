"""The benchmark's own arithmetic: percentiles, spreads, fronts.

Kept free of timing and process code so the tests in ``test_perfbench.py``
can pin every number the benchmark reports against hand-computed values.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it; with fewer, the tail is one or two unlucky samples.
TAIL_SAMPLES = 10

#: Fixed hypervolume reference points for the minimized objective space of
#: ``repro.search.objectives.objectives_of``: relative accuracy loss,
#: normalized area and (3-D) robust accuracy loss. A point at or beyond 1.0
#: on any axis has lost all its accuracy or saved no area, so it adds no
#: volume; the bounds never move with the data, so two runs are comparable.
HV_REFERENCE_2D: Tuple[float, float] = (1.0, 1.0)
HV_REFERENCE_3D: Tuple[float, float, float] = (1.0, 1.0, 1.0)


def percentile(values: Sequence[float], quantile: float) -> Optional[float]:
    """Nearest-rank percentile, or ``None`` when its tail is too thin.

    The value returned is the ``ceil(quantile * n)``-th smallest sample; it
    is withheld unless at least :data:`TAIL_SAMPLES` samples lie strictly
    beyond that rank (so p99 needs 1000 samples and p50 needs 21).
    """
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    ordered = sorted(values)
    rank = math.ceil(quantile * len(ordered))
    if rank < 1 or len(ordered) - rank < TAIL_SAMPLES:
        return None
    return ordered[rank - 1]


def deepest_percentile(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(value, quantile)`` of the highest nearest-rank percentile the samples
    support: the sample with exactly :data:`TAIL_SAMPLES` samples beyond it.

    For a stream too short to carry p99 (it needs 1000 samples), this is
    the deepest tail that still rests on ten independent samples; ``None``
    when there are not even ``TAIL_SAMPLES + 1`` samples.
    """
    ordered = sorted(values)
    rank = len(ordered) - TAIL_SAMPLES
    if rank < 1:
        return None
    return ordered[rank - 1], rank / len(ordered)


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether maximized criteria vector ``a`` Pareto-dominates ``b``."""
    return all(x >= y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b))


def dominated_pairs(criteria: Sequence[Sequence[float]]) -> List[Tuple[int, int]]:
    """Every ``(i, j)`` where point ``i`` dominates point ``j`` (O(n^2) oracle)."""
    return [
        (i, j)
        for i, a in enumerate(criteria)
        for j, b in enumerate(criteria)
        if i != j and dominates(a, b)
    ]


def objectives(points: Iterable[dict], baseline: dict, robust: bool) -> List[Tuple[float, ...]]:
    """Minimized objective vectors of serialized design points.

    Mirrors ``repro.search.objectives.objectives_of`` on the JSON form the
    reports and the HTTP API emit, so a front read back from disk or the
    wire scores exactly as the search scored it.
    """
    vectors = []
    for point in points:
        vector = [
            max(1.0 - point["accuracy"] / baseline["accuracy"], 0.0),
            point["area"] / baseline["area"],
        ]
        if robust:
            vector.append(max(1.0 - point["robust_accuracy"] / baseline["accuracy"], 0.0))
        vectors.append(tuple(vector))
    return vectors


def front_hypervolume(vectors: Sequence[Sequence[float]]) -> float:
    """Hypervolume of minimized objective vectors against the fixed reference."""
    from repro.core.pareto import hypervolume_objectives

    if not vectors:
        return 0.0
    reference = HV_REFERENCE_3D if len(vectors[0]) == 3 else HV_REFERENCE_2D
    return hypervolume_objectives(vectors, reference)
