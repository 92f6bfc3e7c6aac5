"""NSGA-II primitives: non-dominated sorting, crowding distance, selection.

The hardware-aware GA of the paper is implemented as an NSGA-II over two
minimized objectives (accuracy loss, normalized area). The functions here
are generic over objective vectors so they can be unit- and property-tested
independently of the neural/hardware evaluation.

The public entry points (:func:`fast_non_dominated_sort`,
:func:`crowding_distance`, :func:`nsga2_rank`) are vectorized: the O(MN²)
pairwise domination tests run as one broadcasted comparison and the crowding
sweep is a handful of fancy-indexed array ops, instead of nested Python
loops over solutions. The vectorized forms reproduce the historical loop
implementations *exactly* — same fronts in the same order, bit-identical
crowding distances, including duplicate-objective ties — which the property
tests in ``tests/test_search_nsga2_vectorized.py`` assert against the
``*_reference`` implementations kept below.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when objective vector ``a`` Pareto-dominates ``b`` (minimization)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"Objective vectors differ in length: {a.shape} vs {b.shape}")
    return bool(np.all(a <= b) and np.any(a < b))


def _objective_matrix(objectives: Sequence[Sequence[float]]) -> np.ndarray:
    matrix = np.asarray(objectives, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(
            "objectives must be a 2-D structure (n_solutions x n_objectives); "
            f"got shape {matrix.shape}"
        )
    return matrix


def _domination_matrix(matrix: np.ndarray) -> np.ndarray:
    """``[i, j]`` is True when solution ``i`` Pareto-dominates solution ``j``."""
    left = matrix[:, None, :]
    right = matrix[None, :, :]
    return np.logical_and(np.all(left <= right, axis=-1), np.any(left < right, axis=-1))


def fast_non_dominated_sort(objectives: Sequence[Sequence[float]]) -> List[List[int]]:
    """Sort indices into Pareto fronts (front 0 is non-dominated).

    Vectorized form of the O(MN²) algorithm of Deb et al. (2002): the full
    pairwise domination matrix is computed with one broadcasted comparison
    (O(N²M) memory — fine for the population sizes the GA uses), then the
    fronts are peeled with numpy-indexed count updates that visit solutions
    in exactly the order of the reference double loop, so the returned
    fronts — including the order of indices *within* each front — are
    identical to :func:`fast_non_dominated_sort_reference`.
    """
    n = len(objectives)
    if n == 0:
        return []
    matrix = _objective_matrix(objectives)
    if matrix.shape[0] != n:
        raise ValueError("objectives rows must align with the solution count")
    domination = _domination_matrix(matrix)
    domination_count = domination.sum(axis=0).astype(np.int64)

    fronts: List[List[int]] = []
    current = np.flatnonzero(domination_count == 0)
    # Every dominator of a solution sits in a strictly earlier front, so each
    # count hits zero exactly once — no solution can be appended twice.
    while current.size:
        fronts.append([int(i) for i in current])
        next_front: List[int] = []
        for i in current:
            dominated = np.flatnonzero(domination[i])
            if dominated.size == 0:
                continue
            domination_count[dominated] -= 1
            for j in dominated[domination_count[dominated] == 0]:
                next_front.append(int(j))
        current = np.asarray(next_front, dtype=np.int64)
    return fronts


def fast_non_dominated_sort_reference(
    objectives: Sequence[Sequence[float]],
) -> List[List[int]]:
    """The historical pure-Python O(MN²) loop (kept as the equality oracle)."""
    n = len(objectives)
    if n == 0:
        return []
    dominated_by: List[List[int]] = [[] for _ in range(n)]
    domination_count = [0] * n
    fronts: List[List[int]] = [[]]

    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if dominates(objectives[i], objectives[j]):
                dominated_by[i].append(j)
            elif dominates(objectives[j], objectives[i]):
                domination_count[i] += 1
        if domination_count[i] == 0:
            fronts[0].append(i)

    current = 0
    while fronts[current]:
        next_front: List[int] = []
        for i in fronts[current]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    next_front.append(j)
        current += 1
        fronts.append(next_front)
    fronts.pop()  # the last front is always empty
    return fronts


def crowding_distance(objectives: Sequence[Sequence[float]]) -> np.ndarray:
    """Crowding distance of each solution within one front.

    Boundary solutions get infinite distance so they are always preferred,
    preserving the extremes of the front. Vectorized per objective: one
    stable argsort plus a fancy-indexed scatter of the interior gaps,
    accumulating objectives in the same order as the reference loop so the
    distances are bit-identical (ties included — the stable argsort sees the
    rows in the same order either way).
    """
    n = len(objectives)
    if n == 0:
        return np.array([])
    matrix = _objective_matrix(objectives)
    distances = np.zeros(n, dtype=np.float64)
    for m in range(matrix.shape[1]):
        order = np.argsort(matrix[:, m], kind="stable")
        distances[order[0]] = np.inf
        distances[order[-1]] = np.inf
        column = matrix[order, m]
        span = column[-1] - column[0]
        if span == 0.0 or n <= 2:
            continue
        # Interior solution at sorted rank r gains (value[r+1] - value[r-1]) / span.
        distances[order[1:-1]] += (column[2:] - column[:-2]) / span
    return distances


def crowding_distance_reference(objectives: Sequence[Sequence[float]]) -> np.ndarray:
    """The historical per-rank Python loop (kept as the equality oracle)."""
    n = len(objectives)
    if n == 0:
        return np.array([])
    matrix = _objective_matrix(objectives)
    distances = np.zeros(n, dtype=np.float64)
    for m in range(matrix.shape[1]):
        order = np.argsort(matrix[:, m], kind="stable")
        distances[order[0]] = np.inf
        distances[order[-1]] = np.inf
        span = matrix[order[-1], m] - matrix[order[0], m]
        if span == 0.0 or n <= 2:
            continue
        for rank in range(1, n - 1):
            previous_value = matrix[order[rank - 1], m]
            next_value = matrix[order[rank + 1], m]
            distances[order[rank]] += (next_value - previous_value) / span
    return distances


def nsga2_rank(objectives: Sequence[Sequence[float]]) -> List[tuple]:
    """Return ``(front_index, -crowding_distance)`` sort keys per solution.

    Lower keys are better: earlier front first, then larger crowding distance.
    """
    fronts = fast_non_dominated_sort(objectives)
    keys: List[tuple] = [(0, 0.0)] * len(objectives)
    for front_index, front in enumerate(fronts):
        front_objectives = [objectives[i] for i in front]
        distances = crowding_distance(front_objectives)
        for position, solution_index in enumerate(front):
            keys[solution_index] = (front_index, -float(distances[position]))
    return keys


def select_survivors(
    objectives: Sequence[Sequence[float]],
    n_survivors: int,
) -> List[int]:
    """Environmental selection: keep the best ``n_survivors`` by NSGA-II ranking."""
    if n_survivors < 0:
        raise ValueError(f"n_survivors must be >= 0, got {n_survivors}")
    keys = nsga2_rank(objectives)
    order = sorted(range(len(objectives)), key=lambda i: keys[i])
    return order[:n_survivors]


def tournament_select(
    objectives: Sequence[Sequence[float]],
    rng: np.random.Generator,
    tournament_size: int = 2,
    keys: Optional[Sequence[tuple]] = None,
) -> int:
    """Binary (or k-ary) tournament selection by NSGA-II ranking.

    Args:
        objectives: the population's objective vectors.
        rng: generator drawing the contenders (consumed identically whether
            or not ``keys`` is supplied, so precomputing keys never changes
            the evolutionary trajectory).
        tournament_size: contenders per tournament.
        keys: optional precomputed :func:`nsga2_rank` keys. Drivers that run
            many tournaments against one fixed population (the GA's offspring
            loop) should rank once and pass the keys in, instead of paying
            the full non-dominated sort per selection.
    """
    if not objectives:
        raise ValueError("Cannot select from an empty population")
    if tournament_size < 1:
        raise ValueError(f"tournament_size must be >= 1, got {tournament_size}")
    if keys is None:
        keys = nsga2_rank(objectives)
    elif len(keys) != len(objectives):
        raise ValueError(
            f"Got {len(keys)} precomputed keys for {len(objectives)} objectives"
        )
    contenders = rng.integers(0, len(objectives), size=tournament_size)
    return int(min(contenders, key=lambda i: keys[i]))
